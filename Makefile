GO ?= go
SMOKEDIR ?= /tmp/maxbrstknn-smoke
SERVEDIR ?= /tmp/maxbrstknn-serve-smoke
SERVEADDR ?= 127.0.0.1:18080
INGESTDIR ?= /tmp/maxbrstknn-ingest-smoke
INGESTADDR ?= 127.0.0.1:18081
SHARDDIR ?= /tmp/maxbrstknn-shard-smoke
SHARD0ADDR ?= 127.0.0.1:18083
SHARD1ADDR ?= 127.0.0.1:18084
COORDADDR ?= 127.0.0.1:18085
SINGLEADDR ?= 127.0.0.1:18086

# Static analysis. lint-maxbr runs the project's own analyzer suite
# (cmd/maxbrlint) over the whole tree and fails on any diagnostic — there
# is no baseline file. lint-external adds staticcheck and govulncheck,
# pinned by version and run via `go run` so they never enter go.mod.
# LINT_EXTERNAL=auto (the default) probes the module proxy first and
# skips the external tools offline; CI sets LINT_EXTERNAL=1 to force
# them.
LINT_EXTERNAL ?= auto
STATICCHECK_VERSION ?= 2025.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: all build vet test race bench bench-smoke cli-smoke serve-smoke ingest-smoke shard-smoke perfbench-check fuzz-smoke lint lint-maxbr lint-fix lint-external ci

all: ci

build:
	$(GO) build ./...

vet: build
	$(GO) vet ./...

test:
	$(GO) test ./...

# The parallel query engine is gated on a clean race run.
race:
	$(GO) test -race ./...

# Short benchmark smoke: every benchmark must at least run once.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Hotpath bench smoke: the decoded-cache hot-path experiment at tiny
# scale. It fails on any result-equivalence mismatch between the cold
# (decode-everything) and warm (decoded-cache + scratch) configurations —
# never on timing — keeping the perf code exercised on every push.
bench-smoke:
	$(GO) run ./cmd/benchrunner -exp hotpath -quick

# Save/load CLI smoke: datagen → build a saved index → query it, and
# require the answer to match the in-memory one-shot pipeline. Guards the
# on-disk index format end to end.
cli-smoke:
	rm -rf $(SMOKEDIR) && mkdir -p $(SMOKEDIR)
	$(GO) build -o $(SMOKEDIR)/ ./cmd/...
	cd $(SMOKEDIR) && ./datagen -n 2000 -users 100 -locations 10 -out . >/dev/null
	cd $(SMOKEDIR) && ./maxbrstknn build -data . -out index.mxbr
	cd $(SMOKEDIR) && ./maxbrstknn query -index index.mxbr -data . -ws 2 -k 5 | tee query.out
	cd $(SMOKEDIR) && ./maxbrstknn -data . -ws 2 -k 5 | tee oneshot.out
	cd $(SMOKEDIR) && answer="$$(grep -F '|BRSTkNN|' oneshot.out)" && test -n "$$answer" \
		&& grep -F "$$answer" query.out >/dev/null \
		&& echo "cli-smoke: saved-index answer matches in-memory answer"
	rm -rf $(SMOKEDIR)

# Serving smoke: datagen → saved index → maxbrserve against it, then one
# query per endpoint plus /healthz and /stats. Guards the HTTP serving
# layer end to end against a disk-backed index.
serve-smoke:
	rm -rf $(SERVEDIR) && mkdir -p $(SERVEDIR)
	$(GO) build -o $(SERVEDIR)/ ./cmd/...
	cd $(SERVEDIR) && ./datagen -n 2000 -users 100 -locations 10 -out . >/dev/null
	cd $(SERVEDIR) && ./maxbrstknn build -data . -out index.mxbr >/dev/null
	$(SERVEDIR)/maxbrserve -index $(SERVEDIR)/index.mxbr -addr $(SERVEADDR) >$(SERVEDIR)/serve.log 2>&1 & \
	pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT; \
	set -e; \
	base=http://$(SERVEADDR); \
	q='{"users":[{"x":25,"y":40,"keywords":["tag00000","tag00001"]}],"locations":[[25,40],[30,45]],"keywords":["tag00000","tag00001"],"max_keywords":1,"k":3'; \
	curl -sf --retry 20 --retry-connrefused --retry-delay 1 $$base/healthz | grep -q '"status":"ok"'; \
	curl -sf $$base/topk -d '{"x":25,"y":40,"keywords":["tag00000"],"k":3}' | grep -q '"results"'; \
	curl -sf $$base/maxbrstknn -d "$$q}" | grep -q '"location_index"'; \
	curl -sf $$base/maxbrstknn -d "$$q,\"strategy\":\"approx\",\"parallel\":{\"workers\":2}}" | grep -q '"location_index"'; \
	curl -sf $$base/topl -d "$$q,\"l\":2}" | grep -q '"results"'; \
	curl -sf $$base/multiple -d "$$q,\"m\":2}" | grep -q '"results"'; \
	curl -sf $$base/stats | grep -q '"session_cache"'; \
	curl -sf $$base/stats | grep -q '"physical_records"'; \
	echo "serve-smoke: all endpoints healthy (session cache + disk-backed index exercised)"
	rm -rf $(SERVEDIR)

# Ingest smoke: serve a saved index and POST /add + /delete while query
# traffic runs against it. Checks that the epoch advances, an added
# keyword becomes queryable through /topk, deletes drop the live count
# and dead ids 404 — then runs the ingest-vs-batch-build equivalence
# gate at quick scale (benchrunner -exp ingest fails on any answer
# mismatch between the mutated index and a from-scratch build).
ingest-smoke:
	rm -rf $(INGESTDIR) && mkdir -p $(INGESTDIR)
	$(GO) build -o $(INGESTDIR)/ ./cmd/...
	cd $(INGESTDIR) && ./datagen -n 2000 -users 100 -locations 10 -out . >/dev/null
	cd $(INGESTDIR) && ./maxbrstknn build -data . -out index.mxbr >/dev/null
	$(INGESTDIR)/maxbrserve -index $(INGESTDIR)/index.mxbr -addr $(INGESTADDR) >$(INGESTDIR)/serve.log 2>&1 & \
	pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT; \
	set -e; \
	base=http://$(INGESTADDR); \
	curl -sf --retry 20 --retry-connrefused --retry-delay 1 $$base/healthz | grep -q '"status":"ok"'; \
	qpids=""; \
	for w in 1 2 3 4; do \
		( for q in 1 2 3 4 5 6 7 8; do \
			curl -sf $$base/topk -d '{"x":25,"y":40,"keywords":["tag00000"],"k":3}' >/dev/null; \
		done ) & qpids="$$qpids $$!"; \
	done; \
	id=0; \
	for i in 1 2 3 4 5 6; do \
		id=$$(curl -sf $$base/add -d '{"x":25,"y":40,"keywords":["tag00000","smokekw"]}' \
			| sed -n 's/.*"id":\([0-9]*\).*/\1/p'); \
		test -n "$$id"; \
	done; \
	wait $$qpids; \
	curl -sf $$base/topk -d '{"x":25,"y":40,"keywords":["smokekw"],"k":10}' | grep -q "\"object_id\":$$id"; \
	curl -sf $$base/stats | grep -q '"epoch":[1-9]'; \
	curl -sf $$base/delete -d "{\"id\":$$id}" | grep -q '"live_objects":2005'; \
	code=$$(curl -s -o /dev/null -w '%{http_code}' $$base/delete -d "{\"id\":$$id}"); \
	test "$$code" = 404; \
	echo "ingest-smoke: epoch advanced, added keyword queryable, deletes drop live count"
	$(GO) run ./cmd/benchrunner -exp ingest -quick >/dev/null
	@echo "ingest-smoke: ingest-vs-batch-build equivalence gate passed"
	rm -rf $(INGESTDIR)

# Sharded serving smoke: datagen → two shard servers (each re-derives
# the spatial plan and builds only its slice) + a scatter-gather
# coordinator + a single-index server over the same dataset, as four
# real processes. Every query endpoint is hit through the coordinator
# and byte-compared (cmp) against the single-index answer — the sharded
# deployment's standing exactness guarantee — then the coordinator's
# /stats must show the scatter counters moving.
shard-smoke:
	rm -rf $(SHARDDIR) && mkdir -p $(SHARDDIR)
	$(GO) build -o $(SHARDDIR)/ ./cmd/...
	cd $(SHARDDIR) && ./datagen -n 2000 -users 100 -locations 10 -out . >/dev/null
	$(SHARDDIR)/maxbrserve -data $(SHARDDIR) -addr $(SINGLEADDR) >$(SHARDDIR)/single.log 2>&1 & \
	spid=$$!; \
	$(SHARDDIR)/maxbrserve -data $(SHARDDIR) -shard 0/2 -addr $(SHARD0ADDR) >$(SHARDDIR)/shard0.log 2>&1 & \
	p0=$$!; \
	$(SHARDDIR)/maxbrserve -data $(SHARDDIR) -shard 1/2 -addr $(SHARD1ADDR) >$(SHARDDIR)/shard1.log 2>&1 & \
	p1=$$!; \
	$(SHARDDIR)/maxbrserve -coordinator -shards $(SHARD0ADDR),$(SHARD1ADDR) -addr $(COORDADDR) >$(SHARDDIR)/coord.log 2>&1 & \
	cpid=$$!; \
	trap 'kill $$spid $$p0 $$p1 $$cpid 2>/dev/null' EXIT; \
	set -e; \
	single=http://$(SINGLEADDR); coord=http://$(COORDADDR); \
	curl -sf --retry 20 --retry-connrefused --retry-delay 1 $$single/healthz | grep -q '"status":"ok"'; \
	curl -sf --retry 20 --retry-connrefused --retry-delay 1 http://$(SHARD0ADDR)/healthz | grep -q '"shard":0'; \
	curl -sf --retry 20 --retry-connrefused --retry-delay 1 http://$(SHARD1ADDR)/healthz | grep -q '"shard":1'; \
	curl -sf --retry 20 --retry-all-errors --retry-delay 1 $$coord/healthz | grep -q '"status":"ok"'; \
	q='{"users":[{"x":25,"y":40,"keywords":["tag00000","tag00001"]},{"x":60,"y":70,"keywords":["tag00002"]}],"locations":[[25,40],[30,45],[70,80]],"keywords":["tag00000","tag00001"],"max_keywords":1,"k":3'; \
	for body in "$$q}" \
		"$$q,\"strategy\":\"approx\",\"parallel\":{\"workers\":2}}" \
		"$$q,\"strategy\":\"exact\",\"parallel\":{\"workers\":4,\"groups\":8}}" \
		"$$q,\"strategy\":\"exhaustive\"}"; do \
		curl -sf $$single/maxbrstknn -d "$$body" >$(SHARDDIR)/want.json; \
		curl -sf $$coord/maxbrstknn -d "$$body" >$(SHARDDIR)/got.json; \
		cmp $(SHARDDIR)/want.json $(SHARDDIR)/got.json; \
	done; \
	curl -sf $$single/topl -d "$$q,\"l\":2}" >$(SHARDDIR)/want.json; \
	curl -sf $$coord/topl -d "$$q,\"l\":2}" >$(SHARDDIR)/got.json; \
	cmp $(SHARDDIR)/want.json $(SHARDDIR)/got.json; \
	curl -sf $$single/multiple -d "$$q,\"m\":2}" >$(SHARDDIR)/want.json; \
	curl -sf $$coord/multiple -d "$$q,\"m\":2}" >$(SHARDDIR)/got.json; \
	cmp $(SHARDDIR)/want.json $(SHARDDIR)/got.json; \
	curl -sf $$single/topk -d '{"x":25,"y":40,"keywords":["tag00000"],"k":3}' >$(SHARDDIR)/want.json; \
	curl -sf $$coord/topk -d '{"x":25,"y":40,"keywords":["tag00000"],"k":3}' >$(SHARDDIR)/got.json; \
	cmp $(SHARDDIR)/want.json $(SHARDDIR)/got.json; \
	curl -sf $$coord/stats | grep -q '"wave1_visited":[1-9]'; \
	curl -sf $$coord/stats | grep -q '"served_queries":[1-9]'; \
	echo "shard-smoke: coordinator answers byte-identical to the single index on every endpoint"
	rm -rf $(SHARDDIR)

# Benchmark-module check: perfbench/ is a nested module (its own go.mod,
# replacing repro with ../), so `go build ./...` at the root never
# compiles it. Vet and test it here so an engine change that breaks a
# name the benchmark uses fails before the benchmark pipeline does.
# Offline-safe; about 35 s.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

lint: lint-maxbr lint-external

# The nine project-specific analyzers (snapshotonce, immutablealias,
# pinpair, hotpathalloc, sentinelerr, maporder, exhaustiveenum,
# errwrapchain, atomicmix) plus the //maxbr:ignore directive checks.
# Exit status 1 on any finding. -cache serves unchanged packages from
# the incremental cache and prints hit/miss counts; a warm run over an
# unchanged tree re-analyzes zero packages.
lint-maxbr:
	$(GO) run ./cmd/maxbrlint -cache ./...

# Apply every analyzer's suggested fix (sorted-key map iteration, %w
# wrapping, errors.Is rewrites), gofmt, and re-run to convergence.
# Inspect the diff before committing.
lint-fix:
	$(GO) run ./cmd/maxbrlint -fix ./...

lint-external:
	@if [ "$(LINT_EXTERNAL)" = 0 ]; then \
		echo "lint-external: disabled (LINT_EXTERNAL=0)"; exit 0; \
	fi; \
	if [ "$(LINT_EXTERNAL)" = auto ] && ! $(GO) list -m -versions honnef.co/go/tools >/dev/null 2>&1; then \
		echo "lint-external: module proxy unreachable, skipping staticcheck + govulncheck (set LINT_EXTERNAL=1 to force)"; exit 0; \
	fi; \
	set -e; \
	echo "lint-external: staticcheck $(STATICCHECK_VERSION)"; \
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...; \
	echo "lint-external: govulncheck $(GOVULNCHECK_VERSION)"; \
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

# Bounded fuzz smoke: each codec fuzzer runs briefly (Go allows one
# -fuzz target per invocation). The seeds assert decode↔encode fixpoints
# and streaming-vs-decoded sum agreement; the committed testdata corpora
# replay past crashers as regression tests on every plain `go test` too.
fuzz-smoke:
	$(GO) test ./internal/invfile/ -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s
	$(GO) test ./internal/invfile/ -run '^$$' -fuzz '^FuzzDecodeSumsInto$$' -fuzztime 10s
	$(GO) test ./internal/persist/ -run '^$$' -fuzz '^FuzzDecodeMaster$$' -fuzztime 10s

ci: build vet lint race bench bench-smoke cli-smoke serve-smoke ingest-smoke shard-smoke perfbench-check fuzz-smoke
