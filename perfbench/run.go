package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	maxbrstknn "repro"
	"repro/internal/dataset"
	"repro/internal/indexutil"
	"repro/internal/server"
)

// options selects one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	tiny     bool
	dir      string
	// clients > 0 overrides the closed-loop client count, and
	// requests > 0 makes each closed-loop client send exactly that many
	// requests instead of running a timed window (both for tests).
	clients  int
	requests int
}

// outcome is everything one run measured and checked.
type outcome struct {
	Env      envRecord         `json:"env"`
	E2E      map[string]metric `json:"end_to_end"`
	Layers   map[string]metric `json:"per_layer"`
	Counters map[string]metric `json:"counters"`
	Shares   []string          `json:"shares,omitempty"`
	// Timeline is the primary request type's median latency (ms) in
	// each second of the window, to show interference from the host.
	Timeline  []float64 `json:"timeline_p50_ms,omitempty"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Problems  []string  `json:"problems,omitempty"`
}

func (r *outcome) correct() bool { return r.Failed == 0 && len(r.Problems) == 0 }

// endCheck counts a whole-run check as one attempted operation.
func (r *outcome) endCheck(err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		r.Problems = append(r.Problems, err.Error())
	}
}

// Request ids: closed-loop client c's i-th request is (c+1)<<32 | i,
// an open-loop event's is its index + 1, and warm-up requests start at
// warmupID. No request id is 0, the parent id of a root span.
const warmupID = int64(1) << 40

// replayPerClient bounds the phase-1 replay to each closed-loop client's
// first requests (plus warm-up), so the replayed set is the same on
// every run of a seed.
const replayPerClient = 16

func run(o options) (*outcome, error) {
	s, err := specFor(o.workload, o.tiny)
	if err != nil {
		return nil, err
	}
	if o.clients > 0 {
		s.Clients = o.clients
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(o.dir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	scale := "full"
	if o.tiny {
		scale = "tiny"
	}
	r := &outcome{
		Env: envRecord{
			Commit: commit(), NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), Workload: o.workload, Seed: o.seed, Seconds: o.seconds,
			Trace: o.trace, Scale: scale, Spec: s,
		},
		E2E: map[string]metric{}, Layers: map[string]metric{}, Counters: map[string]metric{},
	}

	ds := makeDataset(s.Objects)
	b := indexutil.BuilderFromDataset(ds)
	g, err := newGenerator(s, o.seed, ds)
	if err != nil {
		return nil, err
	}

	// A traced single-index run first serves half its window through the
	// real server, untraced: its latencies and /stats session counts are
	// what the traced half's layer spans are set against.
	var base *pass
	if o.trace && s.Shards == 0 {
		bo := o
		bo.trace, bo.seconds = false, max(1, o.seconds/2)
		if base, err = measure(bo, s, ds, b, g, work, 1, r); err != nil {
			return nil, err
		}
		o.seconds = max(1, o.seconds-bo.seconds)
	}
	p, err := measure(o, s, ds, b, g, work, s.Setups, r)
	if err != nil {
		return nil, err
	}
	if base == nil {
		base = p
	}

	r.endToEnd(s, p.measured, p.times)
	r.counters(s, p.before, p.after, p.measured)
	r.sessions(base)
	if p.tr != nil {
		if p.mir != nil {
			r.replay(s, ds, p.mir, p.tr)
		}
		r.spanLayers(s, p.tr.spans, base.measured)
		if err := p.tr.write(filepath.Join(o.dir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))); err != nil {
			return nil, err
		}
	}
	r.E2E["failed_frac"] = metric{Value: float64(r.Failed) / float64(max(r.Attempted, 1)), Unit: "ratio",
		Note: fmt.Sprintf("%d of %d operations", r.Failed, r.Attempted)}
	return r, nil
}

// pass is one deployment serving one window of the workload.
type pass struct {
	times         []setupTimes
	measured      []sample
	before, after counters
	// tr and mir are set on a traced pass; mir on single-index ones.
	tr  *tracer
	mir *mirror
}

// measure sets the workload's topology up the given number of times,
// serves one window of o.seconds from the last deployment, and checks
// every answer into r. A traced pass serves a single index through the
// mirror and spans every request and the layer calls it makes.
func measure(o options, s spec, ds *dataset.Dataset, b *maxbrstknn.Builder, g *generator, work string, setups int, r *outcome) (*pass, error) {
	p := &pass{}
	var ss *shardSpans
	if o.trace {
		p.tr = newTracer()
		if s.Shards > 0 {
			ss = &shardSpans{tr: p.tr, reqOf: map[uint64]int64{}}
		}
	}
	mount := func(d *deployment) (http.Handler, error) {
		if s.Shards > 0 {
			var wrap func(http.Handler) http.Handler
			if ss != nil {
				wrap = ss.wrap
			}
			if err := d.serveShards(wrap); err != nil {
				return nil, err
			}
			coord, err := server.NewCoordinator(server.CoordinatorConfig{Shards: d.shardURLs})
			if err != nil {
				return nil, err
			}
			return coord.Handler(), nil
		}
		if p.tr != nil {
			p.mir = newMirror(d.index, p.tr)
			return p.mir, nil
		}
		return server.New(d.index, server.Config{}).Handler(), nil
	}

	// Set up several times; the last deployment serves the workload.
	var d *deployment
	for i := 0; i < setups; i++ {
		if d != nil {
			d.close()
			d = nil
		}
		var t setupTimes
		var err error
		if d, t, err = setUp(s, ds, b, work, mount); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		p.times = append(p.times, t)
	}
	defer d.close()

	oracle, err := b.Build(maxbrstknn.Options{})
	if err != nil {
		return nil, err
	}
	defer oracle.Close()

	conns := max(s.Clients, s.MaxInFlight)
	base, closeIdle := httpSender(d.url, conns)
	defer closeIdle()
	send := base
	if tr := p.tr; tr != nil {
		send = func(id int64, q *request, body []byte) (int, []byte, error) {
			if ss != nil {
				ss.register(q.Cohort, id)
			}
			start := time.Now()
			st, resp, err := base(id, q, body)
			tr.add(id, 0, "request."+q.Kind, start, time.Now())
			return st, resp, err
		}
	}

	// Warm-up: prepare the fixed cohorts (or a few fresh ones) so the
	// window starts with warm caches.
	var samples []sample
	for i, q := range g.warmups() {
		w := sample{ID: warmupID + int64(i), Req: q, Body: q.Body, Warmup: true}
		w.Sent = time.Now()
		w.Due = w.Sent
		w.Status, w.Resp, w.Err = send(w.ID, &w.Req, w.Body)
		w.Done = time.Now()
		samples = append(samples, w)
	}

	if p.before, err = readCounters(d, p.mir); err != nil {
		return nil, err
	}
	window := time.Duration(o.seconds) * time.Second
	if s.Loop == "open" {
		events, err := g.schedule(window)
		if err != nil {
			return nil, err
		}
		p.measured = openLoop(send, events, s.MaxInFlight)
	} else {
		streams := make([][]request, s.Clients)
		prepared := o.requests
		if prepared == 0 {
			// Enough for 25 ms requests; later ones are generated on
			// demand.
			prepared = o.seconds*40 + 16
		}
		for c := range streams {
			if streams[c], err = g.clientStream(c, prepared); err != nil {
				return nil, err
			}
		}
		if p.measured, err = closedLoop(send, streams, g.clientRequest, window, o.requests); err != nil {
			return nil, err
		}
	}
	if p.after, err = readCounters(d, p.mir); err != nil {
		return nil, err
	}
	samples = append(samples, p.measured...)

	// Answers.
	var chk *checkResult
	if s.Loop == "open" {
		chk = checkIngest(samples, oracle)
	} else {
		chk = checkQueries(samples, oracle)
	}
	r.Attempted += len(samples)
	r.Failed += len(chk.bad)
	r.Problems = append(r.Problems, chk.problems...)
	if s.Loop == "open" {
		r.endCheck(checkCompaction(d.index, g))
	}
	return p, nil
}

// warmups returns the requests sent before the window: one query per
// fixed cohort, or four fresh cohorts.
func (g *generator) warmups() []request {
	var out []request
	for c := 0; c < g.spec.Cohorts; c++ {
		out = append(out, g.pool[c*g.spec.LocationSets])
	}
	for i := 0; len(g.pool) == 0 && i < 4; i++ {
		r, err := g.clientRequest(-1, i)
		if err == nil {
			out = append(out, r)
		}
	}
	return out
}

// latencies returns the ms latencies of the answered samples of the
// given kinds.
func latencies(samples []sample, kinds ...string) []float64 {
	var out []float64
	for i := range samples {
		s := &samples[i]
		for _, k := range kinds {
			if s.Req.Kind == k && s.ok() {
				out = append(out, msOf(s.Latency()))
			}
		}
	}
	return out
}

func pctMetric(samples []float64, p float64) metric {
	v := percentile(samples, p)
	note := fmt.Sprintf("n=%d", len(samples))
	if v.Flagged() {
		note += fmt.Sprintf(", FLAGGED: only %d samples beyond p%v", v.Tail, p)
	}
	return metric{Value: v.Value, Unit: "ms", Note: note}
}

// endToEnd fills the end-to-end metrics from the measured window.
func (r *outcome) endToEnd(s spec, measured []sample, times []setupTimes) {
	var total, build, save, load, heap []float64
	for _, t := range times {
		total = append(total, t.total.Seconds())
		build = append(build, msOf(t.build))
		save = append(save, msOf(t.save))
		load = append(load, msOf(t.load))
		heap = append(heap, t.heapMB)
	}
	note := fmt.Sprintf("median of %d set-ups", len(times))
	r.E2E["setup_s"] = metric{Value: median(total), Unit: "s", Note: note}
	r.E2E["index_heap_mb"] = metric{Value: median(heap), Unit: "MB", Note: note}
	r.Layers["maxbrstknn.build_ms"] = metric{Value: median(build), Unit: "ms"}
	r.Layers["maxbrstknn.save_ms"] = metric{Value: median(save), Unit: "ms"}
	r.Layers["maxbrstknn.load_ms"] = metric{Value: median(load), Unit: "ms"}

	primary := s.primary()
	if len(measured) > 0 {
		t0 := measured[0].Due
		var bins [][]float64
		for i := range measured {
			m := &measured[i]
			if m.Req.Kind != primary || !m.ok() {
				continue
			}
			b := int(m.Due.Sub(t0) / time.Second)
			for len(bins) <= b {
				bins = append(bins, nil)
			}
			bins[b] = append(bins[b], msOf(m.Latency()))
		}
		for _, b := range bins {
			r.Timeline = append(r.Timeline, median(b))
		}
	}
	r.E2E["primary_p50_ms"] = pctMetric(latencies(measured, primary), 50)
	q := latencies(measured, kindQuery)
	r.E2E["query_p50_ms"] = pctMetric(q, 50)
	r.E2E["query_p95_ms"] = pctMetric(q, 95)
	if s.Loop == "closed" && len(measured) > 0 {
		first, last := measured[0].Sent, measured[0].Done
		for i := range measured {
			if measured[i].Sent.Before(first) {
				first = measured[i].Sent
			}
			if measured[i].Done.After(last) {
				last = measured[i].Done
			}
		}
		r.E2E["query_rps"] = metric{Value: float64(len(q)) / last.Sub(first).Seconds(), Unit: "1/s"}
	}
	if t := latencies(measured, kindTopK); len(t) > 0 {
		r.E2E["topk_p50_ms"] = pctMetric(t, 50)
		r.E2E["topk_p99_ms"] = pctMetric(t, 99)
	}
	if w := latencies(measured, kindAdd, kindDelete); len(w) > 0 {
		r.E2E["write_p50_ms"] = pctMetric(w, 50)
		r.E2E["write_p95_ms"] = pctMetric(w, 95)
	}
	if s.Loop == "open" {
		lags := make([]float64, len(measured))
		for i := range measured {
			lags[i] = msOf(measured[i].Lag())
		}
		r.Layers["loadgen.lag_p99_ms"] = pctMetric(lags, 99)
	}
}

// counters is a snapshot of the public work counters of a deployment.
type counters struct {
	simIO, decHits, decMisses, decEvict, pages int64
	sessHits, sessMisses                       int64
	epoch                                      uint64
	retiredPages                               int64
	wave1Visited, wave2Refined, scatterEval    int64
	thrHits, thrMisses                         int64
}

func getJSON(url string, into any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return json.Unmarshal(body, into)
}

func readCounters(d *deployment, mir *mirror) (counters, error) {
	var c counters
	indexes := []*maxbrstknn.Index{d.index}
	if d.index == nil {
		indexes = indexes[:0]
		for _, six := range d.shards {
			indexes = append(indexes, six.Index)
		}
	}
	for _, ix := range indexes {
		c.simIO += ix.SimulatedIO()
		cs := ix.CacheStats()
		c.decHits += cs.DecodedHits
		c.decMisses += cs.DecodedMisses
		c.decEvict += cs.DecodedEvictions
		_, pages := ix.ReadStats()
		c.pages += pages
		ing := ix.IngestStats()
		c.epoch += ing.Epoch
		c.retiredPages += ing.RetiredPages
	}
	switch {
	case d.shards != nil:
		var st server.CoordinatorStatsPayload
		if err := getJSON(d.url+"/stats", &st); err != nil {
			return c, err
		}
		c.wave1Visited, c.wave2Refined = st.Phase1.Wave1Visited, st.Phase1.Wave2Refined
		c.scatterEval = st.Scatter.Evaluated
		c.thrHits, c.thrMisses = st.ThresholdCache.Hits, st.ThresholdCache.Misses
	case mir != nil:
		// The mirror serves no /stats; a traced run reports the session
		// cache of its untraced half.
	default:
		var st server.StatsPayload
		if err := getJSON(d.url+"/stats", &st); err != nil {
			return c, err
		}
		c.sessHits, c.sessMisses = st.SessionCache.Hits, st.SessionCache.Misses
	}
	return c, nil
}

func ratio(a, b int64) float64 {
	if a+b == 0 {
		return 0
	}
	return float64(a) / float64(a+b)
}

// counters reports the window's work counters: raw totals (exactly
// repeatable for a single client) and, as layer metrics, per request.
func (r *outcome) counters(s spec, b, a counters, measured []sample) {
	n := float64(max(len(measured), 1))
	nq := 0
	for i := range measured {
		if measured[i].Req.Kind == kindQuery {
			nq++
		}
	}
	perQ := float64(max(nq, 1))
	for name, v := range map[string]int64{
		"storage.simulated_io": a.simIO - b.simIO, "storage.decoded_hits": a.decHits - b.decHits,
		"storage.decoded_misses": a.decMisses - b.decMisses, "storage.decoded_evictions": a.decEvict - b.decEvict,
		"storage.physical_pages": a.pages - b.pages,
		"irtree.epochs":          int64(a.epoch - b.epoch), "irtree.retired_pages": a.retiredPages,
		"coord.wave1_visited": a.wave1Visited - b.wave1Visited, "coord.wave2_refined": a.wave2Refined - b.wave2Refined,
		"coord.scatter_evaluated": a.scatterEval - b.scatterEval,
		"coord.threshold_hits":    a.thrHits - b.thrHits, "coord.threshold_misses": a.thrMisses - b.thrMisses,
		"requests": int64(len(measured)),
	} {
		r.Counters[name] = metric{Value: float64(v), Unit: "count"}
	}
	set := func(name string, v float64, unit string) { r.Layers[name] = metric{Value: v, Unit: unit} }
	set("storage.simulated_io", float64(a.simIO-b.simIO)/n, "count/req")
	set("storage.decoded_hit_rate", ratio(a.decHits-b.decHits, a.decMisses-b.decMisses), "ratio")
	set("storage.decoded_evictions", float64(a.decEvict-b.decEvict)/n, "count/req")
	set("storage.physical_pages", float64(a.pages-b.pages)/n, "count/req")
	set("irtree.epochs", float64(a.epoch-b.epoch), "count")
	set("irtree.retired_pages", float64(a.retiredPages), "count")
	if s.Shards > 0 {
		set("coord.wave1_visited", float64(a.wave1Visited-b.wave1Visited)/perQ, "count/req")
		set("coord.wave2_refined", float64(a.wave2Refined-b.wave2Refined)/perQ, "count/req")
		set("coord.scatter_evaluated", float64(a.scatterEval-b.scatterEval)/perQ, "count/req")
		set("coord.threshold_hit_rate", ratio(a.thrHits-b.thrHits, a.thrMisses-b.thrMisses), "ratio")
	}
}

// sessions reports the session cache over a pass's window. A traced
// single-index run takes them from its untraced half, the server's
// /stats, rather than from the mirror.
func (r *outcome) sessions(p *pass) {
	hits, misses := p.after.sessHits-p.before.sessHits, p.after.sessMisses-p.before.sessMisses
	r.Counters["server.session_hits"] = metric{Value: float64(hits), Unit: "count"}
	r.Counters["server.session_misses"] = metric{Value: float64(misses), Unit: "count"}
	r.Layers["server.session_hit_rate"] = metric{Value: ratio(hits, misses), Unit: "ratio"}
	r.Layers["server.session_misses"] = metric{Value: float64(misses) / float64(max(len(p.measured), 1)), Unit: "count/req"}
}

// replay re-runs phase 1 of the replayed cohorts on an identically
// built irtree, timing the traversal and the refinement, and requires
// the thresholds to equal the ones the facade session prepared.
func (r *outcome) replay(s spec, ds *dataset.Dataset, mir *mirror, tr *tracer) {
	var picked []phase1Miss
	for _, m := range mir.replay {
		if m.req >= warmupID || (s.Loop == "closed" && m.req&0xffffffff < replayPerClient) {
			picked = append(picked, m)
		}
	}
	if len(picked) == 0 {
		return
	}
	sort.Slice(picked, func(i, j int) bool { return picked[i].req < picked[j].req })
	rt := newReplayTree(ds)
	var trav, refine, visited, refined []float64
	for _, m := range picked {
		res, err := rt.run(m.users, s.K, m.thresholds)
		if err == nil && !res.match {
			err = fmt.Errorf("replay of request %d: thresholds differ from Session.Thresholds()", m.req)
		}
		r.endCheck(err)
		if err != nil {
			continue
		}
		tr.add(m.req, -1, "topk.traverse", res.t0, res.t1)
		tr.add(m.req, -1, "topk.refine", res.t1, res.t2)
		trav = append(trav, msOf(res.t1.Sub(res.t0)))
		refine = append(refine, msOf(res.t2.Sub(res.t1)))
		visited = append(visited, float64(res.visited))
		refined = append(refined, float64(res.refined))
	}
	r.Layers["topk.traverse_ms"] = metric{Value: mean(trav), Unit: "ms"}
	r.Layers["topk.refine_ms"] = metric{Value: mean(refine), Unit: "ms"}
	r.Layers["topk.visited_nodes"] = metric{Value: mean(visited), Unit: "count"}
	r.Layers["topk.refined_candidates"] = metric{Value: mean(refined), Unit: "count"}
	r.Counters["topk.visited_nodes"] = metric{Value: sum(visited), Unit: "count"}
	r.Counters["topk.refined_candidates"] = metric{Value: sum(refined), Unit: "count"}
	r.Counters["topk.replayed_cohorts"] = metric{Value: float64(len(visited)), Unit: "count"}
}

// traced is one request's root span and its layer spans, by name.
type traced struct {
	root   span
	kind   string
	layers map[string]time.Duration
	inner  time.Duration
}

func (t *traced) self() time.Duration { return t.root.dur() - t.inner }

// spanLayers derives the per-layer metrics from the window's spans;
// untraced holds the same workload's samples served by the real server.
func (r *outcome) spanLayers(s spec, spans []span, untraced []sample) {
	reqs := map[int64]*traced{}
	for _, sp := range spans {
		if sp.Parent == 0 && sp.ID < warmupID {
			reqs[sp.ID] = &traced{root: sp, kind: strings.TrimPrefix(sp.Name, "request."), layers: map[string]time.Duration{}}
		}
	}
	for _, sp := range spans {
		if t, ok := reqs[sp.Parent]; ok && sp.Parent > 0 {
			t.layers[sp.Name] += sp.dur()
			t.inner += sp.dur()
		}
	}
	byKind := map[string][]*traced{}
	overruns := 0
	for _, t := range reqs {
		byKind[t.kind] = append(byKind[t.kind], t)
		if t.inner > t.root.dur() {
			overruns++
		}
	}
	meanLayer := func(kind, layer string) float64 {
		var v []float64
		for _, t := range byKind[kind] {
			v = append(v, msOf(t.layers[layer]))
		}
		return mean(v)
	}
	primary := s.primary()
	set := func(name string, v float64) { r.Layers[name] = metric{Value: v, Unit: "ms"} }
	r.Layers["trace.overrun_requests"] = metric{Value: float64(overruns), Unit: "count"}
	if overruns > 0 {
		r.endCheck(fmt.Errorf("trace: %d requests have layer spans summing past their request span", overruns))
	}
	if s.Shards > 0 {
		set("coord.phase1_ms", meanLayer(kindQuery, "coord.phase1"))
		set("coord.phase2_ms", meanLayer(kindQuery, "coord.phase2"))
		var hop []float64
		for _, t := range byKind[kindQuery] {
			hop = append(hop, msOf(t.self()))
		}
		set("coord.hop_ms", mean(hop))
	} else {
		set("server.decode_ms", meanLayer(primary, "server.decode"))
		set("server.encode_ms", meanLayer(primary, "server.encode"))
		// The server's own HTTP and middleware time: a request's untraced
		// latency minus the sum of its layer spans when traced. Both
		// halves send the same request ids for the same requests, so each
		// request is set against itself; the metric is the median.
		untracedMs := map[int64]float64{}
		for i := range untraced {
			if u := &untraced[i]; u.Req.Kind == primary && u.ok() {
				untracedMs[u.ID] = msOf(u.Latency())
			}
		}
		var self []float64
		for _, t := range byKind[primary] {
			if u, ok := untracedMs[t.root.ID]; ok {
				self = append(self, u-msOf(t.inner))
			}
		}
		set("server.http_self_ms", median(self))
		set("topk.phase1_ms", meanLayer(kindQuery, "topk.phase1"))
		set("core.phase2_ms", meanLayer(kindQuery, "core.phase2"))
		set("irtree.add_ms", meanLayer(kindAdd, "irtree.add"))
		set("irtree.delete_ms", meanLayer(kindDelete, "irtree.delete"))
	}

	// Where each request type's time went, as shares of its request spans.
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		var total time.Duration
		parts := map[string]time.Duration{}
		for _, t := range byKind[k] {
			total += t.root.dur()
			parts["(unspanned)"] += t.self()
			for n, d := range t.layers {
				parts[n] += d
			}
		}
		names := make([]string, 0, len(parts))
		for n := range parts {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool { return parts[names[i]] > parts[names[j]] })
		line := fmt.Sprintf("%s (%d requests):", k, len(byKind[k]))
		for _, n := range names {
			line += fmt.Sprintf(" %s %.1f%%", n, 100*float64(parts[n])/float64(max(total, 1)))
		}
		r.Shares = append(r.Shares, line)
	}
}
