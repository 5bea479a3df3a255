package lint

import (
	"go/ast"
	"strings"
	"testing"
)

// TestSuiteCleanOnTree runs the full analyzer suite over the real module
// and requires zero diagnostics — the same gate `make lint` and CI apply.
// Every deviation from an invariant must carry a reasoned //maxbr:ignore
// or be fixed; there is no baseline file to hide behind.
func TestSuiteCleanOnTree(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	loader := moduleLoader(t)
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; the module walk is broken", len(pkgs))
	}
	for _, pkg := range pkgs {
		for _, d := range RunAnalyzers(pkg, Analyzers()) {
			t.Errorf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
		}
	}
}

// TestSessionCallSitesAudited is the pinpair-driven audit the session
// lifecycle relies on: every NewSession / NewParallelSession call site in
// the binaries, the server, the experiments, and the examples either
// closes its session or deliberately hands it off (returns it, stores it
// in the cache). The test first proves the audit is not vacuous — the
// call sites it is about must exist — then requires pinpair to pass.
func TestSessionCallSitesAudited(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks several packages; skipped in -short")
	}
	loader := moduleLoader(t)
	pkgs, err := loader.Load("./cmd/...", "./internal/server/...", "./internal/experiments/...", "./examples/...")
	if err != nil {
		t.Fatalf("loading audit packages: %v", err)
	}

	callSites := 0
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(pkg.Info, call)
				if matchesFunc(fn, "repro", "Index", "NewSession") ||
					matchesFunc(fn, "repro", "Index", "NewParallelSession") {
					callSites++
				}
				return true
			})
		}
	}
	if callSites == 0 {
		t.Fatal("audit found no NewSession/NewParallelSession call sites; the pattern list is stale")
	}
	t.Logf("auditing %d session call sites across %d packages", callSites, len(pkgs))

	for _, pkg := range pkgs {
		for _, d := range RunAnalyzers(pkg, []*Analyzer{AnalyzerPinPair}) {
			t.Errorf("unreleased acquisition at %s: %s", d.Pos, d.Message)
		}
	}
}

// TestHotPathAnnotationsPresent pins the //maxbr:hotpath coverage: the
// named per-query inner loops must stay annotated, so deleting the
// directive (and with it the allocation gate) cannot happen silently.
func TestHotPathAnnotationsPresent(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks several packages; skipped in -short")
	}
	loader := moduleLoader(t)
	pkgs, err := loader.Load("./internal/invfile", "./internal/topk", "./internal/core")
	if err != nil {
		t.Fatalf("loading packages: %v", err)
	}
	annotated := map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, fd := range hotpathFuncs(f) {
				annotated[strings.TrimPrefix(pkg.PkgPath, "repro/internal/")+"."+fd.Name.Name] = true
			}
		}
	}
	for _, want := range []string{
		"invfile.SumsInto",
		"invfile.DecodeSumsInto",
		"invfile.SumsBounded",
		"topk.TraverseWith",
		"topk.refineUser",
		"core.scanUnit",
		"core.countCombo",
	} {
		if !annotated[want] {
			t.Errorf("%s lost its //maxbr:hotpath annotation", want)
		}
	}
}
