package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/topk"
)

// AblationMinWeights isolates the value of the MIR-tree's minimum weights
// (the lower bounds of Section 5.3) by running the joint traversal against
// the plain IR-tree, whose stored minima are all zero: the traversal stays
// correct but the looser lower bounds weaken RSk(us) and pruning.
func AblationMinWeights(cfg Config) (*Table, error) {
	t := &Table{
		Title:  "Ablation — MIR-tree min weights vs IR-tree (joint traversal)",
		Header: []string{"index", "I/O", "candidates", "ms"},
	}
	for run := 0; run < cfg.Runs; run++ {
		w := NewWorkload(cfg, run)
		su := topk.BuildSuperUser(w.US.Users, w.Scorer)

		w.MIR.IO().Reset()
		start := time.Now()
		trM, err := topk.TraverseWith(w.MIR, w.Scorer, su, cfg.K, &topk.TraverseScratch{})
		if err != nil {
			return nil, err
		}
		msM := float64(time.Since(start).Microseconds()) / 1000
		ioM := w.MIR.IO().Total()

		w.IR.IO().Reset()
		start = time.Now()
		trI, err := topk.TraverseWith(w.IR, w.Scorer, su, cfg.K, &topk.TraverseScratch{})
		if err != nil {
			return nil, err
		}
		msI := float64(time.Since(start).Microseconds()) / 1000
		ioI := w.IR.IO().Total()

		t.AddRow(fmt.Sprintf("MIR (run %d)", run), d(ioM), fmt.Sprint(len(trM.Candidates())), f1(msM))
		t.AddRow(fmt.Sprintf("IR  (run %d)", run), d(ioI), fmt.Sprint(len(trI.Candidates())), f1(msI))
	}
	return t, nil
}

// AblationSuperUser isolates the value of grouping users behind the
// super-user: the same MIR-tree is traversed once jointly versus once per
// user.
func AblationSuperUser(cfg Config) (*Table, error) {
	t := &Table{
		Title:  "Ablation — super-user grouping (shared vs per-user traversal)",
		Header: []string{"strategy", "total I/O", "total ms"},
	}
	var sharedIO, perUserIO int64
	var sharedMs, perUserMs float64
	for run := 0; run < cfg.Runs; run++ {
		w := NewWorkload(cfg, run)
		j, err := w.MeasureJointTopK()
		if err != nil {
			return nil, err
		}
		sharedIO += j.TotalIO
		sharedMs += j.TotalMillis

		w.MIR.IO().Reset()
		start := time.Now()
		if _, err := topk.BaselineTopK(w.MIR, w.Scorer, w.US.Users, cfg.K); err != nil {
			return nil, err
		}
		perUserMs += float64(time.Since(start).Microseconds()) / 1000
		perUserIO += w.MIR.IO().Total()
	}
	runs := int64(cfg.Runs)
	t.AddRow("joint (super-user)", d(sharedIO/runs), f1(sharedMs/float64(cfg.Runs)))
	t.AddRow("per-user on MIR-tree", d(perUserIO/runs), f1(perUserMs/float64(cfg.Runs)))
	return t, nil
}

// AblationBestFirst isolates Algorithm 3's best-first location ordering and
// early termination against processing locations in their given order.
func AblationBestFirst(cfg Config) (*Table, error) {
	t := &Table{
		Title:  "Ablation — Algorithm 3 best-first location ordering",
		Header: []string{"strategy", "mean ms", "count"},
	}
	var bfMs, scanMs float64
	var bfCount, scanCount int
	for run := 0; run < cfg.Runs; run++ {
		w := NewWorkload(cfg, run)
		e, err := w.PreparedEngine()
		if err != nil {
			return nil, err
		}
		q := w.Query()

		start := time.Now()
		selBF, err := e.Select(q, core.KeywordsApprox, core.ParallelOptions{})
		if err != nil {
			return nil, err
		}
		bfMs += float64(time.Since(start).Microseconds()) / 1000
		bfCount += selBF.Count()

		start = time.Now()
		selScan, err := e.SelectNoBestFirst(q, core.KeywordsApprox)
		if err != nil {
			return nil, err
		}
		scanMs += float64(time.Since(start).Microseconds()) / 1000
		scanCount += selScan.Count()

		if selBF.Count() != selScan.Count() {
			return nil, fmt.Errorf("ablation changed the answer: %d vs %d", selBF.Count(), selScan.Count())
		}
	}
	t.AddRow("best-first", f2(bfMs/float64(cfg.Runs)), fmt.Sprint(bfCount/cfg.Runs))
	t.AddRow("given order", f2(scanMs/float64(cfg.Runs)), fmt.Sprint(scanCount/cfg.Runs))
	return t, nil
}
