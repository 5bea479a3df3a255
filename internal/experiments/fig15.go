package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/miurtree"
	"repro/internal/storage"
	"repro/internal/textrel"
	"repro/internal/vocab"
)

// Fig15 — the user-index experiment of Section 7 / Figure 15: total
// simulated I/O with and without the MIUR-tree, and the percentage of
// users whose top-k computation was avoided.
//
// The un-indexed side reads the whole user set into memory (charged as a
// flat 4 kB-block file, per the paper's "we need to read all the users into
// memory") and runs the joint top-k for everyone. The indexed side reads
// only the MIUR-tree nodes the best-first expansion touches and resolves
// only the surviving users.
func Fig15(cfg Config, us []int) ([]*Table, error) {
	if len(us) == 0 {
		us = []int{500, 1000, 2000, 4000}
	}
	// The hierarchy can only prune when users are genuinely hard to win.
	// Under the permissive LM defaults (smoothing floors + short-document
	// advantage) virtually every user is winnable — the exact counts
	// confirm it — so nothing prunes. Fig 15 therefore runs the selective
	// workload: keyword-overlap relevance, k=1, one keyword, candidate
	// locations concentrated inside the user region, users spread wide.
	cfg.Measure = textrel.KO
	cfg.K = 1
	cfg.WS = 1
	cfg.Area = 20
	cfg.Alpha = 0.9 // spatially selective: distant user clusters can prune
	cfg.LocMargin = -cfg.Area / 2.5
	cfg.Fanout = 16
	t := &Table{
		Title:  "Fig 15 — user index (Section 7; selective workload: KO, k=1, ws=1, sparse users)",
		Header: []string{"|U|", "Un-indexed I/O", "Indexed I/O", "Users pruned (%)", "Indexed(ms)"},
	}
	for _, nu := range us {
		c := cfg
		c.NumUsers = nu
		var unIO, inIO int64
		var pruned, inMs float64
		for run := 0; run < c.Runs; run++ {
			w := NewWorkload(c, run)

			// Un-indexed: flat user file read + joint top-k I/O.
			w.MIR.IO().Reset()
			e, err := w.PreparedEngine()
			if err != nil {
				return nil, err
			}
			if _, err := e.Select(w.Query(), core.KeywordsApprox, core.ParallelOptions{}); err != nil {
				return nil, err
			}
			unIO += w.MIR.IO().Total() + int64(userFileBlocks(w))

			// Indexed: MIUR-tree-driven processing.
			ut := miurtree.Build(w.US.Users, w.Scorer, c.Fanout)
			w.MIR.IO().Reset()
			ut.IO().Reset()
			engine := core.NewEngine(w.MIR, w.Scorer, w.US.Users)
			start := time.Now()
			_, stats, err := engine.SelectUserIndexed(w.Query(), core.KeywordsApprox, ut)
			if err != nil {
				return nil, err
			}
			inMs += float64(time.Since(start).Microseconds()) / 1000
			inIO += w.MIR.IO().Total() + ut.IO().Total()
			pruned += stats.PrunedPercent()
		}
		runs := int64(c.Runs)
		t.AddRow(fmt.Sprint(nu), d(unIO/runs), d(inIO/runs), f1(pruned/float64(c.Runs)), f1(inMs/float64(c.Runs)))
	}
	return []*Table{t}, nil
}

// userFileBlocks returns the 4 kB blocks a flat serialization of the user
// set occupies — the cost of "reading all users into memory".
func userFileBlocks(w *Workload) int {
	var buf []byte
	for _, u := range w.US.Users {
		buf = storage.AppendFloat64(buf, u.Loc.X)
		buf = storage.AppendFloat64(buf, u.Loc.Y)
		buf = storage.AppendUvarint(buf, uint64(u.Doc.Unique()))
		prev := vocab.TermID(0)
		for _, tm := range u.Doc.Terms() {
			buf = storage.AppendUvarint(buf, uint64(tm-prev))
			prev = tm
		}
	}
	return (len(buf) + storage.PageSize - 1) / storage.PageSize
}
