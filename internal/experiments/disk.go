package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/irtree"
	"repro/internal/persist"
	"repro/internal/storage"
	"repro/internal/textrel"
)

// diskWarmCache is the buffer-pool capacity (records) of the warm rows.
const diskWarmCache = 4096

// FigDisk measures disk-backed query serving against the in-memory
// substrate the paper's experiments simulate: the index is saved to a
// page-aligned file, then the full query (joint top-k preparation plus
// exact selection) runs against (a) the in-memory pager, (b) the index
// file served cold — no buffer pool, every node visit and inverted-file
// load is a physical read — and (c) the file behind an LRU buffer pool,
// first touch and then fully warm. Each row reports the real page reads
// the file served next to the simulated-I/O counter, which the cold row
// lets us cross-check: with no cache, every simulated charge corresponds
// to a physical record fetch.
//
// Every backend's selection is checked against the in-memory result; a
// mismatch is an error, making the byte-identical persistence guarantee
// part of the experiment itself.
func FigDisk(cfg Config) ([]*Table, error) {
	t := &Table{
		Title: "Disk — cold vs warm serving from the saved index file",
		Header: []string{"backend", "prep(ms)", "select(ms)", "sim I/O",
			"phys records", "phys pages", "pool hit/miss", "|BRSTkNN|"},
	}

	type point struct {
		prepMs, selMs         float64
		simIO                 int64
		physRecords, physPage int64
		hits, misses          int64
		count                 int
	}
	rows := []string{"in-memory", "disk cold", "disk first touch", "disk warm"}
	points := make([]point, len(rows))

	dir, err := os.MkdirTemp("", "maxbrstknn-disk-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	for run := 0; run < cfg.Runs; run++ {
		w := NewWorkload(cfg, run)
		q := w.Query()
		path := filepath.Join(dir, fmt.Sprintf("run%d.mxbr", run))
		if err := persist.Save(path, &persist.Index{
			Measure: cfg.Measure,
			Alpha:   cfg.Alpha, ExplicitAlpha: true,
			Lambda: textrel.DefaultLambda,
			Fanout: cfg.Fanout,
			DS:     w.DS,
			Tree:   w.MIR,
		}); err != nil {
			return nil, err
		}

		// measure runs one full query against a tree and accumulates the
		// deltas of every ledger into points[pi].
		var baseline core.Selection
		measure := func(pi int, tree *irtree.Tree, scorer *textrel.Scorer) error {
			tree.IO().Reset()
			ioBefore := storage.BackendReadStats(tree.Backend())
			hitsBefore, missesBefore := tree.CacheStats()

			e := core.NewEngine(tree, scorer, w.US.Users)
			start := time.Now()
			if err := e.PrepareJoint(cfg.K, w.parOpts()); err != nil {
				return err
			}
			points[pi].prepMs += float64(time.Since(start).Microseconds()) / 1000
			start = time.Now()
			sel, err := e.Select(q, core.KeywordsExact, w.parOpts())
			if err != nil {
				return err
			}
			points[pi].selMs += float64(time.Since(start).Microseconds()) / 1000

			ioAfter := storage.BackendReadStats(tree.Backend())
			hitsAfter, missesAfter := tree.CacheStats()
			points[pi].simIO += tree.IO().Total()
			points[pi].physRecords += ioAfter.Records - ioBefore.Records
			points[pi].physPage += ioAfter.Pages - ioBefore.Pages
			points[pi].hits += hitsAfter - hitsBefore
			points[pi].misses += missesAfter - missesBefore
			points[pi].count = sel.Count()

			if pi == 0 {
				baseline = sel
			} else if !reflect.DeepEqual(sel, baseline) {
				return fmt.Errorf("experiments: %s selected %+v, in-memory selected %+v (persistence broke determinism)",
					rows[pi], sel, baseline)
			}
			return nil
		}

		if err := measure(0, w.MIR, w.Scorer); err != nil {
			return nil, err
		}

		// Both loads disable the decoded-object cache: this figure measures
		// the byte-level ledgers (simulated I/O, physical reads, buffer
		// pool), and its cold cross-check requires every read to reach the
		// medium. The decoded cache has its own experiment (FigHotpath).
		cold, err := persist.Load(path, 0, 0)
		if err != nil {
			return nil, err
		}
		scorer := loadedScorer(cold, cfg, w)
		if err := measure(1, cold.Tree, scorer); err != nil {
			cold.Close()
			return nil, err
		}
		cold.Close()

		warm, err := persist.Load(path, diskWarmCache, 0)
		if err != nil {
			return nil, err
		}
		scorer = loadedScorer(warm, cfg, w)
		if err := measure(2, warm.Tree, scorer); err != nil { // first touch populates the pool
			warm.Close()
			return nil, err
		}
		if err := measure(3, warm.Tree, scorer); err != nil { // fully warm
			warm.Close()
			return nil, err
		}
		warm.Close()
	}

	runs := float64(cfg.Runs)
	for pi, name := range rows {
		p := points[pi]
		t.AddRow(
			name,
			f2(p.prepMs/runs), f2(p.selMs/runs),
			fmt.Sprint(p.simIO/int64(cfg.Runs)),
			fmt.Sprint(p.physRecords/int64(cfg.Runs)),
			fmt.Sprint(p.physPage/int64(cfg.Runs)),
			fmt.Sprintf("%d/%d", p.hits/int64(cfg.Runs), p.misses/int64(cfg.Runs)),
			fmt.Sprint(p.count),
		)
	}
	return []*Table{t}, nil
}

// loadedScorer rebuilds, over a loaded index, exactly the scorer the
// in-memory workload uses: the tree's own model (bit-identical by the
// persistence guarantee) with the query-extended dmax normalization.
func loadedScorer(ix *persist.Index, cfg Config, w *Workload) *textrel.Scorer {
	return &textrel.Scorer{
		Model: ix.Tree.Model(),
		Alpha: cfg.Alpha,
		DMax:  ix.DS.DMax(dataset.UsersMBR(w.US.Users), geo.MBR(w.Locs)),
	}
}
