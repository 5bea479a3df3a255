package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"reflect"
	"sync"

	maxbrstknn "repro"
	"repro/internal/server"
)

// expectQuery is the byte-exact answer the server owes a /maxbrstknn
// body: ResultJSON of Session.Run on the oracle index.
func expectQuery(ix *maxbrstknn.Index, body []byte) ([]byte, error) {
	var wire server.QueryRequest
	if err := json.Unmarshal(body, &wire); err != nil {
		return nil, err
	}
	req, err := wire.ToRequest()
	if err != nil {
		return nil, err
	}
	sess, err := ix.NewParallelSession(req.Users, req.K, req.Parallel)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	res, err := sess.Run(req)
	if err != nil {
		return nil, err
	}
	return server.ResultJSON(res)
}

// expectTopK is the byte-exact answer the server owes a /topk body.
func expectTopK(ix *maxbrstknn.Index, body []byte) ([]byte, error) {
	var wire server.TopKRequest
	if err := json.Unmarshal(body, &wire); err != nil {
		return nil, err
	}
	res, err := ix.TopK(wire.X, wire.Y, wire.Keywords, wire.K)
	if err != nil {
		return nil, err
	}
	return server.TopKJSON(res)
}

func mutationID(resp []byte) (int, error) {
	var m server.MutationResponse
	err := json.Unmarshal(resp, &m)
	return m.ID, err
}

func bodyKey(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// checkResult is the verdict on one run's answers.
type checkResult struct {
	// bad marks the samples that failed: non-2xx, transport error or a
	// wrong answer.
	bad      map[int]bool
	problems []string
}

func (c *checkResult) fail(i int, format string, args ...any) {
	if !c.bad[i] && len(c.problems) < 8 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
	c.bad[i] = true
}

func newCheck(samples []sample) *checkResult {
	c := &checkResult{bad: map[int]bool{}}
	for i := range samples {
		if s := &samples[i]; !s.ok() {
			c.fail(i, "%s request %d: status %d, error %v: %s", s.Req.Kind, s.ID, s.Status, s.Err, bytes.TrimSpace(s.Resp))
		}
	}
	return c
}

// checkQueries byte-compares every answered /maxbrstknn response with
// the oracle's, computing each distinct body's answer once on two
// goroutines. The oracle is an in-memory build of the same objects, so
// this also checks save, load and (sharded) the scatter-gather merge.
func checkQueries(samples []sample, oracle *maxbrstknn.Index) *checkResult {
	c := newCheck(samples)
	byBody := map[uint64][]int{}
	var keys []uint64
	for i := range samples {
		if samples[i].Req.Kind != kindQuery || c.bad[i] {
			continue
		}
		k := bodyKey(samples[i].Body)
		if _, ok := byBody[k]; !ok {
			keys = append(keys, k)
		}
		byBody[k] = append(byBody[k], i)
	}
	want := make([][]byte, len(keys))
	errs := make([]error, len(keys))
	var wg sync.WaitGroup
	const workers = 2
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := w; j < len(keys); j += workers {
				want[j], errs[j] = expectQuery(oracle, samples[byBody[keys[j]][0]].Body)
			}
		}(w)
	}
	wg.Wait()
	for j, k := range keys {
		for _, i := range byBody[k] {
			switch {
			case errs[j] != nil:
				c.fail(i, "query %d: oracle: %v", samples[i].ID, errs[j])
			case !bytes.Equal(samples[i].Resp, want[j]):
				c.fail(i, "query %d: answer differs from the oracle:\n got %s\nwant %s",
					samples[i].ID, bytes.TrimSpace(samples[i].Resp), bytes.TrimSpace(want[j]))
			}
		}
	}
	return c
}

// checkIngest verifies an open-loop run against an oracle index that
// replays the run's mutations in the order the server published them.
// Each read must equal the oracle's answer at some epoch inside its
// [EpochLo, EpochHi] window, and each mutation's response must report
// the id, epoch and live count the oracle reaches.
func checkIngest(samples []sample, oracle *maxbrstknn.Index) *checkResult {
	c := newCheck(samples)
	var reads, muts []int
	for i := range samples {
		if c.bad[i] {
			continue
		}
		if isMutation(samples[i].Req.Kind) {
			muts = append(muts, i)
		} else {
			reads = append(reads, i)
		}
	}
	matched := map[int]bool{}
	checkAt := func(epoch int) {
		for _, i := range reads {
			s := &samples[i]
			if matched[i] || epoch < s.EpochLo || epoch > s.EpochHi {
				continue
			}
			var want []byte
			var err error
			if s.Req.Kind == kindTopK {
				want, err = expectTopK(oracle, s.Body)
			} else {
				want, err = expectQuery(oracle, s.Body)
			}
			if err == nil && bytes.Equal(s.Resp, want) {
				matched[i] = true
			}
		}
	}
	checkAt(0)
	for e, i := range muts {
		s := &samples[i]
		var id int
		var err error
		if s.Req.Kind == kindAdd {
			var add server.AddRequest
			if err = json.Unmarshal(s.Body, &add); err == nil {
				id, err = oracle.AddObject(add.X, add.Y, add.Keywords...)
			}
		} else {
			var del server.DeleteRequest
			if err = json.Unmarshal(s.Body, &del); err == nil {
				id, err = del.ID, oracle.DeleteObject(del.ID)
			}
		}
		if err != nil {
			c.fail(i, "%s %d: oracle: %v", s.Req.Kind, s.ID, err)
			continue
		}
		want, err := mutationJSON(id, oracle.IngestStats())
		if err != nil || !bytes.Equal(s.Resp, want) {
			c.fail(i, "%s %d: response %s, oracle %s", s.Req.Kind, s.ID, bytes.TrimSpace(s.Resp), bytes.TrimSpace(want))
		}
		checkAt(e + 1)
	}
	for _, i := range reads {
		if !matched[i] {
			s := &samples[i]
			c.fail(i, "%s %d: answer matches the oracle at no epoch in [%d, %d]: %s",
				s.Req.Kind, s.ID, s.EpochLo, s.EpochHi, bytes.TrimSpace(s.Resp))
		}
	}
	return c
}

// checkCompaction is the check the ingest experiment ends with: the
// mutated index must answer exactly as a batch rebuild over its live
// objects — top-k scores at every rank for every cohort user, and every
// strategy's MaxBRSTkNN answer for every cohort.
func checkCompaction(ix *maxbrstknn.Index, g *generator) error {
	compact, err := ix.Compact()
	if err != nil {
		return err
	}
	defer compact.Close()
	if compact.NumObjects() != ix.NumObjects() {
		return fmt.Errorf("compaction: rebuild has %d objects, mutated index %d", compact.NumObjects(), ix.NumObjects())
	}
	s := g.spec
	for ci, co := range g.cohorts {
		wire := server.QueryRequest{
			Users: co.users, Locations: co.locations(s.L, mix(g.seed, streamLocations, int64(ci), 0)),
			Keywords: co.keywords, MaxKeywords: s.WS, K: s.K,
		}
		req, err := wire.ToRequest()
		if err != nil {
			return err
		}
		for ui, u := range req.Users {
			a, err := ix.TopK(u.X, u.Y, u.Keywords, s.K)
			if err != nil {
				return err
			}
			b, err := compact.TopK(u.X, u.Y, u.Keywords, s.K)
			if err != nil {
				return err
			}
			if len(a) != len(b) {
				return fmt.Errorf("compaction: cohort %d user %d: %d results, rebuild %d", ci, ui, len(a), len(b))
			}
			for r := range a {
				if a[r].Score != b[r].Score {
					return fmt.Errorf("compaction: cohort %d user %d rank %d: score %v, rebuild %v", ci, ui, r, a[r].Score, b[r].Score)
				}
			}
		}
		for _, strat := range []maxbrstknn.Strategy{maxbrstknn.Exact, maxbrstknn.Approx, maxbrstknn.Exhaustive, maxbrstknn.UserIndexed} {
			req.Strategy = strat
			a, err := ix.MaxBRSTkNN(req)
			if err != nil {
				return err
			}
			b, err := compact.MaxBRSTkNN(req)
			if err != nil {
				return err
			}
			// Pruning statistics follow the tree's shape; the answer may not.
			a.Stats, b.Stats = maxbrstknn.PruningStats{}, maxbrstknn.PruningStats{}
			if !reflect.DeepEqual(a, b) {
				return fmt.Errorf("compaction: cohort %d %v: answer %+v, rebuild %+v", ci, strat, a, b)
			}
		}
	}
	return nil
}
