package main

import (
	"bufio"
	"bytes"
	"container/list"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	maxbrstknn "repro"
	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/irtree"
	"repro/internal/server"
	"repro/internal/textrel"
	"repro/internal/topk"
	"repro/internal/vocab"
)

// span is one timed interval. A request's root span has ID == Req and
// Parent 0; the spans of the layers it called name it as Parent.
// Replayed phase-1 spans run after the window and have Parent -1.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. Times are
// nanoseconds since the tracer was made, on the monotonic clock.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

// Layer span ids count down from -2, so they never meet request ids.
func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.next.Store(-1)
	return t
}

func (t *tracer) add(req, parent int64, name string, start, end time.Time) {
	id := req
	if parent != 0 {
		id = t.next.Add(-1)
	}
	sp := span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// time runs f as a child span of request req.
func (t *tracer) time(req int64, name string, f func()) {
	start := time.Now()
	f()
	t.add(req, req, name, start, time.Now())
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range t.spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// usersKey hashes a cohort, so that spans and cached sessions can be
// tied to the cohort a request carried.
func usersKey(users []server.UserSpec) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, u := range users {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(u.X))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(u.Y))
		h.Write(b[:])
		for _, kw := range u.Keywords {
			h.Write([]byte(kw))
			h.Write([]byte{0})
		}
		h.Write([]byte{1})
	}
	return h.Sum64()
}

func requestID(r *http.Request) int64 {
	id, _ := strconv.ParseInt(r.Header.Get(requestIDHeader), 10, 64)
	return id
}

// phase1Miss is one cohort whose thresholds the traced handler
// computed, kept for the phase-1 replay.
type phase1Miss struct {
	req        int64
	users      []server.UserSpec
	thresholds []float64
}

// mirror serves the single-index endpoints the workloads use by calling
// the same public functions, in the same order, as the server's
// handlers, timing each call as a layer span. Its session cache follows
// the server's: keyed by (epoch, cohort, k), the same capacity, LRU
// eviction that spares sessions still being prepared, and concurrent
// misses on one key preparing once (TestMirrorSessionsMatchServer).
type mirror struct {
	ix *maxbrstknn.Index
	tr *tracer

	mu       sync.Mutex
	sessions map[sessionKey]*list.Element
	order    *list.List // front = most recently used; values are *sessionEntry
	hits     int64
	misses   int64
	// replay receives the cohorts prepared at epoch 0, for the phase-1
	// replay on an identically built tree.
	replay []phase1Miss
}

const mirrorSessionCapacity = 64 // the server's default

type sessionKey struct {
	epoch  uint64
	cohort uint64
	k      int
}

type sessionEntry struct {
	key   sessionKey
	ready chan struct{} // closed once sess and err are set
	done  bool          // set under mu once preparation finished
	sess  *maxbrstknn.Session
	err   error
}

func newMirror(ix *maxbrstknn.Index, tr *tracer) *mirror {
	return &mirror{ix: ix, tr: tr, sessions: map[sessionKey]*list.Element{}, order: list.New()}
}

func (m *mirror) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := requestID(r)
	var body []byte
	var err error
	switch r.URL.Path {
	case "/healthz":
		body = []byte("{\"status\":\"ok\"}\n")
	case "/maxbrstknn":
		body, err = m.query(id, r.Body)
	case "/topk":
		body, err = m.topk(id, r.Body)
	case "/add", "/delete":
		body, err = m.mutate(id, r.URL.Path, r.Body)
	default:
		err = fmt.Errorf("%s is not mirrored", r.URL.Path)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

func (m *mirror) query(id int64, rb io.Reader) ([]byte, error) {
	var wire server.QueryRequest
	var req maxbrstknn.Request
	var err error
	m.tr.time(id, "server.decode", func() {
		if err = json.NewDecoder(rb).Decode(&wire); err == nil {
			req, err = wire.ToRequest()
		}
	})
	if err != nil {
		return nil, err
	}
	sess, err := m.session(id, wire.Users, req)
	if err != nil {
		return nil, err
	}
	var res maxbrstknn.Result
	m.tr.time(id, "core.phase2", func() { res, err = sess.Run(req) })
	if err != nil {
		return nil, err
	}
	var out []byte
	m.tr.time(id, "server.encode", func() { out, err = server.ResultJSON(res) })
	return out, err
}

// session returns the cohort's prepared session, preparing it (the
// phase-1 span) on a miss. An evicted session is left to its GC cleanup,
// as in the server.
func (m *mirror) session(id int64, users []server.UserSpec, req maxbrstknn.Request) (*maxbrstknn.Session, error) {
	key := sessionKey{m.ix.Epoch(), usersKey(users), req.K}
	m.mu.Lock()
	if el, ok := m.sessions[key]; ok {
		m.hits++
		m.order.MoveToFront(el)
		e := el.Value.(*sessionEntry)
		m.mu.Unlock()
		<-e.ready
		return e.sess, e.err
	}
	m.misses++
	e := &sessionEntry{key: key, ready: make(chan struct{})}
	el := m.order.PushFront(e)
	m.sessions[key] = el
	m.evictLocked()
	m.mu.Unlock()

	e.sess, e.err = m.prepare(id, key.epoch, users, req)
	m.mu.Lock()
	e.done = true
	if e.err != nil {
		if cur, ok := m.sessions[key]; ok && cur == el {
			m.order.Remove(el)
			delete(m.sessions, key)
		}
	} else {
		m.evictLocked()
	}
	m.mu.Unlock()
	close(e.ready)
	return e.sess, e.err
}

// evictLocked trims the cache to capacity from the least recently used
// end, never evicting a session still being prepared.
func (m *mirror) evictLocked() {
	for el := m.order.Back(); el != nil && m.order.Len() > mirrorSessionCapacity; {
		prev := el.Prev()
		if e := el.Value.(*sessionEntry); e.done {
			m.order.Remove(el)
			delete(m.sessions, e.key)
		}
		el = prev
	}
}

// prepare runs phase 1 for a cohort as one span, and keeps the cohorts
// prepared at epoch 0 for the replay.
func (m *mirror) prepare(id int64, epoch uint64, users []server.UserSpec, req maxbrstknn.Request) (*maxbrstknn.Session, error) {
	start := time.Now()
	sess, err := m.ix.NewParallelSession(req.Users, req.K, req.Parallel)
	m.tr.add(id, id, "topk.phase1", start, time.Now())
	if err == nil && epoch == 0 && m.ix.Epoch() == 0 {
		m.mu.Lock()
		m.replay = append(m.replay, phase1Miss{req: id, users: users, thresholds: sess.Thresholds()})
		m.mu.Unlock()
	}
	return sess, err
}

func (m *mirror) topk(id int64, rb io.Reader) ([]byte, error) {
	var wire server.TopKRequest
	var err error
	m.tr.time(id, "server.decode", func() { err = json.NewDecoder(rb).Decode(&wire) })
	if err != nil {
		return nil, err
	}
	var res []maxbrstknn.RankedObject
	m.tr.time(id, "index.topk", func() { res, err = m.ix.TopK(wire.X, wire.Y, wire.Keywords, wire.K) })
	if err != nil {
		return nil, err
	}
	var out []byte
	m.tr.time(id, "server.encode", func() { out, err = server.TopKJSON(res) })
	return out, err
}

func (m *mirror) mutate(id int64, path string, rb io.Reader) ([]byte, error) {
	var add server.AddRequest
	var del server.DeleteRequest
	var err error
	m.tr.time(id, "server.decode", func() {
		if path == "/add" {
			err = json.NewDecoder(rb).Decode(&add)
		} else {
			err = json.NewDecoder(rb).Decode(&del)
		}
	})
	if err != nil {
		return nil, err
	}
	objID := del.ID
	if path == "/add" {
		m.tr.time(id, "irtree.add", func() { objID, err = m.ix.AddObject(add.X, add.Y, add.Keywords...) })
	} else {
		m.tr.time(id, "irtree.delete", func() { err = m.ix.DeleteObject(del.ID) })
	}
	if err != nil {
		return nil, err
	}
	var out []byte
	m.tr.time(id, "server.encode", func() { out, err = mutationJSON(objID, m.ix.IngestStats()) })
	return out, err
}

// mutationJSON is the server's mutation response body.
func mutationJSON(id int, st maxbrstknn.IngestStats) ([]byte, error) {
	b, err := json.Marshal(server.MutationResponse{ID: id, Epoch: st.Epoch, LiveObjects: st.LiveObjects})
	return append(b, '\n'), err
}

// shardSpans wraps a shard server's handler: each phase-1 or select call
// becomes a span of the client request whose cohort it carries (the
// coordinator does not forward request ids, so the cohort ties them).
type shardSpans struct {
	tr *tracer
	mu sync.Mutex
	// reqOf maps a cohort to the request that carried it; cohorts are
	// fresh per request on the sharded workload.
	reqOf map[uint64]int64
}

func (ss *shardSpans) register(cohort uint64, req int64) {
	ss.mu.Lock()
	ss.reqOf[cohort] = req
	ss.mu.Unlock()
}

func (ss *shardSpans) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var name string
		switch r.URL.Path {
		case "/shard/phase1":
			name = "coord.phase1"
		case "/shard/select":
			name = "coord.phase2"
		default:
			h.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var users struct {
			Users []server.UserSpec `json:"users"`
			Query struct {
				Users []server.UserSpec `json:"users"`
			} `json:"query"`
		}
		var req int64
		ok := json.Unmarshal(body, &users) == nil
		if ok {
			cohort := users.Users
			if name == "coord.phase2" {
				cohort = users.Query.Users
			}
			ss.mu.Lock()
			req, ok = ss.reqOf[usersKey(cohort)]
			ss.mu.Unlock()
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		ss.tr.time(req, name, func() { h.ServeHTTP(w, r) })
	})
}

// replayTree re-runs phase 1 from outside the facade: the super-user
// traversal and the per-user refinement on an irtree built exactly as
// Builder.Build builds the served one.
type replayTree struct {
	ds    *dataset.Dataset
	model textrel.Model
	tree  *irtree.Tree
}

func newReplayTree(ds *dataset.Dataset) *replayTree {
	model := textrel.NewModelWithLambda(textrel.LM, ds, textrel.DefaultLambda)
	tree := irtree.Build(ds, model, irtree.Config{
		Kind: irtree.MIRTree, Fanout: 32, DecodedCacheBytes: maxbrstknn.DefaultDecodedCacheBytes,
	})
	return &replayTree{ds: ds, model: model, tree: tree}
}

// replayResult is one cohort's replayed phase 1.
type replayResult struct {
	// t0..t1 is the traversal, t1..t2 the refinement.
	t0, t1, t2       time.Time
	visited, refined int
	// match reports whether every user's replayed RSk equals the
	// threshold the facade session prepared.
	match bool
}

func (rt *replayTree) run(users []server.UserSpec, k int, want []float64) (replayResult, error) {
	var out replayResult
	dsUsers := make([]dataset.User, len(users))
	for i, u := range users {
		terms := make([]vocab.TermID, len(u.Keywords))
		for j, kw := range u.Keywords {
			id, ok := rt.ds.Vocab.Lookup(kw)
			if !ok {
				return out, fmt.Errorf("replay: user keyword %q is not in the vocabulary", kw)
			}
			terms[j] = id
		}
		dsUsers[i] = dataset.User{ID: int32(i), Loc: geo.Point{X: u.X, Y: u.Y}, Doc: vocab.DocFromTerms(terms)}
	}
	scorer := &textrel.Scorer{Model: rt.model, Alpha: 0.5, DMax: rt.ds.DMax(dataset.UsersMBR(dsUsers))}
	t0 := time.Now()
	su := topk.BuildSuperUser(dsUsers, scorer)
	var sc topk.TraverseScratch
	trav, err := topk.TraverseWith(rt.tree, scorer, su, k, &sc)
	if err != nil {
		return out, err
	}
	t1 := time.Now()
	norms := scorer.UserNorms(dsUsers)
	per := topk.IndividualTopKWith(rt.ds, scorer, dsUsers, norms, trav, topk.NewRefineIndex(trav), k)
	t2 := time.Now()
	out.t0, out.t1, out.t2, out.visited = t0, t1, t2, trav.Visited
	out.match = len(per) == len(want)
	for i := range per {
		out.refined += per[i].Scored
		if out.match && per[i].RSk != want[i] {
			out.match = false
		}
	}
	return out, nil
}
