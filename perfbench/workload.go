package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/dataset"
	"repro/internal/indexutil"
	"repro/internal/server"
	"repro/internal/vocab"
)

// Request kinds, named after the endpoint they hit.
const (
	kindQuery  = "maxbrstknn"
	kindTopK   = "topk"
	kindAdd    = "add"
	kindDelete = "delete"
)

// Shared request parameters: every query asks for k=10 under the LM
// measure (the index default), with three keywords per user and
// candidate locations drawn from the cohort region widened by 1.75.
const (
	topK          = 10
	userKeywords  = 3
	cohortArea    = 5.0
	locMargin     = 1.75
	fullObjects   = 20000
	tinyObjects   = 2000
	defaultSetups = 7
)

// spec is one workload's parameters. Everything a run does follows from
// a spec and the seed; the spec is printed with every result.
type spec struct {
	Name    string `json:"name"`
	Loop    string `json:"loop"` // "closed" or "open"
	Objects int    `json:"objects"`
	// Clients is the closed-loop client count (one connection each).
	Clients int `json:"clients,omitempty"`
	// Cohorts > 0 fixes that many user cohorts, each with LocationSets
	// candidate-location sets; Cohorts == 0 draws a fresh cohort for
	// every request.
	Cohorts      int    `json:"cohorts"`
	LocationSets int    `json:"location_sets,omitempty"`
	CohortUsers  int    `json:"cohort_users"`
	L            int    `json:"l"`
	W            int    `json:"w"`
	WS           int    `json:"ws"`
	K            int    `json:"k"`
	Strategy     string `json:"strategy"`
	// DecodedCacheBytes is the decoded-cache budget the served index is
	// loaded with (0: the library default, 64 MiB).
	DecodedCacheBytes int64 `json:"decoded_cache_bytes"`
	// Shards > 0 serves the data through that many spatial shards behind
	// a coordinator instead of one index.
	Shards int `json:"shards,omitempty"`
	// Open-loop rates in requests per second, and the in-flight cap.
	TopKRate    float64 `json:"topk_rate,omitempty"`
	AddRate     float64 `json:"add_rate,omitempty"`
	DeleteRate  float64 `json:"delete_rate,omitempty"`
	QueryRate   float64 `json:"query_rate,omitempty"`
	MaxInFlight int     `json:"max_in_flight,omitempty"`
	// Setups is how many times set-up is repeated; setup_s is the median.
	Setups int `json:"setups"`
}

// primary is the request type a workload is mostly made of: /topk on
// the open loop, /maxbrstknn elsewhere.
func (s spec) primary() string {
	if s.Loop == "open" {
		return kindTopK
	}
	return kindQuery
}

// workloadNames lists the workloads, in BENCHMARK.json's order.
var workloadNames = []string{"select-warm", "cohort-cold", "ingest-mixed", "sharded-cold"}

// specFor returns a workload's spec at full scale, or at tiny scale (a
// tenth of the objects and smaller cohorts) for tests and smoke runs.
func specFor(name string, tiny bool) (spec, error) {
	objects, users := fullObjects, 1
	if tiny {
		objects, users = tinyObjects, 4
	}
	var s spec
	switch name {
	case "select-warm":
		s = spec{Loop: "closed", Clients: 2, Cohorts: 32, LocationSets: 2, CohortUsers: 100,
			L: 20, W: 12, WS: 3, Strategy: "exact"}
	case "cohort-cold":
		// 3 MiB is under half of the 7.1 MB decoded working set of the
		// 20k-object index, so phase 1 keeps decoding evicted pages.
		s = spec{Loop: "closed", Clients: 2, CohortUsers: 200, L: 10, W: 12, WS: 1,
			Strategy: "approx", DecodedCacheBytes: 3 << 20}
	case "ingest-mixed":
		s = spec{Loop: "open", Cohorts: 20, LocationSets: 1, CohortUsers: 50, L: 10, W: 12, WS: 2,
			Strategy: "approx", TopKRate: 100, AddRate: 8, DeleteRate: 2, QueryRate: 10, MaxInFlight: 2}
	case "sharded-cold":
		s = spec{Loop: "closed", Clients: 2, CohortUsers: 200, L: 10, W: 12, WS: 2,
			Strategy: "exact", Shards: 2}
	default:
		return spec{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	s.Name, s.Objects, s.K, s.Setups = name, objects, topK, defaultSetups
	s.CohortUsers /= users
	if tiny {
		s.DecodedCacheBytes = s.DecodedCacheBytes * tinyObjects / fullObjects
		s.Setups = 2
	}
	return s, nil
}

// mix derives an independent sub-seed from the run seed and a path of
// stream coordinates (splitmix64 finalizer over each step).
func mix(seed int64, path ...int64) int64 {
	x := uint64(seed)
	for _, p := range path {
		x += 0x9e3779b97f4a7c15 + uint64(p)
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return int64(x >> 1)
}

// Sub-seed streams.
const (
	streamCohort = iota + 1
	streamLocations
	streamOrder
	streamFresh
	streamTopK
	streamAdd
	streamPhase
)

// datasetSeed seeds the generated corpus. It is fixed, not taken from
// the run seed: the corpus is the system's data, and different corpora
// differ in cost by more than any bound a regression gate could use,
// so the run seed varies only the requests.
const datasetSeed = 1

// makeDataset generates the Flickr-like dataset and replays it through
// a fresh vocabulary in first-appearance order — the term ids a facade
// Builder assigns — so an irtree built directly from it is identical to
// the one the facade builds.
func makeDataset(objects int) *dataset.Dataset {
	cfg := dataset.DefaultFlickrConfig(objects)
	cfg.Seed = datasetSeed
	raw := dataset.GenerateFlickr(cfg)
	v := vocab.New()
	objs := make([]dataset.Object, len(raw.Objects))
	for i, o := range raw.Objects {
		kws := indexutil.KeywordStrings(raw.Vocab, o.Doc)
		terms := make([]vocab.TermID, len(kws))
		for j, kw := range kws {
			terms[j] = v.Add(kw)
		}
		objs[i] = dataset.Object{ID: o.ID, Loc: o.Loc, Doc: vocab.DocFromTerms(terms)}
	}
	return dataset.Build(objs, v)
}

// cohort is one generated user set with its candidate keyword set W.
type cohort struct {
	users    []server.UserSpec
	keywords []string
	region   [4]float64
}

func makeCohort(ds *dataset.Dataset, users, w int, seed int64) cohort {
	us := dataset.GenerateUsers(ds, dataset.UserConfig{
		NumUsers: users, UL: userKeywords, UW: w, Area: cohortArea, Seed: seed,
	})
	c := cohort{
		users:    make([]server.UserSpec, len(us.Users)),
		keywords: make([]string, len(us.Keywords)),
		region:   [4]float64{us.Region.Min.X, us.Region.Min.Y, us.Region.Max.X, us.Region.Max.Y},
	}
	for i, u := range us.Users {
		c.users[i] = server.UserSpec{X: u.Loc.X, Y: u.Loc.Y, Keywords: indexutil.KeywordStrings(ds.Vocab, u.Doc)}
	}
	for i, t := range us.Keywords {
		c.keywords[i] = ds.Vocab.Term(t)
	}
	return c
}

// locations draws n candidate locations around the cohort region.
func (c cohort) locations(n int, seed int64) [][2]float64 {
	rng := rand.New(rand.NewSource(seed))
	minX, minY := c.region[0]-locMargin, c.region[1]-locMargin
	w, h := c.region[2]-c.region[0]+2*locMargin, c.region[3]-c.region[1]+2*locMargin
	out := make([][2]float64, n)
	for i := range out {
		out[i] = [2]float64{minX + rng.Float64()*w, minY + rng.Float64()*h}
	}
	return out
}

// request is one generated request: its endpoint and body. A delete's
// body is resolved at send time from the id its add returned (AddRef).
type request struct {
	Kind string
	Body []byte
	// Cohort identifies the query's user cohort (its users hash).
	Cohort uint64
	// Seq numbers an add within the add stream; AddRef is, for a
	// delete, the Seq of the add whose object it removes.
	Seq, AddRef int
}

// generator produces the deterministic request streams of one workload
// and seed. Closed-loop clients draw from clientRequest; the open loop
// draws its whole schedule from schedule.
type generator struct {
	spec spec
	seed int64
	ds   *dataset.Dataset
	// pool holds the fixed-cohort queries (Cohorts × LocationSets).
	pool []request
	// cohorts are the fixed cohorts, in pool order.
	cohorts []cohort
}

func newGenerator(s spec, seed int64, ds *dataset.Dataset) (*generator, error) {
	g := &generator{spec: s, seed: seed, ds: ds}
	for c := 0; c < s.Cohorts; c++ {
		co := makeCohort(ds, s.CohortUsers, s.W, mix(seed, streamCohort, int64(c)))
		g.cohorts = append(g.cohorts, co)
		for l := 0; l < s.LocationSets; l++ {
			r, err := g.query(co, co.locations(s.L, mix(seed, streamLocations, int64(c), int64(l))))
			if err != nil {
				return nil, err
			}
			g.pool = append(g.pool, r)
		}
	}
	return g, nil
}

func (g *generator) query(co cohort, locs [][2]float64) (request, error) {
	body, err := json.Marshal(server.QueryRequest{
		Users: co.users, Locations: locs, Keywords: co.keywords,
		MaxKeywords: g.spec.WS, K: g.spec.K, Strategy: g.spec.Strategy,
	})
	if err != nil {
		return request{}, err
	}
	return request{Kind: kindQuery, Body: body, Cohort: usersKey(co.users)}, nil
}

// clientRequest returns closed-loop client c's i-th request. With fixed
// cohorts each client cycles through its own seeded permutation of the
// pool; otherwise every request is a fresh cohort.
func (g *generator) clientRequest(c, i int) (request, error) {
	if len(g.pool) > 0 {
		perm := rand.New(rand.NewSource(mix(g.seed, streamOrder, int64(c)))).Perm(len(g.pool))
		return g.pool[perm[i%len(perm)]], nil
	}
	fresh := mix(g.seed, streamFresh, int64(c), int64(i))
	co := makeCohort(g.ds, g.spec.CohortUsers, g.spec.W, fresh)
	return g.query(co, co.locations(g.spec.L, mix(fresh, streamLocations)))
}

// clientStream returns client c's first n requests; the closed loop
// prepares them before the window so generation never competes with
// the server for CPU.
func (g *generator) clientStream(c, n int) ([]request, error) {
	out := make([]request, n)
	for i := range out {
		r, err := g.clientRequest(c, i)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// event is one open-loop request with the time it is due, relative to
// the start of the window.
type event struct {
	Due time.Duration
	request
}

// schedule returns the open-loop timeline for a window of the given
// length: four evenly spaced streams (top-k reads, adds, deletes and
// cohort queries) with seeded phase offsets, merged by due time. Delete
// j removes the object of add 4j (adds run at four times the delete
// rate), due a quarter second after that add.
func (g *generator) schedule(window time.Duration) ([]event, error) {
	s := g.spec
	phase := func(stream int64) float64 {
		return rand.New(rand.NewSource(mix(g.seed, streamPhase, stream))).Float64()
	}
	var out []event
	every := func(rate, ph float64, emit func(i int, due time.Duration) error) error {
		for i := 0; ; i++ {
			due := time.Duration((float64(i) + ph) / rate * float64(time.Second))
			if due >= window {
				return nil
			}
			if err := emit(i, due); err != nil {
				return err
			}
		}
	}
	objs := g.ds.Objects
	err := every(s.TopKRate, phase(1), func(i int, due time.Duration) error {
		rng := rand.New(rand.NewSource(mix(g.seed, streamTopK, int64(i))))
		o := objs[rng.Intn(len(objs))]
		kws := indexutil.KeywordStrings(g.ds.Vocab, o.Doc)
		body, err := json.Marshal(server.TopKRequest{
			X: o.Loc.X + rng.NormFloat64()*0.05, Y: o.Loc.Y + rng.NormFloat64()*0.05,
			Keywords: kws[:min(len(kws), 3)], K: s.K,
		})
		out = append(out, event{due, request{Kind: kindTopK, Body: body}})
		return err
	})
	if err != nil {
		return nil, err
	}
	addPhase := phase(2)
	err = every(s.AddRate, addPhase, func(i int, due time.Duration) error {
		rng := rand.New(rand.NewSource(mix(g.seed, streamAdd, int64(i))))
		at, from := objs[rng.Intn(len(objs))], objs[rng.Intn(len(objs))]
		body, err := json.Marshal(server.AddRequest{
			X: at.Loc.X + rng.NormFloat64()*0.05, Y: at.Loc.Y + rng.NormFloat64()*0.05,
			Keywords: indexutil.KeywordStrings(g.ds.Vocab, from.Doc),
		})
		out = append(out, event{due, request{Kind: kindAdd, Body: body, Seq: i}})
		return err
	})
	if err != nil {
		return nil, err
	}
	addsPerDelete := int(s.AddRate / s.DeleteRate)
	err = every(s.DeleteRate, addPhase/float64(addsPerDelete), func(j int, due time.Duration) error {
		out = append(out, event{due + time.Second/4, request{Kind: kindDelete, AddRef: j * addsPerDelete}})
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = every(s.QueryRate, phase(3), func(i int, due time.Duration) error {
		out = append(out, event{due, g.pool[i%len(g.pool)]})
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Deletes are due a quarter second after their add, so one may fall
	// past the window; the window bounds every stream alike.
	kept := out[:0]
	for _, e := range out {
		if e.Due < window {
			kept = append(kept, e)
		}
	}
	sort.SliceStable(kept, func(a, b int) bool { return kept[a].Due < kept[b].Due })
	return kept, nil
}
