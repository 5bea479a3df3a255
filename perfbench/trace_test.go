package main

import (
	"bytes"
	"testing"

	maxbrstknn "repro"
	"repro/internal/indexutil"
	"repro/internal/server"
)

// TestMirrorSessionsMatchServer sends one request stream to the server
// and to the traced mirror over the same index: the mirror's session
// cache must hit and miss exactly where the server's does, answering the
// same bytes. The stream fills the cache past capacity, touches its
// oldest cohort, adds one more and touches the oldest again: LRU
// eviction keeps it, insertion-order eviction would not.
func TestMirrorSessionsMatchServer(t *testing.T) {
	s, err := specFor("cohort-cold", true)
	if err != nil {
		t.Fatal(err)
	}
	ds := makeDataset(s.Objects)
	ix, err := indexutil.BuilderFromDataset(ds).Build(maxbrstknn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	g, err := newGenerator(s, 3, ds)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := g.clientStream(0, mirrorSessionCapacity+7)
	if err != nil {
		t.Fatal(err)
	}
	n := mirrorSessionCapacity + 6
	oldest := fresh[n-mirrorSessionCapacity]
	stream := append(append([]request{}, fresh[:n]...), oldest, fresh[n], oldest)

	srv, err := serve(server.New(ix, server.Config{}).Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.close()
	mir := newMirror(ix, newTracer())
	ml, err := serve(mir)
	if err != nil {
		t.Fatal(err)
	}
	defer ml.close()
	toServer, closeServer := httpSender(srv.url, 1)
	defer closeServer()
	toMirror, closeMirror := httpSender(ml.url, 1)
	defer closeMirror()

	for i := range stream {
		q := &stream[i]
		st1, b1, err1 := toServer(int64(i+1), q, q.Body)
		st2, b2, err2 := toMirror(int64(i+1), q, q.Body)
		if err1 != nil || err2 != nil || st1 != 200 || st2 != 200 {
			t.Fatalf("request %d: server %d %v, mirror %d %v", i, st1, err1, st2, err2)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("request %d: mirror answered differently from the server", i)
		}
	}
	var st server.StatsPayload
	if err := getJSON(srv.url+"/stats", &st); err != nil {
		t.Fatal(err)
	}
	if mir.hits != st.SessionCache.Hits || mir.misses != st.SessionCache.Misses {
		t.Errorf("mirror sessions: %d hits, %d misses; server /stats: %d hits, %d misses",
			mir.hits, mir.misses, st.SessionCache.Hits, st.SessionCache.Misses)
	}
	if st.SessionCache.Hits != 2 || st.SessionCache.Misses != int64(len(fresh)) {
		t.Errorf("server: %d hits, %d misses, want 2 and %d: the stream does not exercise LRU eviction as planned",
			st.SessionCache.Hits, st.SessionCache.Misses, len(fresh))
	}
}
