package main

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// streamBytes serializes every request a workload would send for a
// seed: each closed-loop client's first requests, or the open-loop
// schedule with due times and delete references.
func streamBytes(t *testing.T, workload string, seed int64) []byte {
	t.Helper()
	s, err := specFor(workload, true)
	if err != nil {
		t.Fatal(err)
	}
	g, err := newGenerator(s, seed, makeDataset(s.Objects))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, r := range g.warmups() {
		fmt.Fprintf(&buf, "warmup %s %s\n", r.Kind, r.Body)
	}
	if s.Loop == "open" {
		events, err := g.schedule(3 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range events {
			fmt.Fprintf(&buf, "%d %s %d %d %s\n", e.Due, e.Kind, e.Seq, e.AddRef, e.Body)
		}
		return buf.Bytes()
	}
	for c := 0; c < s.Clients; c++ {
		reqs, err := g.clientStream(c, 12)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range reqs {
			fmt.Fprintf(&buf, "client %d %s %s\n", c, r.Kind, r.Body)
		}
	}
	return buf.Bytes()
}

func TestRequestStreamsFollowTheSeed(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			a, b := streamBytes(t, w, 7), streamBytes(t, w, 7)
			if len(a) == 0 {
				t.Fatal("empty request stream")
			}
			if !bytes.Equal(a, b) {
				t.Fatal("the same seed gave different request streams")
			}
			if bytes.Equal(a, streamBytes(t, w, 8)) {
				t.Fatal("different seeds gave the same request stream")
			}
		})
	}
}

func TestScheduleRates(t *testing.T) {
	s, err := specFor("ingest-mixed", true)
	if err != nil {
		t.Fatal(err)
	}
	g, err := newGenerator(s, 3, makeDataset(s.Objects))
	if err != nil {
		t.Fatal(err)
	}
	events, err := g.schedule(4 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	addDue := map[int]time.Duration{}
	for i, e := range events {
		count[e.Kind]++
		if i > 0 && e.Due < events[i-1].Due {
			t.Fatalf("event %d is due before event %d", i, i-1)
		}
		switch e.Kind {
		case kindAdd:
			addDue[e.Seq] = e.Due
		case kindDelete:
			due, ok := addDue[e.AddRef]
			if !ok || e.Due-due != time.Second/4 {
				t.Errorf("delete due %v does not follow add %d (due %v, scheduled %v) by 250ms", e.Due, e.AddRef, due, ok)
			}
		}
	}
	want := map[string]int{kindTopK: 400, kindAdd: 32, kindDelete: 8, kindQuery: 40}
	for k, n := range want {
		if count[k] != n {
			t.Errorf("%s: %d events in 4s, want %d", k, count[k], n)
		}
	}
}
