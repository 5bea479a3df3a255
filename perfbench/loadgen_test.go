package main

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
)

func TestOpenLoopCountsLatencyFromDueTime(t *testing.T) {
	const gap = 10 * time.Millisecond
	const stall = 150 * time.Millisecond
	events := make([]event, 8)
	for i := range events {
		events[i] = event{Due: time.Duration(i) * gap, request: request{Kind: kindTopK}}
	}
	// The first request stalls; with one request in flight every later
	// one waits for it and is sent late.
	send := func(id int64, _ *request, _ []byte) (int, []byte, error) {
		if id == 1 {
			time.Sleep(stall)
		}
		return 200, nil, nil
	}
	out := openLoop(send, events, 1)
	for i := range out {
		s := &out[i]
		if !s.ok() {
			t.Fatalf("request %d failed: %v", i, s.Err)
		}
		if got := s.Due.Sub(out[0].Due); got != events[i].Due {
			t.Errorf("request %d due at +%v, scheduled +%v", i, got, events[i].Due)
		}
		if i == 0 {
			if s.Latency() < stall {
				t.Errorf("the stalled request took %v, less than its %v stall", s.Latency(), stall)
			}
			continue
		}
		// Request i could only go out once the stall ended.
		behind := stall - events[i].Due
		if s.Lag() < behind {
			t.Errorf("request %d was sent %v late, want at least %v", i, s.Lag(), behind)
		}
		if s.Latency() < behind || s.Latency() < s.Done.Sub(s.Sent) {
			t.Errorf("request %d latency %v does not count from its due time (lag %v)", i, s.Latency(), s.Lag())
		}
	}
}

func TestOpenLoopResolvesDeletesAndEpochWindows(t *testing.T) {
	var mu sync.Mutex
	nextID, epoch := 100, 0
	var deleted []string
	send := func(_ int64, r *request, body []byte) (int, []byte, error) {
		mu.Lock()
		defer mu.Unlock()
		switch r.Kind {
		case kindAdd:
			nextID++
			epoch++
			b, err := json.Marshal(server.MutationResponse{ID: nextID, Epoch: uint64(epoch)})
			return 200, b, err
		case kindDelete:
			epoch++
			deleted = append(deleted, string(body))
		}
		return 200, []byte(fmt.Sprint(epoch)), nil
	}
	ms := time.Millisecond
	events := []event{
		{0, request{Kind: kindAdd, Seq: 0}},
		{1 * ms, request{Kind: kindAdd, Seq: 1}},
		{2 * ms, request{Kind: kindTopK}},
		{3 * ms, request{Kind: kindDelete, AddRef: 1}},
		{4 * ms, request{Kind: kindDelete, AddRef: 0}},
		{5 * ms, request{Kind: kindDelete, AddRef: 7}},
		{30 * ms, request{Kind: kindTopK}},
	}
	out := openLoop(send, events, 2)
	if want := []string{`{"id":102}`, `{"id":101}`}; fmt.Sprint(deleted) != fmt.Sprint(want) {
		t.Errorf("deletes sent %v, want %v", deleted, want)
	}
	if out[5].Err == nil {
		t.Error("a delete of an add that never ran was sent")
	}
	for _, i := range []int{2, 6} {
		s := &out[i]
		var at int
		fmt.Sscan(string(s.Resp), &at)
		if at < s.EpochLo || at > s.EpochHi {
			t.Errorf("read %d answered at epoch %d, outside its window [%d, %d]", i, at, s.EpochLo, s.EpochHi)
		}
	}
	if out[6].EpochLo != 4 || out[6].EpochHi != 4 {
		t.Errorf("the last read's window is [%d, %d], want [4, 4] after four mutations", out[6].EpochLo, out[6].EpochHi)
	}
}
