package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one sent request and what came back.
type sample struct {
	ID  int64
	Req request
	// Body is the request body as sent (a delete's is resolved late).
	Body []byte
	// Due is when the request should have been sent (the send time in a
	// closed loop); Sent and Done bracket the round trip.
	Due, Sent, Done time.Time
	Status          int
	Resp            []byte
	Err             error
	// Warmup marks requests sent before the measured window; they are
	// checked but not timed.
	Warmup bool
	// EpochLo and EpochHi bound the index epoch a read was answered at:
	// mutations acknowledged before it was sent, and mutations sent
	// before its answer arrived (open loop only).
	EpochLo, EpochHi int
}

// Latency is measured from the due time, so a request held back by an
// earlier stall carries that wait.
func (s *sample) Latency() time.Duration { return s.Done.Sub(s.Due) }

// Lag is how late the generator sent the request.
func (s *sample) Lag() time.Duration { return s.Sent.Sub(s.Due) }

func (s *sample) ok() bool { return s.Err == nil && s.Status == http.StatusOK }

// sender performs one request with the given body (a delete's body is
// resolved at send time, so it may differ from r.Body).
type sender func(id int64, r *request, body []byte) (status int, resp []byte, err error)

// httpSender posts JSON over a client allowing at most conns connections.
func httpSender(base string, conns int) (sender, func()) {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	client := &http.Client{Transport: tr}
	send := func(id int64, r *request, body []byte) (int, []byte, error) {
		req, err := http.NewRequest(http.MethodPost, base+"/"+r.Kind, bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(requestIDHeader, strconv.FormatInt(id, 10))
		resp, err := client.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return resp.StatusCode, b, err
	}
	return send, tr.CloseIdleConnections
}

// requestIDHeader carries the benchmark's request id, which the traced
// handlers attach to their spans.
const requestIDHeader = "X-Request-Id"

// closedLoop runs one goroutine per stream; each sends its next request
// only after the previous one completed, until the window ends or
// (requests > 0) after that many requests. next supplies requests past
// a prepared stream's end.
func closedLoop(send sender, streams [][]request, next func(c, i int) (request, error), window time.Duration, requests int) ([]sample, error) {
	out := make([][]sample, len(streams))
	errs := make([]error, len(streams))
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	for c := range streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				if requests > 0 && i >= requests || requests == 0 && !time.Now().Before(deadline) {
					return
				}
				r := request{}
				if i < len(streams[c]) {
					r = streams[c][i]
				} else if r, errs[c] = next(c, i); errs[c] != nil {
					return
				}
				s := sample{ID: int64(c+1)<<32 | int64(i), Req: r, Body: r.Body}
				s.Sent = time.Now()
				s.Due = s.Sent
				s.Status, s.Resp, s.Err = send(s.ID, &s.Req, s.Body)
				s.Done = time.Now()
				out[c] = append(out[c], s)
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for c := range out {
		if errs[c] != nil {
			return nil, errs[c]
		}
		all = append(all, out[c]...)
	}
	return all, nil
}

func isMutation(kind string) bool { return kind == kindAdd || kind == kindDelete }

// openLoop sends every event at its due time, whether or not earlier
// requests have completed, keeping at most maxInFlight outstanding.
// Mutations go out one at a time in schedule order, so the index
// publishes epochs in schedule order; a delete's body names the object
// its add created. When a slot or the writer turn is not free, the
// generator falls behind and every later request is sent late — its
// latency still counts from its due time.
func openLoop(send sender, events []event, maxInFlight int) []sample {
	out := make([]sample, len(events))
	slots := make(chan struct{}, maxInFlight)
	// writer is the mutations' one-at-a-time turn: the dispatcher takes
	// it before sending a mutation and the mutation's goroutine hands it
	// back when the answer is in.
	writer := make(chan struct{}, 1)
	var mutSent, mutDone atomic.Int64
	addIDs := map[int]int{} // add Seq → object id; owned by the writer turn
	var wg sync.WaitGroup
	start := time.Now()
	for i := range events {
		e := &events[i]
		s := &out[i]
		s.ID, s.Req, s.Body = int64(i+1), e.request, e.Body
		s.Due = start.Add(e.Due)
		time.Sleep(time.Until(s.Due))
		mut := isMutation(e.Kind)
		if mut {
			writer <- struct{}{}
		}
		slots <- struct{}{}
		if e.Kind == kindDelete {
			if id, ok := addIDs[e.AddRef]; ok {
				s.Body = []byte(fmt.Sprintf(`{"id":%d}`, id))
			} else {
				s.Err = fmt.Errorf("delete of add %d: the add did not succeed", e.AddRef)
			}
		}
		if mut && s.Err == nil {
			mutSent.Add(1)
		}
		s.EpochLo = int(mutDone.Load())
		s.Sent = time.Now()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if s.Err == nil {
				s.Status, s.Resp, s.Err = send(s.ID, &s.Req, s.Body)
			}
			s.Done = time.Now()
			if mut {
				if s.ok() {
					if id, err := mutationID(s.Resp); err == nil && e.Kind == kindAdd {
						addIDs[e.Seq] = id
					}
					mutDone.Add(1)
				}
				<-writer
			}
			s.EpochHi = int(mutSent.Load())
			<-slots
		}()
	}
	wg.Wait()
	return out
}
