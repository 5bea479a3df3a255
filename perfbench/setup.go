package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	maxbrstknn "repro"
	"repro/internal/dataset"
	"repro/internal/server"
	"repro/internal/shardplan"
)

// listener is one in-process HTTP server on a loopback port.
type listener struct {
	url string
	hs  *http.Server
}

func serve(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln)
	return &listener{url: "http://" + ln.Addr().String(), hs: hs}, nil
}

// close stops the listener and waits for its handlers to return.
func (l *listener) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := l.hs.Shutdown(ctx); err != nil {
		l.hs.Close()
	}
}

// waitHealthy polls GET /healthz until it answers 200.
func waitHealthy(url string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/healthz: %w", url, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// deployment is one served topology: a single loaded index behind a
// server, or shard servers behind a coordinator.
type deployment struct {
	url string
	// Single-index deployments.
	index *maxbrstknn.Index
	// Sharded deployments.
	shards    []*maxbrstknn.ShardIndex
	shardURLs []string
	// listeners in start order; the last one is the entry point.
	listeners []*listener
	path      string
}

func (d *deployment) close() {
	for i := len(d.listeners) - 1; i >= 0; i-- {
		d.listeners[i].close()
	}
	if d.index != nil {
		d.index.Close()
	}
	for _, six := range d.shards {
		six.Close()
	}
	if d.path != "" {
		os.Remove(d.path)
	}
}

// setupTimes is one set-up's timing and memory.
type setupTimes struct {
	total, build, save, load time.Duration
	heapMB                   float64
}

// liveHeap returns the bytes of live heap after forced collections.
// Objects released by cleanups (a session's snapshot pin) survive the
// first collection, so it collects three times, yielding in between.
func liveHeap() uint64 {
	for i := 0; i < 3; i++ {
		runtime.GC()
		time.Sleep(2 * time.Millisecond)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// setUp builds and serves the workload's topology once. The clock runs
// from Builder.Build (or, sharded, from the shard plan) to the entry
// point answering /healthz; the builder is filled before and outlives
// the measurement, so neither its cost nor its memory is counted.
func setUp(s spec, ds *dataset.Dataset, b *maxbrstknn.Builder, dir string, mount func(*deployment) (http.Handler, error)) (*deployment, setupTimes, error) {
	var t setupTimes
	d := &deployment{}
	before := liveHeap()
	start := time.Now()
	var err error
	if s.Shards > 0 {
		err = d.startShards(s, ds, &t)
	} else {
		err = d.startSingle(s, b, dir, &t)
	}
	if err == nil {
		var h http.Handler
		if h, err = mount(d); err == nil {
			var l *listener
			if l, err = serve(h); err == nil {
				d.listeners = append(d.listeners, l)
				d.url = l.url
				err = waitHealthy(d.url)
			}
		}
	}
	t.total = time.Since(start)
	if err != nil {
		d.close()
		return nil, t, err
	}
	t.heapMB = float64(int64(liveHeap())-int64(before)) / (1 << 20)
	runtime.KeepAlive(b)
	return d, t, nil
}

func (d *deployment) startSingle(s spec, b *maxbrstknn.Builder, dir string, t *setupTimes) error {
	t0 := time.Now()
	built, err := b.Build(maxbrstknn.Options{})
	if err != nil {
		return err
	}
	t1 := time.Now()
	d.path = filepath.Join(dir, "index.mxbr")
	if err := built.Save(d.path); err != nil {
		return err
	}
	t2 := time.Now()
	// Release the in-memory build before loading, so the heap figure is
	// the served index alone.
	built = nil
	d.index, err = maxbrstknn.LoadWithOptions(d.path, maxbrstknn.LoadOptions{DecodedCacheBytes: s.DecodedCacheBytes})
	if err != nil {
		return err
	}
	t3 := time.Now()
	t.build, t.save, t.load = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	return nil
}

func (d *deployment) startShards(s spec, ds *dataset.Dataset, t *setupTimes) error {
	t0 := time.Now()
	opts := maxbrstknn.Options{}
	fc, err := maxbrstknn.FrozenCorpusOf(ds, opts)
	if err != nil {
		return err
	}
	plan, err := shardplan.Split(ds, s.Shards)
	if err != nil {
		return err
	}
	for i := 0; i < s.Shards; i++ {
		six, err := shardplan.BuildShard(ds, plan, i, fc, opts)
		if err != nil {
			return err
		}
		d.shards = append(d.shards, six)
	}
	t.build = time.Since(t0)
	return nil
}

// serveShards serves every shard index from its own shard server; wrap
// (nil for none) may interpose on each shard's handler.
func (d *deployment) serveShards(wrap func(http.Handler) http.Handler) error {
	for i, six := range d.shards {
		h := server.NewShard(six, i, len(d.shards), server.Config{}).Handler()
		if wrap != nil {
			h = wrap(h)
		}
		l, err := serve(h)
		if err != nil {
			return err
		}
		d.listeners = append(d.listeners, l)
		d.shardURLs = append(d.shardURLs, l.url)
	}
	return nil
}
