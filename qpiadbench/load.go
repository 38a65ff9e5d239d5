package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"qpiad/internal/core"
	"qpiad/internal/qcache"
	"qpiad/internal/source"
)

// result is the client-side record of one request. The checker fills in
// v, err, skipped and cancelled after the response is in; read them only
// after checker.drain.
type result struct {
	req  *request
	due  time.Time     // when the request was due: its send time in a closed loop
	ttfa time.Duration // due → first answer byte (first NDJSON line for streams)
	lat  time.Duration // due → last byte
	size int
	// ok reports a complete 2xx response; it is set before the response
	// goes to the checker and never changes.
	ok  bool
	err error
	v   *verdict
	// replayErr is a traced replay's failure.
	replayErr error
	// skipped and cancelled come from a stream's summary line.
	skipped, cancelled int
	// body is the response, owned by the checker until it is checked.
	body *bytes.Buffer
}

// client is one load-generating connection's worth of state; each client
// is used by one goroutine at a time.
type client struct {
	hc   *http.Client
	base string
	chk  *checker
}

// newTransport allows at most conns connections to the server.
func newTransport(conns int) *http.Transport {
	return &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
}

// do sends r and reads the whole response, then hands it to the checker,
// so checking never delays the client's next request.
func (c *client) do(ctx context.Context, r *request, due time.Time) *result {
	res := &result{req: r, due: due}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+r.path, bytes.NewReader(r.body))
	if err != nil {
		res.err = err
		return res
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(hreq)
	if err != nil {
		res.err = err
		return res
	}
	defer resp.Body.Close()
	if r.kind != kindStream {
		res.ttfa = time.Since(due)
	}
	buf := c.chk.buffer()
	for {
		if buf.Available() < 16<<10 {
			buf.Grow(64 << 10)
		}
		b := buf.AvailableBuffer()
		n, rerr := resp.Body.Read(b[:cap(b)])
		if n > 0 && res.ttfa == 0 && bytes.IndexByte(b[:n], '\n') >= 0 {
			res.ttfa = time.Since(due)
		}
		buf.Write(b[:n])
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			c.chk.release(buf)
			res.err = fmt.Errorf("reading response: %w", rerr)
			return res
		}
	}
	res.lat = time.Since(due)
	res.size = buf.Len()
	if resp.StatusCode/100 != 2 {
		res.err = fmt.Errorf("%s: status %d: %s", r.path, resp.StatusCode, firstLine(buf.String()))
		c.chk.release(buf)
		return res
	}
	res.ok, res.body = true, buf
	c.chk.submit(res)
	return res
}

// hook runs in the client goroutine after each request; the traced run
// uses it to replay sampled requests in-process.
type hook func(client int, res *result)

// closedLoop runs one closed loop per client for dur: each client sends
// its next request when the previous one has been answered.
func closedLoop(ctx context.Context, clients []*client, gens []generator, dur time.Duration, after hook) ([]*result, time.Duration) {
	start := time.Now()
	deadline := start.Add(dur)
	per := make([][]*result, len(clients))
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r := gens[i].next()
				res := clients[i].do(ctx, r, time.Now())
				if after != nil {
					after(i, res)
				}
				per[i] = append(per[i], res)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var out []*result
	for _, p := range per {
		out = append(out, p...)
	}
	return out, elapsed
}

// openLoop sends requests on a fixed schedule of rate per second for dur,
// over the clients' connections. Each request is timed from when it was
// due; lags records how late the dispatcher handed each one over.
func openLoop(ctx context.Context, clients []*client, gen generator, rate float64, dur time.Duration, after hook) ([]*result, time.Duration, samples) {
	type job struct {
		r   *request
		due time.Time
	}
	n := int(rate * dur.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	// Sized to the number of sends, so the dispatcher never blocks on a
	// busy connection: a slow server shows as queueing from the due time.
	jobs := make(chan job, n)
	per := make([][]*result, len(clients))
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				res := clients[i].do(ctx, j.r, j.due)
				if after != nil {
					after(i, res)
				}
				per[i] = append(per[i], res)
			}
		}()
	}
	lags := make(samples, 0, n)
	start := time.Now()
	for k := 0; k < n; k++ {
		r := gen.next()
		due := start.Add(time.Duration(k) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lags.add(time.Since(due))
		jobs <- job{r: r, due: due}
	}
	close(jobs)
	wg.Wait()
	elapsed := time.Since(start)
	var out []*result
	for _, p := range per {
		out = append(out, p...)
	}
	return out, elapsed, lags
}

// snapshot holds the program's own counters at one instant.
type snapshot struct {
	src        source.Metrics
	cache      qcache.Stats
	planner    core.PlannerStats
	admitted   int64
	waited     int64
	totalAlloc uint64
	numGC      uint32
	cpu        time.Duration // process CPU time, user plus system
}

func takeSnapshot(s *system) snapshot {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	sn := snapshot{
		src:        s.world.Src.Metrics(),
		cache:      s.med.CacheStats(),
		planner:    s.med.PlannerStats(),
		totalAlloc: mem.TotalAlloc,
		numGC:      mem.NumGC,
	}
	sn.cpu = processCPU()
	if st := sn.planner.Scheduler; st != nil {
		sn.admitted, sn.waited = st.Admitted, st.Waited
	}
	return sn
}

// heapSampler samples HeapInuse (heap objects plus unused heap spans)
// every 5 ms while it runs.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mib  []float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		ms := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(ms)
			h.mib = append(h.mib, float64(ms[0].Value.Uint64()+ms[1].Value.Uint64())/(1<<20))
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the 99th percentile of its samples
// in MiB, and the sample count. The single highest sample depends on where
// a collection fell among the largest responses and varied 0.05 of its
// median from run to run; the 99th percentile, with 1% of the samples
// beyond it, varied 0.03.
func (h *heapSampler) finish() (float64, int) {
	close(h.stop)
	<-h.done
	return percentile(h.mib, 0.99), len(h.mib)
}
