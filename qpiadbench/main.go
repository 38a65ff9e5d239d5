// Command qpiadbench is the QPIAD mediator's benchmark. It builds the
// qpiad-server world in-process, serves it with httpapi on a loopback
// listener, drives one workload at it from the same process, checks every
// answer, and prints its metrics. The last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"cpu_ms_per_req": {"value": 15.2, "unit": "ms"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// traced run reports the per-layer ones. Run it from the repository root:
//
//	bash qpiadbench/run.sh --workload select-cpu --seed 1 --seconds 15 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"time"
)

const (
	// setupReps is how many times a run builds the system; setup_s is the
	// median, and the last build serves the load.
	setupReps = 21
	// setupRefChunks reference chunks after each build set its speed.
	setupRefChunks = 5
	// maxClients bounds clients and connections (further capped at the
	// number of CPUs).
	maxClients = 2
	// warmup is the untimed load before the measured phase: caches fill
	// and the heap settles.
	warmup = 2 * time.Second
	// lagLimitMs marks a run invalid when the open-loop dispatcher's p99
	// lateness exceeds it: the schedule itself was not kept.
	lagLimitMs = 20.0
	// traceShare is the share of requests a traced phase replays;
	// traceShareJoin the share of joins.
	traceShare     = 0.15
	traceShareJoin = 0.5
)

// stat is one metric value with the number of samples behind it.
type stat struct {
	value float64
	n     int
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run. Their times are CPU times
// stated at a nominal host speed (see reference.go): on a shared host the
// wall-clock time of CPU-bound work follows the share of the machine the
// run is given.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms_per_req", "ms"},
	{"src_queries_per_req", "count"},
	{"tuples_per_req", "count"},
	{"recall", "ratio"},
	{"precision", "ratio"},
	{"heap_mb", "MiB"},
}

// wallClock are the wall-clock figures of an untraced run. The report
// prints them for reading; the result line leaves them out, since on a
// shared host they do not repeat from run to run.
var wallClock = []metricDef{
	{"qps", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"ttfa_p50_ms", "ms"},
	{"join_p50_ms", "ms"},
}

var perLayer = []metricDef{
	{"httpapi.serve_ms", "ms"},
	{"httpapi.encode_ms", "ms"},
	{"httpapi.resp_kb", "KiB"},
	{"httpapi.stream_flush_ms", "ms"},
	{"sqlish.parse_us", "us"},
	{"qcache.hit_ratio", "ratio"},
	{"qcache.evict_per_req", "count"},
	{"qcache.coalesced_per_req", "count"},
	{"qcache.hit_ms", "ms"},
	{"source.base_ms", "ms"},
	{"source.rewrite_fetch_ms", "ms"},
	{"source.busy_ms_per_req", "ms"},
	{"source.useful_ratio", "ratio"},
	{"source.retries_per_req", "count"},
	{"core.generate_ms", "ms"},
	{"core.candidates_per_req", "count"},
	{"core.choose_us", "us"},
	{"core.select_self_ms", "ms"},
	{"core.stream_ttfa_ms", "ms"},
	{"core.stream_skipped_per_req", "count"},
	{"core.stream_cancelled_per_req", "count"},
	{"core.join_ms", "ms"},
	{"core.join_pairs_per_req", "count"},
	{"relation.tuple_key_ms", "ms"},
	{"planner.skipped_per_req", "count"},
	{"planner.sched_wait_ratio", "ratio"},
	{"runtime.alloc_kb_per_req", "KiB"},
	{"runtime.gc_per_kreq", "count"},
	{"setup.datagen_s", "s"},
	{"setup.mine_s", "s"},
	{"bench.gen_lag_p99_ms", "ms"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.traced_requests", "count"},
}

func main() {
	name := flag.String("workload", "", "workload: select-cpu, select-webdb, join-stream, or all of them in turn")
	seed := flag.Int64("seed", 1, "seed of the generated requests")
	seconds := flag.Int("seconds", 15, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()
	dur := time.Duration(*seconds) * time.Second
	if *name != "all" {
		os.Exit(run(*name, *seed, dur, *trace == 1))
	}
	// Every workload in turn; the exit code is the worst of their codes.
	code := 0
	for _, w := range workloads {
		code = max(code, run(w.name, *seed, dur, *trace == 1))
	}
	os.Exit(code)
}

// subSeed derives an independent seed for one phase and client.
func subSeed(seed int64, phase, client int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(phase)*0xBF58476D1CE4E5B9 + uint64(client)*0x94D049BB133111EB
	x ^= x >> 31
	x *= 0xD6E8FEB86659FD93
	x ^= x >> 32
	return int64(x >> 1)
}

// tally counts attempted and failed requests across every phase.
type tally struct {
	attempted, failed int
	errs              []string
}

func (t *tally) add(results ...*result) {
	for _, r := range results {
		t.attempted++
		switch {
		case r.err != nil:
			t.fail(fmt.Sprintf("%s: %v", r.req.key, r.err))
		case r.replayErr != nil:
			t.fail(fmt.Sprintf("%s: %v", r.req.key, r.replayErr))
		}
	}
}

func (t *tally) fail(msg string) {
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, firstLine(msg))
	}
}

func run(name string, seed int64, dur time.Duration, traced bool) int {
	w, ok := findWorkload(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "qpiadbench: unknown workload %q\n", name)
		return 2
	}
	if dur < time.Second {
		fmt.Fprintln(os.Stderr, "qpiadbench: --seconds must be at least 1")
		return 2
	}
	store, err := loadDigests()
	if err != nil {
		fmt.Fprintf(os.Stderr, "qpiadbench: %v\n", err)
		return 1
	}
	b, err := newBench(w, seed, traced, store)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qpiadbench: %v\n", err)
		return 1
	}
	defer b.sys.stop()
	defer b.chk.stop()
	defer b.tr.CloseIdleConnections()
	loop := fmt.Sprintf("closed loop, %d clients", len(b.clients))
	if w.rate > 0 {
		loop = fmt.Sprintf("open loop at %.0f req/s over %d connections", w.rate, len(b.clients))
	}
	fmt.Printf("# workload %s, seed %d, %v measured, %s, traced=%v\n", w.name, seed, dur, loop, traced)

	b.judgeQuality()
	warm, _, _ := b.phase(2, warmup, nil)
	b.chk.drain()
	b.tl.add(warm...)

	// A traced run spends the first half of its time untraced, for the
	// counters and the baseline of the tracing overhead, and the second
	// half traced.
	measured := dur
	if traced {
		measured = dur / 2
	}
	m := b.measure(measured)
	if len(m.lags) > 0 {
		fmt.Printf("# open-loop dispatcher lateness p99 %.3f ms over %d sends\n", m.lagP99, len(m.lags))
		if m.lagP99 > lagLimitMs {
			fmt.Printf("# INVALID RUN: the dispatcher fell behind its schedule (p99 lateness %.3f ms > %.0f ms)\n", m.lagP99, lagLimitMs)
			return 3
		}
	}

	defs, out := endToEnd, map[string]stat(nil)
	if traced {
		defs = perLayer
		if out, err = b.tracedHalf(m, dur-measured); err != nil {
			fmt.Fprintf(os.Stderr, "qpiadbench: %v\n", err)
			return 1
		}
	} else {
		out = b.endToEnd(m)
	}
	if err := b.chk.saveDigests(); err != nil {
		fmt.Fprintf(os.Stderr, "qpiadbench: saving answer digests: %v\n", err)
		return 1
	}
	return report(&b.tl, defs, out)
}

// bench is one run's system, clients and tallies.
type bench struct {
	w       *workload
	seed    int64
	sys     *system
	chk     *checker
	tr      *http.Transport
	clients []*client
	tl      tally
	jd      judge
	ref     *reference
	// setupS, setupCPU and setupWall are the nominal CPU, CPU and
	// wall-clock times of every build; datagenS and mineS its replayed
	// steps (traced runs only).
	setupS, setupCPU, setupWall, datagenS, mineS []float64
}

// newBench builds the system setupReps times, timing each build; the last
// one serves the run.
func newBench(w *workload, seed int64, traced bool, store map[string]string) (*bench, error) {
	b := &bench{w: w, seed: seed, ref: newReference()}
	for i := 0; i < setupReps; i++ {
		if b.sys != nil {
			b.sys.stop()
		}
		runtime.GC()
		t0, c0 := time.Now(), processCPU()
		sys, err := startSystem(w)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		b.sys = sys
		wall, cpu := time.Since(t0), processCPU()-c0
		b.setupWall = append(b.setupWall, wall.Seconds())
		b.setupCPU = append(b.setupCPU, cpu.Seconds())
		b.setupS = append(b.setupS, nominal(cpu, b.ref.runChunks(setupRefChunks)).Seconds())
		if traced {
			d, m, err := setupSpans(w)
			if err != nil {
				b.sys.stop()
				return nil, fmt.Errorf("set-up replay: %w", err)
			}
			b.datagenS, b.mineS = append(b.datagenS, d), append(b.mineS, m)
		}
	}
	o, err := newOracle(b.sys.world)
	if err != nil {
		b.sys.stop()
		return nil, err
	}
	b.chk = newChecker(o, store)
	nClients := min(maxClients, runtime.NumCPU())
	b.tr = newTransport(nClients)
	hc := &http.Client{Transport: b.tr}
	for i := 0; i < nClients; i++ {
		b.clients = append(b.clients, &client{hc: hc, base: b.sys.url, chk: b.chk})
	}
	return b, nil
}

// judgeQuality sends the workload's fixed set of distinct selections once
// each, as uncached batch selects, and judges their possible answers
// against the hidden ground truth.
func (b *bench) judgeQuality() {
	var results []*result
	for _, q := range b.w.quality() {
		results = append(results, b.clients[0].do(context.Background(), newSelect(q, true), time.Now()))
	}
	b.chk.drain()
	b.tl.add(results...)
	for _, res := range results {
		if res.err == nil {
			b.jd.add(b.chk.o, res.req.q, res.v.possible)
		}
	}
}

// phase runs the workload's load for d; id separates the request streams
// of the phases.
func (b *bench) phase(id int, d time.Duration, after hook) ([]*result, time.Duration, samples) {
	ctx := context.Background()
	if b.w.rate > 0 {
		return openLoop(ctx, b.clients, b.w.newGen(subSeed(b.seed, id, 0)), b.w.rate, d, after)
	}
	gens := make([]generator, len(b.clients))
	for i := range gens {
		gens[i] = b.w.newGen(subSeed(b.seed, id, i))
	}
	res, el := closedLoop(ctx, b.clients, gens, d, after)
	return res, el, nil
}

// measurement is the outcome of the untraced measured phase.
type measurement struct {
	results       []*result
	elapsed       time.Duration
	lags          samples
	lagP99        float64
	before, after snapshot
	heapMB        float64
	heapN         int
	// cpu is the process CPU time of the phase at nominal speed; chunks
	// are the reference chunk times taken alongside.
	cpu    time.Duration
	chunks []float64
}

func (b *bench) measure(d time.Duration) measurement {
	var m measurement
	m.before = takeSnapshot(b.sys)
	heap, ref := startHeapSampler(), b.ref.start()
	m.results, m.elapsed, m.lags = b.phase(3, d, nil)
	ref.finish()
	m.heapMB, m.heapN = heap.finish()
	m.cpu, m.chunks = ref.nominalCPU(), ref.chunks
	m.after = takeSnapshot(b.sys)
	b.chk.drain()
	if len(m.lags) > 0 {
		m.lagP99 = percentile(m.lags, 0.99)
	}
	fmt.Printf("# measured phase: %d requests in %.3f s, process CPU %.0f%% of %d cores\n", len(m.results), m.elapsed.Seconds(),
		100*(m.after.cpu-m.before.cpu).Seconds()/m.elapsed.Seconds()/float64(runtime.NumCPU()), runtime.NumCPU())
	b.tl.add(m.results...)
	checkCounters(&b.tl, m.results, m.before, m.after)
	return m
}

// endToEnd returns every end-to-end metric of an untraced run and prints
// its wall-clock figures.
func (b *bench) endToEnd(m measurement) map[string]stat {
	out := endToEndStats(m.results, m.cpu, m.before, m.after)
	n := float64(len(m.results))
	fmt.Printf("# CPU per request: %.4f ms measured; reference chunk median %.4f ms (min %.4f, max %.4f, n=%d), nominal %.4f ms\n",
		ms(m.after.cpu-m.before.cpu)/n, median(m.chunks), percentile(m.chunks, 0), percentile(m.chunks, 1), len(m.chunks), ms(refNominal))
	out["setup_s"] = stat{median(b.setupS), len(b.setupS)}
	fmt.Printf("# set-up over %d builds: median %.4f s CPU, %.4f s wall\n", len(b.setupS), median(b.setupCPU), median(b.setupWall))
	out["recall"] = stat{b.jd.recall(), b.jd.queries}
	out["precision"] = stat{b.jd.precision(), b.jd.queries}
	out["heap_mb"] = stat{m.heapMB, m.heapN}
	fmt.Println("# wall-clock figures (not in the result line):")
	printStats(wallClock, wallClockStats(m.results, m.elapsed))
	q := queryLatencies(m.results)
	fmt.Printf("# p99_ms has %d of %d samples beyond it\n", beyond(q, 0.99), len(q))
	return out
}

// tracedHalf runs the traced half of a traced run and returns every
// per-layer metric: counters from the untraced half m, spans from the
// traced half.
func (b *bench) tracedHalf(m measurement, d time.Duration) (map[string]stat, error) {
	out := layerCounters(m.results, m.before, m.after)
	out["setup.datagen_s"] = stat{median(b.datagenS), len(b.datagenS)}
	out["setup.mine_s"] = stat{median(b.mineS), len(b.mineS)}
	out["bench.gen_lag_p99_ms"] = stat{m.lagP99, len(m.lags)}

	tc := newTracer(b.sys)
	samplers := make([]*sampler, len(b.clients))
	reqIDs := make([]int64, len(b.clients))
	for i := range samplers {
		samplers[i] = &sampler{rng: rand.New(rand.NewSource(subSeed(b.seed, 4, i)))}
	}
	traced, _, _ := b.phase(4, d, func(i int, res *result) {
		// The replay may run before the checker has judged res.
		reqIDs[i]++
		req := int64(i)<<40 | reqIDs[i]
		root := tc.begin(req, 0, "bench.request")
		root.start = res.due
		hs := tc.begin(req, root.id, "http.client "+res.req.path)
		hs.start = res.due
		tc.endAt(hs, res.due.Add(res.lat))
		if res.ok && samplers[i].take(res.req) {
			rp := tc.begin(req, root.id, "bench.replay")
			res.replayErr = tc.replay(context.Background(), res, rp)
			tc.end(rp)
		}
		tc.end(root)
	})
	b.chk.drain()
	b.tl.add(traced...)
	for k, v := range tc.layerStats() {
		out[k] = v
	}
	base, tracedP50 := median(queryLatencies(m.results)), median(queryLatencies(traced))
	out["bench.trace_overhead_pct"] = stat{100 * (tracedP50/base - 1), len(traced)}
	path := fmt.Sprintf(".bench_build/qpiadbench/spans-%s-seed%d.jsonl", b.w.name, b.seed)
	n, err := tc.writeSpans(path)
	if err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("# wrote %d spans to %s; traced-half /query p50 %.3f ms, untraced half %.3f ms\n", n, path, tracedP50, base)
	return out, nil
}

// report prints every metric of defs with its unit and sample count, then
// the result line, and returns the exit code.
func report(tl *tally, defs []metricDef, out map[string]stat) int {
	fmt.Printf("# error_frac = %.6f (%d of %d requests failed)\n", ratio(float64(tl.failed), float64(tl.attempted)), tl.failed, tl.attempted)
	for _, e := range tl.errs {
		fmt.Printf("# FAILED: %s\n", e)
	}
	metrics := map[string]any{}
	for _, d := range defs {
		metrics[d.name] = map[string]any{"value": finite(out[d.name].value), "unit": d.unit}
	}
	printStats(defs, out)
	line, err := json.Marshal(map[string]any{
		"correct":   tl.failed == 0,
		"attempted": tl.attempted,
		"failed":    tl.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "qpiadbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if tl.failed > 0 {
		return 1
	}
	return 0
}

// printStats prints each metric of defs with its unit and sample count.
func printStats(defs []metricDef, out map[string]stat) {
	for _, d := range defs {
		s := out[d.name]
		fmt.Printf("# %-30s %14.4f %-6s (n=%d)\n", d.name, finite(s.value), d.unit, s.n)
	}
}

// finite maps the NaN of an empty sample (and any infinity) to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// queryLatencies are the full-response latencies of /query requests
// (batch and streamed) that succeeded.
func queryLatencies(results []*result) samples {
	var out samples
	for _, r := range results {
		if r.err == nil && r.req.kind != kindJoin {
			out.add(r.lat)
		}
	}
	return out
}

// checkCounters ties the program's own counters to what the benchmark
// sent in the measured phase.
func checkCounters(tl *tally, results []*result, before, after snapshot) {
	uncached, cached, rewrites := 0, 0, 0
	for _, r := range results {
		if r.err != nil {
			return // a failed request's source traffic is unknown
		}
		if r.req.kind != kindSelect {
			continue
		}
		if r.req.noCache {
			uncached++
			rewrites += r.v.rewrites
		} else {
			cached++
		}
	}
	if uncached == len(results) {
		got := after.src.Queries - before.src.Queries
		if want := uncached + rewrites; got != want {
			tl.fail(fmt.Sprintf("source counted %d queries; the responses account for %d (1 base + rewrites_issued each)", got, want))
		}
	}
	if cached == len(results) {
		c0, c1 := before.cache, after.cache
		got := (c1.Hits - c0.Hits) + (c1.Misses - c0.Misses) + (c1.Coalesced - c0.Coalesced)
		if got != uint64(cached) {
			tl.fail(fmt.Sprintf("answer cache counted %d lookups (hits+misses+coalesced) for %d cached requests", got, cached))
		}
	}
}

// endToEndStats derives the per-request costs of the measured phase from
// counter deltas and its CPU time at nominal speed. CPU time is the whole
// process's: mediator, HTTP on both ends and the answer checker.
func endToEndStats(results []*result, cpu time.Duration, before, after snapshot) map[string]stat {
	n := float64(len(results))
	return map[string]stat{
		"cpu_ms_per_req":      {ms(cpu) / n, len(results)},
		"src_queries_per_req": {float64(after.src.Queries-before.src.Queries) / n, len(results)},
		"tuples_per_req":      {float64(after.src.TuplesReturned-before.src.TuplesReturned) / n, len(results)},
	}
}

// wallClockStats derives the wall-clock figures of the measured phase.
func wallClockStats(results []*result, elapsed time.Duration) map[string]stat {
	var lat, ttfa, join samples
	for _, r := range results {
		if r.err != nil {
			continue
		}
		if r.req.kind == kindJoin {
			join.add(r.lat)
			continue
		}
		lat.add(r.lat)
		ttfa.add(r.ttfa)
	}
	ok := len(lat) + len(join)
	return map[string]stat{
		"qps":         {float64(ok) / elapsed.Seconds(), ok},
		"p50_ms":      {percentile(lat, 0.50), len(lat)},
		"p99_ms":      {percentile(lat, 0.99), len(lat)},
		"ttfa_p50_ms": {percentile(ttfa, 0.50), len(ttfa)},
		"join_p50_ms": {percentile(join, 0.50), len(join)},
	}
}

// layerCounters derives the per-layer metrics that come from counters
// over the untraced measured phase.
func layerCounters(results []*result, before, after snapshot) map[string]stat {
	n := float64(len(results))
	var size, skipped, cancelled, pairs float64
	streams, joins := 0, 0
	for _, r := range results {
		size += float64(r.size)
		switch r.req.kind {
		case kindStream:
			streams++
			skipped += float64(r.skipped)
			cancelled += float64(r.cancelled)
		case kindJoin:
			if r.v != nil {
				joins++
				pairs += float64(r.v.pairs)
			}
		}
	}
	c0, c1 := before.cache, after.cache
	hits, evict, coal := float64(c1.Hits-c0.Hits), float64(c1.Evictions-c0.Evictions), float64(c1.Coalesced-c0.Coalesced)
	lookups := hits + float64(c1.Misses-c0.Misses) + coal
	nr := len(results)
	return map[string]stat{
		"httpapi.resp_kb":               {size / n / 1024, nr},
		"qcache.hit_ratio":              {ratio(hits, lookups), int(lookups)},
		"qcache.evict_per_req":          {evict / n, nr},
		"qcache.coalesced_per_req":      {coal / n, nr},
		"source.busy_ms_per_req":        {ms(after.src.Latency.Sum-before.src.Latency.Sum) / n, nr},
		"source.retries_per_req":        {float64(after.src.Retries-before.src.Retries) / n, nr},
		"core.stream_skipped_per_req":   {ratio(skipped, float64(streams)), streams},
		"core.stream_cancelled_per_req": {ratio(cancelled, float64(streams)), streams},
		"core.join_pairs_per_req":       {ratio(pairs, float64(joins)), joins},
		"planner.skipped_per_req":       {float64(after.planner.SkippedFetches-before.planner.SkippedFetches) / n, nr},
		"planner.sched_wait_ratio":      {ratio(float64(after.waited-before.waited), float64(after.admitted-before.admitted)), int(after.admitted - before.admitted)},
		"runtime.alloc_kb_per_req":      {float64(after.totalAlloc-before.totalAlloc) / 1024 / n, nr},
		"runtime.gc_per_kreq":           {float64(after.numGC-before.numGC) * 1000 / n, nr},
	}
}
