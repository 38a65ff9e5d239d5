package main

import (
	"runtime"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// A shared host's speed drifts. The same select-cpu code measured 104, 175
// and 248 req/s in three ten-run sets an hour apart, and its CPU time per
// request moved with it: a core whose caches another guest shares runs
// each instruction slower. So the benchmark runs a fixed reference
// computation alongside every timed phase and states CPU times at a
// nominal speed: CPU time t spent while one reference chunk took CPU time
// r is reported as t·refNominal/r. Over twelve 4-second select-cpu runs,
// a chunk over a 1024- or 4096-key map took the spread of CPU time per
// request from 0.21 of its median to 0.05 or 0.06; a pure arithmetic loop
// left it at 0.17, and a map too large for the caches at 0.16.

// refNominal is the CPU time one reference chunk takes at nominal speed.
const refNominal = time.Millisecond

// refKeys and refProbes size a reference chunk: a string-keyed map that
// fits the per-core caches, probed in a fixed scattered order, each value
// formatted and hashed, much as the mediator keys, dedups and encodes
// tuples. A chunk takes about refNominal on a 2-vCPU cloud container.
const (
	refKeys   = 2048
	refProbes = 10000
)

// reference is the fixed reference computation. It allocates nothing, so
// no garbage-collector assist is charged to it.
type reference struct {
	keys  []string
	m     map[string]int64
	order []int32
	buf   []byte
	sink  uint64
}

func newReference() *reference {
	r := &reference{keys: make([]string, refKeys), m: make(map[string]int64, refKeys), order: make([]int32, refProbes), buf: make([]byte, 0, 32)}
	for i := range r.keys {
		r.keys[i] = "model=" + strconv.Itoa(i*7919) + "|year=" + strconv.Itoa(1996+i%10)
		r.m[r.keys[i]] = int64(i) * 2654435761
	}
	x := uint32(1)
	for i := range r.order {
		x = x*1664525 + 1013904223
		r.order[i] = int32(x % refKeys)
	}
	return r
}

// chunk runs one reference chunk and returns the CPU time this thread
// spent on it. The caller must be locked to its OS thread.
func (r *reference) chunk() time.Duration {
	t0 := threadCPU()
	h := uint64(14695981039346656037)
	for _, i := range r.order {
		r.buf = strconv.AppendInt(r.buf[:0], r.m[r.keys[i]], 10)
		for _, c := range r.buf {
			h = (h ^ uint64(c)) * 1099511628211
		}
	}
	r.sink += h
	return threadCPU() - t0
}

// nominal states CPU time t, spent while reference chunks took chunks
// milliseconds (their median), at nominal speed.
func nominal(t time.Duration, chunks []float64) time.Duration {
	return time.Duration(float64(t) * ms(refNominal) / median(chunks))
}

// runChunks runs n reference chunks on a locked thread and returns their
// CPU times in milliseconds.
func (r *reference) runChunks(n int) []float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	out := make([]float64, n)
	for i := range out {
		out[i] = ms(r.chunk())
	}
	return out
}

const (
	// refEvery is how often a timed phase runs a reference chunk.
	refEvery = 50 * time.Millisecond
	// refWindow is how many chunks on each side of an interval set its
	// speed: about a second, so the speed follows drift within a run.
	refWindow = 10
)

// refSampler runs a reference chunk every refEvery on its own locked
// thread while a timed phase runs, and reads the process CPU time after
// each chunk.
type refSampler struct {
	stop   chan struct{}
	done   chan struct{}
	chunks []float64       // CPU time of each chunk, ms
	cpu    []time.Duration // process CPU time after each chunk, less every chunk's own
}

func (r *reference) start() *refSampler {
	s := &refSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		t := time.NewTicker(refEvery)
		defer t.Stop()
		var own time.Duration
		for stopped := false; ; {
			c := r.chunk()
			own += c
			s.chunks = append(s.chunks, ms(c))
			s.cpu = append(s.cpu, processCPU()-own)
			if stopped {
				return
			}
			select {
			case <-s.stop:
				stopped = true // one last chunk closes the phase
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops the sampler after one last chunk.
func (s *refSampler) finish() {
	close(s.stop)
	<-s.done
}

// nominalCPU is the process CPU time from the first chunk to the last,
// less the chunks' own, at nominal speed: each interval between two
// chunks is scaled by the median of the chunks within refWindow of it.
func (s *refSampler) nominalCPU() time.Duration {
	var total time.Duration
	for i := 1; i < len(s.cpu); i++ {
		lo, hi := max(0, i-refWindow), min(len(s.chunks), i+refWindow+1)
		total += nominal(s.cpu[i]-s.cpu[i-1], s.chunks[lo:hi])
	}
	return total
}

// threadCPU is the CPU time the calling OS thread has run.
func threadCPU() time.Duration { return clockCPU(3) } // CLOCK_THREAD_CPUTIME_ID

// processCPU is the CPU time every thread of this process has run, user
// plus system. The kernel leaves out time the hypervisor gave another
// guest (steal) and time another process ran.
func processCPU() time.Duration { return clockCPU(2) } // CLOCK_PROCESS_CPUTIME_ID

func clockCPU(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
