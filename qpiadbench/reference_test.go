package main

import (
	"sort"
	"testing"
	"time"
)

func TestNominalScalesByMedianChunk(t *testing.T) {
	// Chunks ran at twice their nominal time, so the host ran at half
	// speed and 10 ms measured is 5 ms nominal.
	if got := nominal(10*time.Millisecond, []float64{2, 1.9, 2.1, 9, 2}); got != 5*time.Millisecond {
		t.Errorf("nominal = %v, want 5ms", got)
	}
}

func TestNominalCPUFollowsDrift(t *testing.T) {
	// 60 intervals of 10 ms CPU each: the first half at nominal speed, the
	// second at half speed. A single median would scale every interval
	// alike; the window scales each half by its own speed.
	s := &refSampler{}
	for i := 0; i <= 60; i++ {
		c := 1.0
		if i > 30 {
			c = 2
		}
		s.chunks = append(s.chunks, c)
		s.cpu = append(s.cpu, time.Duration(i)*10*time.Millisecond)
	}
	got := s.nominalCPU()
	// 30 intervals at 10 ms and 30 at 5 ms, except the intervals whose
	// window straddles the change.
	if got < 420*time.Millisecond || got > 480*time.Millisecond {
		t.Errorf("nominalCPU = %v, want about 450ms", got)
	}
}

func TestReferenceChunkIsTimed(t *testing.T) {
	r := newReference()
	for _, c := range r.runChunks(3) {
		if c <= 0 {
			t.Fatalf("chunk took %v ms of thread CPU time", c)
		}
	}
}

func TestWebdbDeckIsTheSameMixForEverySeed(t *testing.T) {
	draw := func(seed int64) []string {
		g := newZipfGen(seed)
		keys := make([]string, webdbDeck)
		for i := range keys {
			keys[i] = g.next().key
		}
		return keys
	}
	a, b := draw(1), draw(2)
	if equal(a, b) {
		t.Fatal("two seeds sent the same sequence")
	}
	sort.Strings(a)
	sort.Strings(b)
	if !equal(a, b) {
		t.Error("two seeds sent different mixes over one deck")
	}
}

func equal(a, b []string) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return len(a) == len(b)
}
