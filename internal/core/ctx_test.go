package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"qpiad/internal/faults"
	"qpiad/internal/relation"
	"qpiad/internal/source"
)

// slowRetry is a policy whose full retry schedule takes many seconds —
// long enough that only context cancellation can explain a fast return.
func slowRetry() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 200,
		BaseBackoff: 50 * time.Millisecond,
		MaxBackoff:  50 * time.Millisecond,
	}
}

// TestCancelPrompt verifies that every batch entry point threads the
// caller's context into its source fetches: with permanently failing
// sources and a multi-second retry schedule, a 30ms context deadline must
// surface within a small bound, as an error wrapping
// context.DeadlineExceeded. Streaming and chain joins are covered by
// TestSelectStreamCancel and TestChainCancellationLazyBases.
func TestCancelPrompt(t *testing.T) {
	cfg := Config{Alpha: 1, K: 5, Retry: slowRetry()}
	gs := relation.NewQuery("gs", relation.Eq("body_style", relation.String("Convt")))
	correlated := func(t *testing.T) (*Mediator, []*source.Source) {
		f, ysrc, _ := newCorrelatedFixture(t, cfg)
		return f.m, []*source.Source{f.src, ysrc}
	}
	single := func(t *testing.T) (*Mediator, []*source.Source) {
		f := newFixture(t, cfg)
		return f.m, []*source.Source{f.src}
	}
	cases := []struct {
		name  string
		setup func(*testing.T) (*Mediator, []*source.Source)
		run   func(context.Context, *Mediator) error
	}{
		{"select", single, func(ctx context.Context, m *Mediator) error {
			_, err := m.QuerySelectWithCtx(ctx, m.Config(), "cars", convtQuery())
			return err
		}},
		{"aggregate", single, func(ctx context.Context, m *Mediator) error {
			q := convtQuery()
			q.Agg = &relation.Aggregate{Func: relation.AggCount}
			_, err := m.QueryAggregateWithCtx(ctx, m.Config(), "cars", q, AggOptions{IncludePossible: true})
			return err
		}},
		{"correlated", correlated, func(ctx context.Context, m *Mediator) error {
			_, err := m.QuerySelectCorrelatedCtx(ctx, "yahoo", gs)
			return err
		}},
		{"global", correlated, func(ctx context.Context, m *Mediator) error {
			_, err := m.QuerySelectGlobalCtx(ctx, gs)
			return err
		}},
		{"join", func(t *testing.T) (*Mediator, []*source.Source) {
			f := newJoinFixture(t, cfg)
			return f.m, []*source.Source{f.src, f.csrc}
		}, func(ctx context.Context, m *Mediator) error {
			_, err := m.QueryJoinCtx(ctx, joinSpec(0.5, 10))
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, srcs := tc.setup(t)
			for _, src := range srcs {
				src.SetFaults(faults.New(faults.Profile{Seed: 1, FailFirstAttempts: 1000}))
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			defer cancel()
			start := time.Now()
			err := tc.run(ctx, m)
			elapsed := time.Since(start)
			if err == nil {
				t.Fatal("expected error from cancelled context under permanent faults")
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("error should wrap context.DeadlineExceeded, got %v", err)
			}
			// The uncancelled schedule is 200 attempts × 50ms ≈ 10s; anything
			// close to that means the context was dropped on the floor.
			if elapsed > 2*time.Second {
				t.Errorf("cancellation not prompt: took %v", elapsed)
			}
		})
	}
}

// TestFetchAllParallelCtxCancel verifies the parallel fetch path threads the
// caller's context into every worker: a cancelled context stops all
// in-flight retries promptly instead of letting each goroutine run out its
// multi-second backoff schedule.
func TestFetchAllParallelCtxCancel(t *testing.T) {
	src := source.New("cars", buildCarsGD(100, 5), source.Capabilities{})
	src.SetFaults(faults.New(faults.Profile{Seed: 1, FailFirstAttempts: 1000}))
	queries := make([]relation.Query, 8)
	for i := range queries {
		queries[i] = convtQuery()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	results := startFetch(ctx, src, queries, 4, slowRetry(), nil, nil).wait()
	elapsed := time.Since(start)
	for i, res := range results {
		if res.err == nil {
			t.Errorf("result %d: expected error under permanent faults", i)
		}
	}
	if elapsed > 2*time.Second {
		t.Errorf("parallel cancellation not prompt: took %v", elapsed)
	}
}
