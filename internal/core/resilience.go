package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"qpiad/internal/breaker"
	"qpiad/internal/faults"
	"qpiad/internal/planner"
	"qpiad/internal/relation"
	"qpiad/internal/source"
)

// RetryPolicy bounds how hard the mediator works to get one query through a
// flaky source. The zero value means "3 attempts, small exponential
// backoff, no deadlines" — safe for perfectly reliable sources, where no
// retryable error ever occurs and the policy is inert.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per query (first try
	// included). <= 0 means the default of 3.
	MaxAttempts int
	// BaseBackoff is the delay before the second attempt; it doubles per
	// attempt. <= 0 means the default of 2ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the per-attempt backoff. <= 0 means the default of
	// 250ms.
	MaxBackoff time.Duration
	// AttemptTimeout, when > 0, bounds each individual attempt with a
	// context deadline (injected timeouts block until it expires).
	AttemptTimeout time.Duration
	// QueryDeadline, when > 0, bounds the whole query — all attempts plus
	// backoffs. Once it expires no further attempts are made.
	QueryDeadline time.Duration
	// JitterSeed seeds the backoff jitter, keyed per query, so sleep
	// schedules are reproducible run to run.
	JitterSeed int64
	// Hedge arms hedged requests on sources guarded by a circuit breaker.
	Hedge HedgePolicy
}

// HedgePolicy tunes hedged requests: when an attempt against a
// breaker-guarded source is still in flight past the source's observed p95
// service time, a second attempt is raced against it and the first success
// wins; the loser is cancelled through its context. The hedge leg is
// tagged (faults.WithHedge) so the source accounts it under Stats.Hedged,
// and the breaker records wins/losses — source-load numbers stay honest.
type HedgePolicy struct {
	// Enabled arms hedging. Sources without a breaker (no p95 signal) are
	// never hedged.
	Enabled bool
	// MinDelay / MaxDelay clamp the p95-derived hedge delay; <= 0 leaves
	// the corresponding bound unset.
	MinDelay time.Duration
	MaxDelay time.Duration
}

// DefaultRetryPolicy is the resolved zero-value policy.
func DefaultRetryPolicy() RetryPolicy { return RetryPolicy{}.withDefaults() }

// withDefaults resolves zero fields to their defaults.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 2 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 250 * time.Millisecond
	}
	return p
}

// queryable is the slice of the source API the fetch path needs.
type queryable interface {
	QueryCtx(context.Context, relation.Query) ([]relation.Tuple, error)
}

// fetchResult is the outcome of fetching one query, retries included.
type fetchResult struct {
	rows     []relation.Tuple
	err      error // final error, nil on success
	attempts int   // attempts actually made (0 when skipped unissued)
}

// errSkippedBudget marks a query the mediator never sent because the source
// had already reported budget exhaustion. errors.Is(err,
// source.ErrQueryBudget) holds, so callers classify skips like the refusal
// that triggered them.
var errSkippedBudget = fmt.Errorf("core: rewrite not issued: %w", source.ErrQueryBudget)

// errSkippedOpen marks a query the mediator never sent because the source's
// circuit breaker had already rejected an earlier query in the same plan.
// errors.Is(err, breaker.ErrOpen) holds, so callers classify skips like the
// rejection that triggered them, and the skipped rewrites' selectivity
// estimates are accounted as saved tuples (ResultSet.EstSavedTuples).
var errSkippedOpen = fmt.Errorf("core: rewrite not issued: %w", breaker.ErrOpen)

// fetchOne issues q with bounded retries: exponential backoff with seeded
// jitter between attempts, per-attempt and per-query deadlines from the
// policy. Only retryable errors (transient faults, timeouts) are retried;
// deterministic refusals — capability rejections (ErrUnsupportedAttr,
// ErrNullBinding, ErrRangeBinding), budget exhaustion, and open-circuit
// admission rejections (breaker.ErrOpen) — return immediately: retrying a
// source that refused on principle only wastes its budget.
func fetchOne(ctx context.Context, src queryable, q relation.Query, pol RetryPolicy) fetchResult {
	pol = pol.withDefaults()
	if pol.QueryDeadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, pol.QueryDeadline)
		defer cancel()
	}
	var rng *rand.Rand
	var res fetchResult
	for attempt := 1; ; attempt++ {
		res.attempts = attempt
		actx := faults.WithAttempt(ctx, attempt)
		cancel := context.CancelFunc(func() {})
		if pol.AttemptTimeout > 0 {
			actx, cancel = context.WithTimeout(actx, pol.AttemptTimeout)
		}
		res.rows, res.err = attemptQuery(actx, src, q, pol)
		cancel()
		if res.err == nil || !faults.Retryable(res.err) ||
			attempt >= pol.MaxAttempts || ctx.Err() != nil {
			return res
		}
		d := pol.BaseBackoff << (attempt - 1)
		if d <= 0 || d > pol.MaxBackoff {
			d = pol.MaxBackoff
		}
		// Half fixed, half jittered; the rng is keyed by (seed, query) so a
		// rerun replays the same sleep schedule.
		if rng == nil {
			rng = rand.New(rand.NewSource(jitterSeed(pol.JitterSeed, q.Key())))
		}
		d = d/2 + time.Duration(rng.Int63n(int64(d/2)+1))
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			res.err = fmt.Errorf("core: canceled during retry backoff: %w", ctx.Err())
			return res
		}
	}
}

// fetchOneSched is fetchOne behind the cross-query scheduler: the fetch
// holds a scheduler slot for its whole duration (retries and backoffs
// included), so concurrent plans' rewrites are admitted to the shared
// source pool in priority order. A nil scheduler degrades to plain
// fetchOne. A cancelled wait resolves like any other cancellation: the
// rewrite is accounted failed, never silently dropped.
func fetchOneSched(ctx context.Context, src queryable, q relation.Query, pol RetryPolicy, sched *planner.Scheduler, pri float64) fetchResult {
	if sched != nil {
		if err := sched.Acquire(ctx, pri); err != nil {
			return fetchResult{err: fmt.Errorf("core: canceled awaiting scheduler slot: %w", err)}
		}
		defer sched.Release()
	}
	return fetchOne(ctx, src, q, pol)
}

// jitterSeed hashes (seed, query key) into a backoff-jitter rng seed.
func jitterSeed(seed int64, queryKey string) int64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(uint64(seed) >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(queryKey))
	return int64(h.Sum64())
}

// breakered is the optional slice of the source API the hedging path needs:
// *source.Source implements it; bare test queryables do not and are simply
// never hedged.
type breakered interface {
	Breaker() *breaker.Breaker
}

// hedgeAttemptOffset displaces the hedge leg's fault-decision coordinate so
// the seeded injector deals it independent dice: a primary doomed by an
// injected fault does not deterministically doom its hedge. The offset is
// far above any real retry count, so the two coordinate spaces never
// collide.
const hedgeAttemptOffset = 1 << 16

// attemptQuery is one attempt of fetchOne: a plain QueryCtx unless hedging
// is armed, the source carries a breaker, and that breaker has observed
// enough outcomes to publish a p95 — in which case the attempt is raced
// against a delayed hedge.
func attemptQuery(ctx context.Context, src queryable, q relation.Query, pol RetryPolicy) ([]relation.Tuple, error) {
	if !pol.Hedge.Enabled {
		return src.QueryCtx(ctx, q)
	}
	bs, ok := src.(breakered)
	if !ok {
		return src.QueryCtx(ctx, q)
	}
	br := bs.Breaker()
	if br == nil {
		return src.QueryCtx(ctx, q)
	}
	delay := br.HedgeDelay(pol.Hedge.MinDelay, pol.Hedge.MaxDelay)
	if delay <= 0 {
		return src.QueryCtx(ctx, q)
	}
	return hedgedQuery(ctx, src, q, br, delay)
}

// hedgeLeg is one raced attempt's outcome.
type hedgeLeg struct {
	rows  []relation.Tuple
	err   error
	hedge bool // true for the second (hedge) leg
}

// hedgedQuery races the primary attempt against a hedge attempt launched
// after delay (the source's observed p95): the first success wins and the
// loser is cancelled through the shared context. The hedge leg is tagged
// with faults.WithHedge (for honest source accounting) and a displaced
// attempt coordinate (for independent fault dice). The loser is always
// drained before returning, so accounting is settled — and no goroutine
// outlives the call — by the time the caller sees the result. When both
// legs fail, the primary's error is returned (it reflects the undisturbed
// retry classification).
func hedgedQuery(ctx context.Context, src queryable, q relation.Query, br *breaker.Breaker, delay time.Duration) ([]relation.Tuple, error) {
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	legs := make(chan hedgeLeg, 2) // buffered: a cancelled loser never blocks
	launch := func(lctx context.Context, hedge bool) {
		go func() {
			rows, err := src.QueryCtx(lctx, q)
			legs <- hedgeLeg{rows: rows, err: err, hedge: hedge}
		}()
	}
	launch(hctx, false)

	timer := time.NewTimer(delay)
	defer timer.Stop()
	hedged := false
	var firstFail *hedgeLeg
	for {
		select {
		case leg := <-legs:
			switch {
			case leg.err == nil:
				if hedged {
					br.RecordHedge(leg.hedge)
					cancel()
					if firstFail == nil {
						<-legs // drain the loser: accounting settles before return
					}
				}
				return leg.rows, nil
			case !hedged:
				// The primary failed before the hedge fired: a plain failed
				// attempt, classified by the retry loop as usual.
				return leg.rows, leg.err
			case firstFail == nil:
				// One of two racing legs failed; the other may still win.
				l := leg
				firstFail = &l
			default:
				// Both legs failed: the hedge bought nothing.
				br.RecordHedge(false)
				if firstFail.hedge {
					return leg.rows, leg.err
				}
				return firstFail.rows, firstFail.err
			}
		case <-timer.C:
			if !hedged {
				hedged = true
				attempt := faults.Attempt(ctx)
				lctx := faults.WithHedge(faults.WithAttempt(hctx, attempt+hedgeAttemptOffset))
				launch(lctx, true)
			}
		}
	}
}

// fetchRun is one plan's fan-out through the mediator's only fetch pool.
// Every pipeline that issues a list of rewrites — batch and streaming
// select, aggregate, correlated select — goes through it: batch callers
// take the positional results with wait, the streaming executor takes each
// one with result as soon as it resolves and may stop admission mid-run.
type fetchRun struct {
	results []fetchResult
	ready   []chan struct{}
	wg      sync.WaitGroup
	stop    atomic.Bool
	cancel  context.CancelFunc
}

// startFetch issues the queries against the source, at most parallel at a
// time, each under the retry policy and a context derived from ctx —
// cancelling ctx (or calling stopIssuing) stops in-flight attempts and
// retry backoffs promptly. Results are positional so callers process them
// in the original precision order regardless of completion order.
//
// Ordered admission: query i waits for query i-1 to be either admitted by
// the source (budget consumed, via source.WithAdmitSignal) or finished
// before it competes for one of max(parallel, 1) slots. Execution overlaps
// up to the slot count while budget consumption stays in index order. With
// one slot the pool is strictly sequential: query i gets the slot only
// after query i-1 releases it, and i-1 records its budget and open-circuit
// outcome before releasing.
//
// Budget-aware early stop: once the source reports ErrQueryBudget, the
// remaining queries are not issued at all — they resolve to
// errSkippedBudget without touching the source, so the Rejected counter
// reflects exactly one refusal.
//
// Breaker-aware early stop mirrors the budget behavior: once the source's
// circuit breaker rejects a query (breaker.ErrOpen), the remaining queries
// resolve to errSkippedOpen without being issued. One rejection per plan is
// enough evidence — hammering an open circuit with the rest of the top-K
// would only inflate BreakerRejected without retrieving anything.
//
// Each fetch holds a cross-query scheduler slot (admitted by priority
// against concurrent plans) for its duration; pris are positional
// priorities, nil meaning zero, and a nil sched disables that. The
// scheduler composes with — it does not replace — the plan-local admission
// order. Skipped queries never touch the scheduler.
//
// Note: when retries race with successors' admissions (faults + budget +
// parallel combined), which attempt consumes the last budget slot is
// scheduling-dependent; fault decisions themselves stay deterministic.
func startFetch(ctx context.Context, src queryable, queries []relation.Query, parallel int, pol RetryPolicy, sched *planner.Scheduler, pris []float64) *fetchRun {
	ctx, cancel := context.WithCancel(ctx)
	f := &fetchRun{
		results: make([]fetchResult, len(queries)),
		ready:   make([]chan struct{}, len(queries)),
		cancel:  cancel,
	}
	sem := make(chan struct{}, max(parallel, 1))
	// gates[i] opens when query i-1 has been admitted or has finished;
	// gates[0] is open from the start.
	gates := make([]chan struct{}, len(queries)+1)
	for i := range gates {
		gates[i] = make(chan struct{})
	}
	close(gates[0])
	var budgetOut, openOut atomic.Bool
	for i, q := range queries {
		f.ready[i] = make(chan struct{})
		pri := 0.0
		if i < len(pris) {
			pri = pris[i]
		}
		f.wg.Add(1)
		go func(i int, q relation.Query) {
			defer f.wg.Done()
			defer close(f.ready[i])
			var once sync.Once
			open := func() { once.Do(func() { close(gates[i+1]) }) }
			defer open() // skipped/finished queries release the successor too
			// Gate first, semaphore second: a semaphore holder is always
			// executing (never gate-waiting), so the chain cannot deadlock.
			<-gates[i]
			sem <- struct{}{}
			defer func() { <-sem }()
			switch {
			case f.stop.Load():
				f.results[i] = fetchResult{err: ErrEarlyStop}
			case openOut.Load():
				f.results[i] = fetchResult{err: errSkippedOpen}
			case budgetOut.Load():
				f.results[i] = fetchResult{err: errSkippedBudget}
			default:
				qctx := source.WithAdmitSignal(ctx, open)
				f.results[i] = fetchOneSched(qctx, src, q, pol, sched, pri)
				if errors.Is(f.results[i].err, source.ErrQueryBudget) {
					budgetOut.Store(true)
				}
				if errors.Is(f.results[i].err, breaker.ErrOpen) {
					openOut.Store(true)
				}
			}
		}(i, q)
	}
	return f
}

// result blocks until query i has resolved (completed, failed, or been
// skipped) and returns its outcome.
func (f *fetchRun) result(i int) fetchResult {
	<-f.ready[i]
	return f.results[i]
}

// stopIssuing prevents any not-yet-admitted query from being sent (it will
// resolve with ErrEarlyStop) and cancels the context governing in-flight
// fetches.
func (f *fetchRun) stopIssuing() {
	f.stop.Store(true)
	f.cancel()
}

// wait blocks until every query has resolved, releases the run's context,
// and returns the positional results.
func (f *fetchRun) wait() []fetchResult {
	f.wg.Wait()
	f.cancel()
	return f.results
}
