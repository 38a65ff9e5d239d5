package core

import (
	"context"
	"errors"
	"fmt"

	"qpiad/internal/relation"
)

// This file implements the streaming selection executor. Batch QuerySelect
// returns nothing until the last chosen rewrite has been folded and always
// pays for the full top-K fan-out. SelectStream runs the same pipeline body
// (runSelect in select.go) with an event callback, so it emits answers as
// they become available while preserving exactly the batch semantics:
//
//   - certain answers are emitted as soon as the base query returns, before
//     any rewriting work starts;
//   - rewrites are issued through the same fetch run (startFetch) as the
//     batch path, and their results are folded and emitted strictly in
//     issue (descending estimated precision) order — which is also rank
//     order, so the client receives the answer list incrementally in its
//     final order;
//   - a final summary event carries the reassembled ResultSet with the
//     usual Issued/Generated/Degraded accounting.
//
// Confidence-bound early termination (Config.TopN): possible answers
// inherit their retrieving query's estimated precision as their confidence,
// and rewrites are issued in descending precision order. Therefore once N
// possible answers have been emitted, every answer any unissued rewrite
// could contribute has confidence at most the precision of the last emitted
// rewrite — it would rank at or below everything already delivered, and the
// emitted prefix IS the top-N. The bound is admissible: stopping cannot
// change the top-N possible answers. When it trips, unissued rewrites are
// skipped (queries saved), in-flight ones are cancelled through their
// context, and the summary records what was saved.
//
// The executor sits on the lazy relational pipeline end to end: each
// rewrite's rows come from Source.QueryCtx, which streams Relation.Scan
// through its result cap and clones at the yield, so early termination here
// composes with early termination there — a cancelled or skipped rewrite
// stops pulling, and nothing upstream materializes (see the ownership rules
// in internal/relation/seq.go and DESIGN.md).

// StreamEventKind enumerates the streaming executor's event types.
type StreamEventKind uint8

const (
	// StreamAnswer carries one answer: Answer.Certain distinguishes certain
	// answers from possible ones, Unranked marks the multi-null tail.
	StreamEventAnswer StreamEventKind = iota
	// StreamRewrite reports one chosen rewrite's final outcome — succeeded
	// (with transfer accounting), failed after retries, budget-skipped, or
	// skipped/cancelled by the top-N bound.
	StreamEventRewrite
	// StreamSummary is the final event before the channel closes.
	StreamEventSummary
)

// String names the event kind.
func (k StreamEventKind) String() string {
	switch k {
	case StreamEventAnswer:
		return "answer"
	case StreamEventRewrite:
		return "rewrite"
	case StreamEventSummary:
		return "summary"
	default:
		return fmt.Sprintf("event(%d)", uint8(k))
	}
}

// StreamEvent is one message on a SelectStream channel. Exactly one of
// Answer, Rewrite and Summary is non-nil, per Kind.
type StreamEvent struct {
	Kind StreamEventKind
	// Answer is set on StreamAnswer events. Answers arrive in final rank
	// order: all certain answers first, then possible answers in descending
	// retrieving-query precision.
	Answer *Answer
	// Unranked marks an answer belonging to the unranked multi-null tail
	// rather than the ranked possible section.
	Unranked bool
	// Stale marks an answer replayed from the answer cache by the
	// stale-cache fallback (the source's circuit breaker was open). The
	// final summary's Result.Stale is set accordingly.
	Stale bool
	// Rewrite is set on StreamRewrite events.
	Rewrite *RewrittenQuery
	// Summary is set on the single StreamSummary event that ends a healthy
	// stream (it is omitted only when the caller's context is cancelled).
	Summary *StreamSummary
}

// StreamSummary closes a stream with the batch-equivalent result set and
// the early-termination savings accounting.
type StreamSummary struct {
	// Result is the fully reassembled result set. With Config.TopN == 0 it
	// is identical to what batch QuerySelect would have returned for the
	// same query (pinned by TestSelectStreamEquivalence).
	Result *ResultSet
	// EarlyStopped reports that the top-N confidence bound tripped.
	EarlyStopped bool
	// SkippedRewrites counts chosen rewrites never sent to the source
	// because the bound was already met — source queries saved outright.
	SkippedRewrites int
	// CancelledRewrites counts rewrites that were already in flight when
	// the bound tripped: their queries were issued (and are accounted in
	// the source metrics) but their results were discarded.
	CancelledRewrites int
	// EstSavedTuples estimates the tuples not transferred thanks to the
	// skipped rewrites (the sum of their selectivity estimates).
	EstSavedTuples float64
}

// ErrEarlyStop marks a chosen rewrite that was skipped or cancelled because
// the top-N confidence bound was met before its result was needed. Unlike
// every other RewrittenQuery.Err it does NOT degrade the result set: the
// emitted top-N is provably unaffected.
var ErrEarlyStop = errors.New("core: rewrite not needed: top-N confidence bound met")

// SelectStream is the streaming form of QuerySelect under the mediator's
// configuration. See SelectStreamWith.
func (m *Mediator) SelectStream(ctx context.Context, srcName string, q relation.Query) (<-chan StreamEvent, error) {
	return m.SelectStreamWith(ctx, m.cfg, srcName, q)
}

// SelectStreamWith runs the QPIAD selection pipeline and streams its output:
// certain answers as soon as the base query returns, possible answers
// incrementally in rank order as each rewrite completes, one StreamRewrite
// event per chosen rewrite, and a final StreamSummary, after which the
// channel is closed. The base query runs synchronously — without it there is
// nothing to stream — so base-query failure is reported as an error here
// rather than on the channel.
//
// cfg.TopN > 0 arms confidence-bound early termination (see the package
// comment above). Cancelling ctx aborts the stream: in-flight source queries
// are cancelled and the channel closes without a summary.
//
// The streaming path never consults the mediator answer cache for fresh
// answers: it exists to cut time-to-first-answer and source traffic on new
// queries; repeated identical queries are the batch path's territory. The
// one exception is the stale-cache fallback: when the source's circuit
// breaker rejects the base query and cfg.StaleTTL arms the fallback, the
// last cached answer within the staleness bound is replayed as a stream —
// every answer event flagged Stale — instead of failing.
func (m *Mediator) SelectStreamWith(ctx context.Context, cfg Config, srcName string, q relation.Query) (<-chan StreamEvent, error) {
	src, k, err := m.lookupKnown(srcName)
	if err != nil {
		return nil, err
	}
	bres := fetchOne(ctx, src, q, cfg.Retry)
	if bres.err != nil {
		err := fmt.Errorf("core: base query: %w", bres.err)
		if m.cache != nil && !cfg.NoCache {
			if rs, ok := m.staleFallback(answerKey(srcName, q, cfg), cfg, err); ok {
				events := make(chan StreamEvent)
				go streamStale(ctx, rs, events)
				return events, nil
			}
		}
		return nil, err
	}
	events := make(chan StreamEvent)
	go func() {
		defer close(events)
		emit := sendTo(ctx, events)
		emit(StreamEvent{Kind: StreamEventSummary, Summary: m.runSelect(ctx, cfg, src, k, q, bres.rows, emit)})
	}()
	return events, nil
}

// sendTo returns an emit function that sends on events until ctx is
// cancelled and drops every event after that.
func sendTo(ctx context.Context, events chan<- StreamEvent) func(StreamEvent) {
	live := true
	return func(ev StreamEvent) {
		if !live {
			return
		}
		select {
		case events <- ev:
		case <-ctx.Done():
			live = false
		}
	}
}

// streamStale replays a stale cached result as a stream: answers in their
// cached rank order, each flagged Stale, then the summary carrying the
// stale-marked result set. No rewrite events are emitted — nothing was
// issued to the source.
func streamStale(ctx context.Context, rs *ResultSet, events chan<- StreamEvent) {
	defer close(events)
	emit := sendTo(ctx, events)
	all := rs.AllAnswers()
	ranked := len(rs.Certain) + len(rs.Possible)
	for i := range all {
		emit(StreamEvent{Kind: StreamEventAnswer, Answer: &all[i], Unranked: i >= ranked, Stale: true})
	}
	emit(StreamEvent{Kind: StreamEventSummary, Summary: &StreamSummary{Result: rs}})
}
