// Package tupleescape holds fixtures for the tupleescape analyzer.
package tupleescape

import "internal/relation"

// Sink models outer storage.
var Sink []relation.Tuple

// RangeEscapes stores yielded tuples into outer storage — every form flags.
func RangeEscapes(seq relation.TupleSeq) []relation.Tuple {
	var out []relation.Tuple
	var last relation.Tuple
	byKey := map[string]relation.Tuple{}
	for t := range seq {
		out = append(out, t)   // want "stored into out"
		last = t               // want "stored into last"
		byKey[t.Key()] = t     // want "stored into byKey"
		Sink = append(Sink, t) // want "stored into Sink"
		_ = last
	}
	return out
}

// RangeReslice shares the backing array just like the bare tuple.
func RangeReslice(seq relation.TupleSeq) {
	var head relation.Tuple
	for t := range seq {
		head = t[:1] // want "stored into head"
	}
	_ = head
}

// CallbackEscapes covers the func(Tuple)-shaped iterator callbacks.
func CallbackEscapes(seq relation.TupleSeq) {
	var kept []relation.Tuple
	seq.Filter(func(t relation.Tuple) bool {
		kept = append(kept, t) // want "stored into kept"
		return true
	})
	seq.Map(func(t relation.Tuple) relation.Tuple {
		Sink = append(Sink, t) // want "stored into Sink"
		return t
	})
	_ = kept
}

// CleanConsumers exercise every exempt pattern: Clone barriers, element
// reads, value spreads, inner-scoped storage, and plain slice ranges.
func CleanConsumers(seq relation.TupleSeq, batch []relation.Tuple) {
	var out []relation.Tuple
	var vals []relation.Value
	var keys []string
	for t := range seq {
		out = append(out, t.Clone()) // Clone owns its storage
		if len(t) > 0 {
			vals = append(vals, t[0]) // element read is a value copy
		}
		vals = append(vals, t...) // spread copies values element-wise
		keys = append(keys, t.Key())
		held := t // inner-scoped: dies with the iteration
		_ = held
	}
	for _, t := range batch {
		// Plain []Tuple ranges are governed by the producing API's
		// ownership contract, not flagged per yield.
		out = append(out, t)
	}
	seq.Filter(func(t relation.Tuple) bool { return !t[0].IsNull() })
	_, _ = out, keys
}

// Audited shows the suppression form used at documented materialization
// points; the line must stay clean.
func Audited(seq relation.TupleSeq) []relation.Tuple {
	var out []relation.Tuple
	for t := range seq {
		//lint:allow tupleescape fixture: documented materialization point
		out = append(out, t)
	}
	return out
}
