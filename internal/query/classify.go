package query

import "fmt"

// The paper's taxonomy (Definitions 4 and 5): an answer object is *valid*
// if it stays in the answer under every possible future update sequence;
// a query is past / future / continuing according to whether its answer
// is entirely valid / entirely revocable / mixed. Theorem 2 shows the
// classification is undecidable for arbitrary constraint queries — but
// for FO(f) queries over an interval I the structure is transparent:
// updates are chronological, so everything at or before the database time
// tau is settled and everything after it is prediction. This file exposes
// that decidable special case.

// Class is the paper's query classification.
type Class int

const (
	// Past: the whole interval lies in settled history; every answer is
	// valid (Q(D) = Q^v(D)).
	Past Class = iota
	// Future: the whole interval lies beyond the last update; no answer
	// is valid yet (Q^v(D) = empty).
	Future
	// Continuing: the interval straddles the last update; answers up to
	// tau are valid, the rest are predictions.
	Continuing
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Past:
		return "past"
	case Future:
		return "future"
	case Continuing:
		return "continuing"
	default:
		return "unknown"
	}
}

// Classify places an FO(f) query interval [lo, hi] relative to the
// database's last-update time tau (Definition 5, specialized to
// interval queries where it is decidable).
func Classify(lo, hi, tau float64) (Class, error) {
	if !(lo <= hi) {
		return Past, fmt.Errorf("query: inverted interval [%g,%g]", lo, hi)
	}
	switch {
	case hi <= tau:
		return Past, nil
	case lo > tau:
		return Future, nil
	default:
		return Continuing, nil
	}
}

// ValidAnswer is Definition 4's Q^v restricted to an answer set computed
// over [lo, hi]: the memberships settled at or before tau. Intervals that
// straddle tau are truncated; purely-predicted intervals are dropped.
// The returned set is finished at min(hi, tau).
func ValidAnswer(ans *AnswerSet, lo, hi, tau float64) *AnswerSet {
	out := NewAnswerSet()
	cut := tau
	if hi < cut {
		cut = hi
	}
	for _, o := range ans.Objects() {
		for _, iv := range ans.Intervals(o) {
			if iv.Lo > cut {
				continue
			}
			h := iv.Hi
			if h > cut {
				h = cut
			}
			out.Enter(o, iv.Lo)
			out.Leave(o, h)
			if h == iv.Lo { //modlint:allow floatcmp -- both sides clipped to the same stored bound; a point interval is exact by construction
				out.Point(o, iv.Lo)
			}
		}
	}
	out.Finish(cut)
	return out
}

// PredictedAnswer returns the complement view: memberships that extend
// beyond tau — correct only if no further update intervenes (the paper's
// caution about "mixing true answers with predictions").
func PredictedAnswer(ans *AnswerSet, lo, hi, tau float64) *AnswerSet {
	out := NewAnswerSet()
	if tau >= hi {
		out.Finish(hi)
		return out
	}
	for _, o := range ans.Objects() {
		for _, iv := range ans.Intervals(o) {
			if iv.Hi <= tau {
				continue
			}
			l := iv.Lo
			if l < tau {
				l = tau
			}
			out.Enter(o, l)
			out.Leave(o, iv.Hi)
			if iv.Hi == l { //modlint:allow floatcmp -- both sides clipped to the same stored bound; a point interval is exact by construction
				out.Point(o, l)
			}
		}
	}
	out.Finish(hi)
	return out
}
