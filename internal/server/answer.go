package server

// The wire form of an AnswerSet, shared by /query/knn, /query/within
// and /query/possibly-within:
//
//	{"class":"past","tau":12.5,"answers":{"o17":[{"lo":1,"hi":2}]},"events":40}
//
// Tau is the snapshot time the answer was computed over; class always
// equals query.Classify(lo, hi, tau) — the invariant the race test
// pins. Events is the sweep's event count (0 for the uncertainty query,
// which is not a sweep).
//
// An uncertainty answer names thousands of objects, and building it as
// a map for encoding/json cost more than computing it. The encoder
// below appends the same bytes encoding/json would write for
//
//	struct{ Class string; Tau float64; Answers map[string][]struct{ Lo, Hi float64 }; Events int }
//
// — keys in the byte order of their strings ("o10" before "o2"), the
// same float formatting, [] for an object without intervals — straight
// from the set's own storage. The golden test holds it to that.

import (
	"cmp"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"

	"repro/internal/mod"
	"repro/internal/query"
)

// okAnswer writes an answer envelope with status 200. Like ok it
// encodes before touching the ResponseWriter, so a value JSON cannot
// carry (a non-finite float a handler let through) becomes a clean 500
// and never a truncated body under a success status.
func (s *Server) okAnswer(w http.ResponseWriter, ans *query.AnswerSet, cls query.Class, tau float64, events int) {
	data, err := appendAnswer(nil, ans, cls, tau, events)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, fmt.Errorf("encode response: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(append(data, '\n'))
}

// answerEntry is one object of an answer on its way to the wire. lead
// orders the entries as encoding/json orders the keys "o<decimal OID>":
// by the bytes of the string, which for decimal numerals is by the
// digits read from the left, a numeral that is a prefix of another
// going first.
type answerEntry struct {
	lead uint64 // the numeral's first 19 digits, zero-padded on the right
	o    mod.OID
	ivs  []query.Interval
}

// pow10 holds the powers of ten a uint64 can carry.
var pow10 = func() (p [20]uint64) {
	p[0] = 1
	for i := 1; i < len(p); i++ {
		p[i] = 10 * p[i-1]
	}
	return p
}()

func newAnswerEntry(o mod.OID, ivs []query.Interval) answerEntry {
	digits := 1
	for digits < len(pow10) && uint64(o) >= pow10[digits] {
		digits++
	}
	lead := uint64(o) / 10 // twenty digits: drop the last
	if digits < len(pow10) {
		lead = uint64(o) * pow10[len(pow10)-1-digits]
	}
	return answerEntry{lead: lead, o: o, ivs: ivs}
}

// compareAnswerEntries is strings.Compare on the entries' keys. Two
// numerals with equal leads are one the other followed by zeros, or
// twenty digits each and apart in the last: either way the smaller
// number is the smaller string.
func compareAnswerEntries(a, b answerEntry) int {
	return cmp.Or(cmp.Compare(a.lead, b.lead), cmp.Compare(a.o, b.o))
}

// Upper bounds on the encoded size of the envelope, of one object's key
// and brackets, and of one interval (a float64 prints in at most 24
// bytes), so appendAnswer sizes its buffer once.
const (
	envelopeBytes = 128
	objectBytes   = 28
	intervalBytes = 64
)

// appendAnswer appends the envelope to dst. The error is the one
// encoding/json reports for a non-finite float.
func appendAnswer(dst []byte, ans *query.AnswerSet, cls query.Class, tau float64, events int) ([]byte, error) {
	objects, intervals := 0, 0
	ans.Each(func(_ mod.OID, ivs []query.Interval) {
		objects++
		intervals += len(ivs)
	})
	entries := make([]answerEntry, 0, objects)
	ans.Each(func(o mod.OID, ivs []query.Interval) {
		entries = append(entries, newAnswerEntry(o, ivs))
	})
	slices.SortFunc(entries, compareAnswerEntries)

	dst = slices.Grow(dst, envelopeBytes+objects*objectBytes+intervals*intervalBytes)
	var err error
	dst = append(dst, `{"class":"`...)
	dst = append(dst, cls.String()...) // one of Class's four plain words: nothing to escape
	dst = append(dst, `","tau":`...)
	if dst, err = appendFloat(dst, tau); err != nil {
		return nil, err
	}
	dst = append(dst, `,"answers":{`...)
	for i, e := range entries {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `"o`...)
		dst = strconv.AppendUint(dst, uint64(e.o), 10)
		dst = append(dst, `":[`...)
		for j, iv := range e.ivs {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"lo":`...)
			if dst, err = appendFloat(dst, iv.Lo); err != nil {
				return nil, err
			}
			dst = append(dst, `,"hi":`...)
			if dst, err = appendFloat(dst, iv.Hi); err != nil {
				return nil, err
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `},"events":`...)
	dst = strconv.AppendInt(dst, int64(events), 10)
	return append(dst, '}'), nil
}

// appendFloat appends f as encoding/json formats a float64: the
// shortest decimal that round-trips, in exponent form below 1e-6 and
// from 1e21 up, with a one-digit negative exponent not padded to two.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) { //modlint:allow floatcmp -- exact: zero alone prints as 0 whatever its size class
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}
