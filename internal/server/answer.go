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
// from the set's run (query.AnswerSet.Run), which ascends by OID. Among
// numerals of one decimal length the numeric order is the byte order,
// so the run is at most twenty stretches, one per length, each already
// in key order; the encoder merges them and sorts nothing. The golden
// tests hold it to encoding/json and to the sort it replaced.

import (
	"cmp"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"repro/internal/mod"
	"repro/internal/query"
)

// answerBuf is a pooled encode buffer: an answer is encoded into it and
// written from it, so a request allocates no envelope of its own.
type answerBuf struct{ b []byte }

var answerPool = sync.Pool{New: func() any { return new(answerBuf) }}

// maxPooledAnswer is the largest buffer the pool keeps: one huge answer
// must not pin its envelope for every later request.
const maxPooledAnswer = 1 << 20

// okAnswer writes an answer envelope with status 200 and reports the
// objects it names and the bytes written (both 0 if it failed). Like ok
// it encodes before touching the ResponseWriter, so a value JSON cannot
// carry (a non-finite float a handler let through) becomes a clean 500
// and never a truncated body under a success status.
func (s *Server) okAnswer(w http.ResponseWriter, ans *query.AnswerSet, cls query.Class, tau float64, events int) (objects, bytes int) {
	buf := answerPool.Get().(*answerBuf)
	defer answerPool.Put(buf)
	data, objects, err := appendAnswer(buf.b[:0], ans, cls, tau, events)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, fmt.Errorf("encode response: %w", err), nil)
		return 0, 0
	}
	data = append(data, '\n')
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
	if cap(data) <= maxPooledAnswer {
		buf.b = data // keep the grown buffer
	}
	return objects, len(data)
}

// answerEntry is one object of an answer as the merge compares it. lead
// orders the entries as encoding/json orders the keys "o<decimal OID>":
// by the bytes of the string, which for decimal numerals is by the
// digits read from the left, a numeral that is a prefix of another
// going first.
type answerEntry struct {
	lead uint64 // the numeral's first 19 digits, zero-padded on the right
	o    mod.OID
}

// pow10 holds the powers of ten a uint64 can carry.
var pow10 = func() (p [20]uint64) {
	p[0] = 1
	for i := 1; i < len(p); i++ {
		p[i] = 10 * p[i-1]
	}
	return p
}()

// newAnswerEntry is the entry of o, a numeral of the given length.
func newAnswerEntry(o mod.OID, digits int) answerEntry {
	lead := uint64(o) / 10 // twenty digits: drop the last
	if digits < len(pow10) {
		lead = uint64(o) * pow10[len(pow10)-1-digits]
	}
	return answerEntry{lead: lead, o: o}
}

// compareAnswerEntries is strings.Compare on the entries' keys. Two
// numerals with equal leads are one the other followed by zeros, or
// twenty digits each and apart in the last: either way the smaller
// number is the smaller string.
func compareAnswerEntries(a, b answerEntry) int {
	return cmp.Or(cmp.Compare(a.lead, b.lead), cmp.Compare(a.o, b.o))
}

// lengthClass is the stretch run[next:end] of an answer's run whose
// OIDs have one decimal length, with its first object as an entry.
type lengthClass struct {
	head      answerEntry
	next, end int
	digits    int
}

// floatMemo remembers where in the output the text of one float64
// lies. Most intervals of an answer are clipped to the query window's
// own bounds, so the last lo and the last hi formatted are worth
// keeping; equal bits have equal text, so the reuse is exact.
type floatMemo struct {
	bits     uint64
	from, to int // the text is dst[from:to]; to == 0 before the first
}

// append appends f to dst, copying the remembered text when f is the
// float it was formatted from.
func (m *floatMemo) append(dst []byte, f float64) ([]byte, error) {
	bits := math.Float64bits(f)
	if m.to > 0 && bits == m.bits {
		return append(dst, dst[m.from:m.to]...), nil
	}
	from := len(dst)
	dst, err := appendFloat(dst, f)
	if err != nil {
		return nil, err
	}
	*m = floatMemo{bits: bits, from: from, to: len(dst)}
	return dst, nil
}

// Upper bounds on the encoded size of the envelope, of one object's key
// and brackets, and of one interval (a float64 prints in at most 24
// bytes), so appendAnswer sizes its buffer once.
const (
	envelopeBytes = 128
	objectBytes   = 28
	intervalBytes = 64
)

// appendAnswer appends the envelope to dst and reports how many objects
// it names. The error is the one encoding/json reports for a non-finite
// float.
func appendAnswer(dst []byte, ans *query.AnswerSet, cls query.Class, tau float64, events int) ([]byte, int, error) {
	oids, offs, ivs := ans.Run()
	dst = slices.Grow(dst, envelopeBytes+len(oids)*objectBytes+len(ivs)*intervalBytes)
	var err error
	dst = append(dst, `{"class":"`...)
	dst = append(dst, cls.String()...) // one of Class's four plain words: nothing to escape
	dst = append(dst, `","tau":`...)
	if dst, err = appendFloat(dst, tau); err != nil {
		return nil, 0, err
	}
	dst = append(dst, `,"answers":{`...)

	var classes [len(pow10)]lengthClass
	n := 0
	for digits, from := 1, 0; from < len(oids); digits++ {
		end := len(oids)
		if digits < len(pow10) {
			end, _ = slices.BinarySearch(oids, mod.OID(pow10[digits]))
		}
		if end > from {
			classes[n] = lengthClass{head: newAnswerEntry(oids[from], digits), next: from, end: end, digits: digits}
			n++
		}
		from = end
	}
	var lo, hi floatMemo
	for emitted := 0; emitted < len(oids); emitted++ {
		c := &classes[0]
		for i := 1; i < n; i++ {
			if compareAnswerEntries(classes[i].head, c.head) < 0 {
				c = &classes[i]
			}
		}
		if emitted > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `"o`...)
		dst = strconv.AppendUint(dst, uint64(c.head.o), 10)
		dst = append(dst, `":[`...)
		for j, iv := range ivs[offs[c.next]:offs[c.next+1]] {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"lo":`...)
			if dst, err = lo.append(dst, iv.Lo); err != nil {
				return nil, 0, err
			}
			dst = append(dst, `,"hi":`...)
			if dst, err = hi.append(dst, iv.Hi); err != nil {
				return nil, 0, err
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
		if c.next++; c.next < c.end {
			c.head = newAnswerEntry(oids[c.next], c.digits)
		} else {
			n--
			*c = classes[n]
		}
	}
	dst = append(dst, `},"events":`...)
	dst = strconv.AppendInt(dst, int64(events), 10)
	return append(dst, '}'), len(oids), nil
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
