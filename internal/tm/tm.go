// Package tm demonstrates the paper's Theorem 2: it is undecidable
// whether a given query is past with respect to a given MOD. The proof
// sketch reduces from the halting problem — a sequence of `new` updates
// encodes successive Turing-machine configurations (objects ordered by
// insertion time carry the tape), and the query asks whether the database
// encodes a halting computation.
//
// This package implements the two ingredients of that reduction so the
// construction can be exercised concretely: a deterministic single-tape
// Turing machine, and the encoder that turns a machine run into a
// chronological MOD update sequence together with the "halting trace"
// query over the resulting database. Deciding that query's class
// (past vs future) for all machines would decide halting; the tests run
// the reduction on machines that do and do not halt.
package tm

import (
	"errors"
	"fmt"

	"repro/internal/geom"
	"repro/internal/mod"
)

// Symbol is a tape symbol; 0 is the blank.
type Symbol int

// State is a machine state; state 0 is the start state.
type State int

// Move is a head movement.
type Move int

// Head movements.
const (
	Left  Move = -1
	Stay  Move = 0
	Right Move = 1
)

// Rule is one transition: in state St reading Sym, write Write, move
// Move, and enter Next.
type Rule struct {
	St    State
	Sym   Symbol
	Write Symbol
	Move  Move
	Next  State
}

// Machine is a deterministic single-tape Turing machine. The machine
// halts when no rule applies or when it enters Halt.
type Machine struct {
	Rules []Rule
	Halt  State
}

// key indexes the transition table.
type key struct {
	st  State
	sym Symbol
}

// Config is a machine configuration: state, tape, head position.
type Config struct {
	St   State
	Tape map[int]Symbol
	Head int
}

// clone deep-copies a configuration.
func (c Config) clone() Config {
	tape := make(map[int]Symbol, len(c.Tape))
	for k, v := range c.Tape {
		tape[k] = v
	}
	return Config{St: c.St, Tape: tape, Head: c.Head}
}

// Run executes the machine from the empty tape for at most maxSteps,
// returning the visited configurations (including the initial one) and
// whether the machine halted within the budget.
func (m Machine) Run(maxSteps int) (trace []Config, halted bool) {
	table := make(map[key]Rule, len(m.Rules))
	for _, r := range m.Rules {
		table[key{r.St, r.Sym}] = r
	}
	cur := Config{St: 0, Tape: map[int]Symbol{}, Head: 0}
	trace = append(trace, cur.clone())
	for step := 0; step < maxSteps; step++ {
		if cur.St == m.Halt {
			return trace, true
		}
		r, ok := table[key{cur.St, cur.Tape[cur.Head]}]
		if !ok {
			return trace, true // no applicable rule: halt
		}
		if r.Write == 0 {
			delete(cur.Tape, cur.Head)
		} else {
			cur.Tape[cur.Head] = r.Write
		}
		cur.Head += int(r.Move)
		cur.St = r.Next
		trace = append(trace, cur.clone())
	}
	return trace, false
}

// Encode converts a computation trace into the reduction's MOD update
// sequence: for each configuration, one `new` update per non-blank tape
// cell plus one for the head. The object's initial position encodes
// (step, cell, symbol) and the creation times are strictly increasing, so
// the insertion order reconstructs the configuration sequence — exactly
// the proof sketch's "objects sorted by their insertion times encode the
// configurations".
func Encode(trace []Config) []mod.Update {
	var out []mod.Update
	oid := mod.OID(1)
	tau := 0.0
	for step, cfg := range trace {
		// Head marker: symbol slot -1 carries the state.
		tau += 1
		out = append(out, mod.New(oid, tau, geom.Of(0, 0, 0),
			geom.Of(float64(step), float64(cfg.Head), -1-float64(cfg.St))))
		oid++
		for cell, sym := range cfg.Tape {
			if sym == 0 {
				continue
			}
			tau += 1
			out = append(out, mod.New(oid, tau, geom.Of(0, 0, 0),
				geom.Of(float64(step), float64(cell), float64(sym))))
			oid++
		}
	}
	return out
}

// Decode reconstructs the configuration trace from a database built by
// applying an Encode-d update sequence. The trajectories are the whole
// encoding: every encoded object is a point at rest since its creation,
// and its position is the (step, cell, symbol) triple, so no record of
// the updates themselves is needed. Anything else — an object that was
// redirected, terminated or is moving — is not an encoding.
func Decode(db *mod.DB) ([]Config, error) {
	byStep := map[int]*Config{}
	maxStep := -1
	for o, tr := range db.Trajectories() {
		if tr.Dim() != 3 {
			return nil, errors.New("tm: encoded objects must be 3-D")
		}
		if tr.NumPieces() != 1 || tr.IsTerminated() || !tr.PieceAt(0).A.Equal(geom.Of(0, 0, 0)) {
			return nil, fmt.Errorf("tm: object %v is not a resting point of an encoding", o)
		}
		pos := tr.PieceAt(0).B
		step := int(pos[0])
		cell := int(pos[1])
		val := pos[2]
		if step > maxStep {
			maxStep = step
		}
		c := byStep[step]
		if c == nil {
			c = &Config{Tape: map[int]Symbol{}}
			byStep[step] = c
		}
		if val < 0 {
			c.Head = cell
			c.St = State(-val - 1)
		} else {
			c.Tape[cell] = Symbol(val)
		}
	}
	trace := make([]Config, 0, maxStep+1)
	for s := 0; s <= maxStep; s++ {
		c := byStep[s]
		if c == nil {
			return nil, fmt.Errorf("tm: missing configuration for step %d", s)
		}
		trace = append(trace, *c)
	}
	return trace, nil
}

// IsHaltingTrace is the reduction's query: does the database encode a
// computation of m that reaches a halting configuration? (In the paper
// this is the FO query whose past-ness would decide halting.)
func IsHaltingTrace(db *mod.DB, m Machine) (bool, error) {
	trace, err := Decode(db)
	if err != nil {
		return false, err
	}
	if len(trace) == 0 {
		return false, nil
	}
	table := make(map[key]Rule, len(m.Rules))
	for _, r := range m.Rules {
		table[key{r.St, r.Sym}] = r
	}
	// Validate each step follows from the previous one by a rule.
	for i := 1; i < len(trace); i++ {
		prev, cur := trace[i-1], trace[i]
		r, ok := table[key{prev.St, prev.Tape[prev.Head]}]
		if !ok {
			return false, fmt.Errorf("tm: step %d has no applicable rule", i)
		}
		want := prev.clone()
		if r.Write == 0 {
			delete(want.Tape, want.Head)
		} else {
			want.Tape[want.Head] = r.Write
		}
		want.Head += int(r.Move)
		want.St = r.Next
		if !configsEqual(want, cur) {
			return false, fmt.Errorf("tm: step %d does not follow", i)
		}
	}
	last := trace[len(trace)-1]
	if last.St == m.Halt {
		return true, nil
	}
	_, applicable := table[key{last.St, last.Tape[last.Head]}]
	return !applicable, nil
}

func configsEqual(a, b Config) bool {
	if a.St != b.St || a.Head != b.Head || len(a.Tape) != len(b.Tape) {
		return false
	}
	for k, v := range a.Tape {
		if b.Tape[k] != v {
			return false
		}
	}
	return true
}
