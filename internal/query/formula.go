package query

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/mod"
	"repro/internal/piecewise"
)

// This file implements the FO(f) language of Section 4 with the identity
// time term: many-sorted first-order logic whose real terms are f(z, t)
// for object variables z, plus real constants; formulas combine
// equality/order atoms with propositional connectives and quantifiers
// over objects. Section 4's polynomial time terms f(z, p(t)) are not
// supported: the sweep holds one curve per object.
//
// The generic evaluator re-derives the satisfying set from the precedence
// relation at every support change (Lemma 8 guarantees nothing changes in
// between). Its per-change cost is O(N * |phi| * N^q) for q nested
// quantifiers — the price of full generality; the special-cased KNN and
// Within evaluators above handle the common shapes in O(k)/O(1).

// CmpOp is a comparison operator of an FO(f) atom.
type CmpOp int

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

// String implements fmt.Stringer.
func (op CmpOp) String() string {
	switch op {
	case EQ:
		return "="
	case NE:
		return "!="
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	default:
		return "?"
	}
}

// Term is a real term of FO(f).
type Term interface {
	// curveID resolves the term to a sweep curve id under the bindings.
	curveID(ev *Formula, binds map[string]mod.OID) (uint64, error)
	String() string
}

// F is the term f(Var, t).
type F struct {
	Var string
}

// String implements Term.
func (f F) String() string { return fmt.Sprintf("f(%s,t)", f.Var) }

func (f F) curveID(ev *Formula, binds map[string]mod.OID) (uint64, error) {
	o, ok := binds[f.Var]
	if !ok {
		return 0, fmt.Errorf("query: unbound object variable %q", f.Var)
	}
	return uint64(o), nil
}

// C is a real constant term.
type C struct {
	Value float64
}

// String implements Term.
func (c C) String() string { return fmt.Sprintf("%g", c.Value) }

func (c C) curveID(ev *Formula, binds map[string]mod.OID) (uint64, error) {
	id, ok := ev.constIDs[c.Value]
	if !ok {
		return 0, fmt.Errorf("query: constant %g not registered", c.Value)
	}
	return id, nil
}

// Node is a formula node.
type Node interface {
	eval(ev *Formula, binds map[string]mod.OID, t float64) (bool, error)
	walkTerms(fn func(Term))
	String() string
}

// Atom compares two real terms.
type Atom struct {
	L  Term
	Op CmpOp
	R  Term
}

// String implements Node.
func (a Atom) String() string { return fmt.Sprintf("%s %s %s", a.L, a.Op, a.R) }

func (a Atom) walkTerms(fn func(Term)) { fn(a.L); fn(a.R) }

func (a Atom) eval(ev *Formula, binds map[string]mod.OID, t float64) (bool, error) {
	la, err := a.L.curveID(ev, binds)
	if err != nil {
		return false, err
	}
	rb, err := a.R.curveID(ev, binds)
	if err != nil {
		return false, err
	}
	cmp, err := ev.cmpCurves(la, rb, t)
	if err != nil {
		return false, err
	}
	switch a.Op {
	case EQ:
		return cmp == 0, nil
	case NE:
		return cmp != 0, nil
	case LT:
		return cmp < 0, nil
	case LE:
		return cmp <= 0, nil
	case GT:
		return cmp > 0, nil
	case GE:
		return cmp >= 0, nil
	default:
		return false, fmt.Errorf("query: bad operator %d", a.Op)
	}
}

// Not negates a formula.
type Not struct{ X Node }

// String implements Node.
func (n Not) String() string          { return "¬(" + n.X.String() + ")" }
func (n Not) walkTerms(fn func(Term)) { n.X.walkTerms(fn) }
func (n Not) eval(ev *Formula, b map[string]mod.OID, t float64) (bool, error) {
	v, err := n.X.eval(ev, b, t)
	return !v, err
}

// And is conjunction.
type And struct{ X, Y Node }

// String implements Node.
func (n And) String() string          { return "(" + n.X.String() + " ∧ " + n.Y.String() + ")" }
func (n And) walkTerms(fn func(Term)) { n.X.walkTerms(fn); n.Y.walkTerms(fn) }
func (n And) eval(ev *Formula, b map[string]mod.OID, t float64) (bool, error) {
	v, err := n.X.eval(ev, b, t)
	if err != nil || !v {
		return false, err
	}
	return n.Y.eval(ev, b, t)
}

// Or is disjunction.
type Or struct{ X, Y Node }

// String implements Node.
func (n Or) String() string          { return "(" + n.X.String() + " ∨ " + n.Y.String() + ")" }
func (n Or) walkTerms(fn func(Term)) { n.X.walkTerms(fn); n.Y.walkTerms(fn) }
func (n Or) eval(ev *Formula, b map[string]mod.OID, t float64) (bool, error) {
	v, err := n.X.eval(ev, b, t)
	if err != nil || v {
		return v, err
	}
	return n.Y.eval(ev, b, t)
}

// Implies is material implication.
type Implies struct{ X, Y Node }

// String implements Node.
func (n Implies) String() string          { return "(" + n.X.String() + " → " + n.Y.String() + ")" }
func (n Implies) walkTerms(fn func(Term)) { n.X.walkTerms(fn); n.Y.walkTerms(fn) }
func (n Implies) eval(ev *Formula, b map[string]mod.OID, t float64) (bool, error) {
	v, err := n.X.eval(ev, b, t)
	if err != nil || !v {
		return true, err
	}
	return n.Y.eval(ev, b, t)
}

// ForAll quantifies Var over the live objects of the database.
type ForAll struct {
	Var  string
	Body Node
}

// String implements Node.
func (n ForAll) String() string          { return "∀" + n.Var + "(" + n.Body.String() + ")" }
func (n ForAll) walkTerms(fn func(Term)) { n.Body.walkTerms(fn) }
func (n ForAll) eval(ev *Formula, b map[string]mod.OID, t float64) (bool, error) {
	for _, o := range ev.liveObjects() {
		b[n.Var] = o
		v, err := n.Body.eval(ev, b, t)
		if err != nil {
			delete(b, n.Var)
			return false, err
		}
		if !v {
			delete(b, n.Var)
			return false, nil
		}
	}
	delete(b, n.Var)
	return true, nil
}

// Exists quantifies Var over the live objects of the database.
type Exists struct {
	Var  string
	Body Node
}

// String implements Node.
func (n Exists) String() string          { return "∃" + n.Var + "(" + n.Body.String() + ")" }
func (n Exists) walkTerms(fn func(Term)) { n.Body.walkTerms(fn) }
func (n Exists) eval(ev *Formula, b map[string]mod.OID, t float64) (bool, error) {
	for _, o := range ev.liveObjects() {
		b[n.Var] = o
		v, err := n.Body.eval(ev, b, t)
		if err != nil {
			delete(b, n.Var)
			return false, err
		}
		if v {
			delete(b, n.Var)
			return true, nil
		}
	}
	delete(b, n.Var)
	return false, nil
}

// Formula is the generic FO(f) evaluator for a query (y, t, I, phi).
type Formula struct {
	// Y is the free object variable's name.
	Y string
	// Phi is the formula body (free variables: Y only).
	Phi Node

	e        *Engine
	ans      *AnswerSet
	cur      map[mod.OID]bool
	constIDs map[float64]uint64
	after    bool // comparison semantics: just-after vs at-instant
	err      error
}

// NewFormula builds a generic evaluator for phi with free variable y.
func NewFormula(y string, phi Node) *Formula {
	return &Formula{Y: y, Phi: phi}
}

// Attach implements Evaluator: registers every constant as a curve.
func (ev *Formula) Attach(e *Engine) error {
	if ev.Phi == nil || ev.Y == "" {
		return errors.New("query: Formula needs a body and a free variable")
	}
	ev.e = e
	ev.ans = NewAnswerSet()
	ev.cur = make(map[mod.OID]bool)
	ev.constIDs = make(map[float64]uint64)
	var attachErr error
	ev.Phi.walkTerms(func(tm Term) {
		if c, ok := tm.(C); ok && attachErr == nil {
			id, err := e.ConstID(c.Value)
			if err != nil {
				attachErr = err
				return
			}
			ev.constIDs[c.Value] = id
		}
	})
	return attachErr
}

// liveObjects lists the objects currently in the sweep, ascending.
func (ev *Formula) liveObjects() []mod.OID {
	var out []mod.OID
	for o := range ev.e.trajs {
		if ev.e.sw.Contains(uint64(o)) {
			out = append(out, o)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// cmpCurves compares two curves at time t: -1, 0, +1. In after-mode ties
// are broken by the sign of the difference immediately after t, so the
// result reflects the open interval following the event.
func (ev *Formula) cmpCurves(a, b uint64, t float64) (int, error) {
	if a == b {
		return 0, nil
	}
	fa, ok := ev.e.sw.Curve(a)
	if !ok {
		return 0, fmt.Errorf("query: curve %d missing", a)
	}
	fb, ok := ev.e.sw.Curve(b)
	if !ok {
		return 0, fmt.Errorf("query: curve %d missing", b)
	}
	if c := core.CompareValues(fa.Eval(t), fb.Eval(t)); c != 0 || !ev.after {
		return c, nil
	}
	return piecewise.SignDiffAfter(fa, fb, t), nil
}

// SnapshotAt evaluates Q[D]_t exactly at instant t (ties count as equal).
func (ev *Formula) SnapshotAt(t float64) ([]mod.OID, error) {
	ev.after = false
	return ev.satisfying(t)
}

// satisfying returns the objects o with phi(o, t) true under the current
// comparison semantics.
func (ev *Formula) satisfying(t float64) ([]mod.OID, error) {
	var out []mod.OID
	binds := make(map[string]mod.OID)
	for _, o := range ev.liveObjects() {
		binds[ev.Y] = o
		v, err := ev.Phi.eval(ev, binds, t)
		if err != nil {
			return nil, err
		}
		if v {
			out = append(out, o)
		}
	}
	return out, nil
}

// OnChange implements Evaluator: recompute the satisfying set with
// just-after semantics, and on meeting instants also record point
// memberships with at-instant semantics.
func (ev *Formula) OnChange(c core.Change) {
	if c.Kind == core.ChangeEqual || c.Kind == core.ChangeSeparate {
		// Point memberships at the instant itself.
		if snap, err := ev.SnapshotAt(c.T); err == nil {
			for _, o := range snap {
				if !ev.cur[o] {
					ev.ans.Point(o, c.T)
				}
			}
		}
	}
	ev.after = true
	now, err := ev.satisfying(c.T)
	if err != nil {
		// Evaluation errors indicate unbound variables or missing
		// curves — programming errors surfaced via Err().
		ev.err = err
		return
	}
	inNow := make(map[mod.OID]bool, len(now))
	for _, o := range now {
		inNow[o] = true
		if !ev.cur[o] {
			ev.cur[o] = true
			ev.ans.Enter(o, c.T)
		}
	}
	for o := range ev.cur {
		if !inNow[o] {
			delete(ev.cur, o)
			ev.ans.Leave(o, c.T)
		}
	}
}

// Err returns the first evaluation error encountered, if any.
func (ev *Formula) Err() error { return ev.err }

// Finish implements Evaluator.
func (ev *Formula) Finish(t float64) { ev.ans.Finish(t) }

// Answer returns the accumulated answer set.
func (ev *Formula) Answer() *AnswerSet { return ev.ans }
