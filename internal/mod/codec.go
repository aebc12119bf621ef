package mod

// JSON persistence for moving object databases: a stable snapshot format
// carrying the dimension, the last-update time, every trajectory (as its
// linear pieces) and the declared speed bounds. Used by the CLI tools to
// save and restore databases and by tests for round-trip validation.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/geom"
	"repro/internal/trajectory"
)

// jsonDB is the wire form of a database snapshot.
type jsonDB struct {
	Dim int `json:"dim"`
	// Tau is omitted when the database still sits at its -Inf seed time
	// (NewDB(dim, math.Inf(-1)), the state LoadJSON itself starts from):
	// JSON cannot represent -Inf, and encoding it as a number used to
	// make snapshotting any fresh or restored-empty database fail with
	// "json: unsupported value: -Inf". Same sentinel convention as the
	// open-ended piece End below.
	Tau     *float64     `json:"tau,omitempty"`
	Objects []jsonObject `json:"objects"`
	// Bounds lists declared per-object max speeds (KindBound), ascending
	// by OID. Absent on snapshots written before the uncertainty layer
	// existed — LoadJSON treats a missing list as "no bounds declared".
	Bounds []jsonBound `json:"bounds,omitempty"`
	// Log is the applied-update log that snapshots written before format
	// version 3 carried. It is accepted so those files still open, and
	// ignored: the trajectories are the state. SaveJSON never writes it.
	Log json.RawMessage `json:"log,omitempty"`
}

type jsonBound struct {
	OID  uint64  `json:"oid"`
	Vmax float64 `json:"vmax"`
}

type jsonObject struct {
	OID    uint64      `json:"oid"`
	Pieces []jsonPiece `json:"pieces"`
}

type jsonPiece struct {
	Start float64 `json:"start"`
	// End is omitted for the open-ended final piece.
	End *float64  `json:"end,omitempty"`
	A   []float64 `json:"a"`
	B   []float64 `json:"b"`
}

type jsonUpdate struct {
	Kind string    `json:"kind"`
	OID  uint64    `json:"oid"`
	Tau  float64   `json:"tau"`
	A    []float64 `json:"a,omitempty"`
	B    []float64 `json:"b,omitempty"`
}

// MarshalJSON implements json.Marshaler for updates.
func (u Update) MarshalJSON() ([]byte, error) {
	return json.Marshal(toJSONUpdate(u))
}

func toJSONUpdate(u Update) jsonUpdate {
	return jsonUpdate{Kind: u.Kind.String(), OID: uint64(u.O), Tau: u.Tau, A: u.A, B: u.B}
}

// UnmarshalJSON implements json.Unmarshaler for updates.
func (u *Update) UnmarshalJSON(data []byte) error {
	var j jsonUpdate
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	got, err := fromJSONUpdate(j)
	if err != nil {
		return err
	}
	*u = got
	return nil
}

func fromJSONUpdate(j jsonUpdate) (Update, error) {
	u := Update{O: OID(j.OID), Tau: j.Tau, A: geom.Vec(j.A), B: geom.Vec(j.B)}
	switch j.Kind {
	case "new":
		u.Kind = KindNew
	case "terminate":
		u.Kind = KindTerminate
	case "chdir":
		u.Kind = KindChDir
	case "bound":
		u.Kind = KindBound
	default:
		return Update{}, fmt.Errorf("mod: unknown update kind %q", j.Kind)
	}
	return u, nil
}

// SaveJSON writes a JSON snapshot of the database's current epoch to w.
func (db *DB) SaveJSON(w io.Writer) error { return db.EpochSnapshot().SaveJSON(w) }

// SaveJSON writes the snapshot to w.
func (s *Snap) SaveJSON(w io.Writer) error {
	out := jsonDB{Dim: s.dim}
	if !math.IsInf(s.tau, -1) {
		if math.IsNaN(s.tau) || math.IsInf(s.tau, 1) {
			return fmt.Errorf("mod: cannot encode tau %g as JSON", s.tau)
		}
		out.Tau = &s.tau
	}
	oids := s.Objects()
	for _, o := range oids {
		jo := jsonObject{OID: uint64(o)}
		for _, pc := range s.objs[o].Pieces() {
			jp := jsonPiece{Start: pc.Start, A: pc.A, B: pc.B}
			if !math.IsInf(pc.End, 1) {
				end := pc.End
				jp.End = &end
			}
			jo.Pieces = append(jo.Pieces, jp)
		}
		out.Objects = append(out.Objects, jo)
	}
	for _, o := range oids {
		if v, ok := s.bounds[o]; ok {
			out.Bounds = append(out.Bounds, jsonBound{OID: uint64(o), Vmax: v})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// LoadJSON reads a snapshot produced by SaveJSON and reconstructs the
// database (trajectories validated for continuity on the way in).
func LoadJSON(r io.Reader) (*DB, error) {
	var in jsonDB
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("mod: decode snapshot: %w", err)
	}
	if in.Dim <= 0 {
		return nil, fmt.Errorf("mod: snapshot has dimension %d", in.Dim)
	}
	db := NewDB(in.Dim, math.Inf(-1))
	for _, jo := range in.Objects {
		pieces := make([]trajectory.Piece, 0, len(jo.Pieces))
		for _, jp := range jo.Pieces {
			end := math.Inf(1)
			if jp.End != nil {
				end = *jp.End
			}
			pieces = append(pieces, trajectory.Piece{
				Start: jp.Start, End: end,
				A: geom.Vec(jp.A), B: geom.Vec(jp.B),
			})
		}
		tr, err := trajectory.FromPieces(pieces...)
		if err != nil {
			return nil, fmt.Errorf("mod: object %d: %w", jo.OID, err)
		}
		if err := db.Load(OID(jo.OID), tr); err != nil {
			return nil, err
		}
	}
	for _, jb := range in.Bounds {
		if math.IsNaN(jb.Vmax) || math.IsInf(jb.Vmax, 0) || jb.Vmax < 0 {
			return nil, fmt.Errorf("mod: bound for object %d: bad vmax %g", jb.OID, jb.Vmax)
		}
		if !db.Contains(OID(jb.OID)) {
			return nil, fmt.Errorf("mod: bound for unknown object %d", jb.OID)
		}
		db.bounds[OID(jb.OID)] = jb.Vmax
	}
	tau := math.Inf(-1)
	if in.Tau != nil {
		tau = *in.Tau
	}
	db.mu.Lock()
	db.tau = tau
	db.epoch.Add(1)
	db.mu.Unlock()
	return db, nil
}
