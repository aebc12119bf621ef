package mod

// The JSON form of an update: the wire format of POST /update and of a
// JSON update batch. Snapshots have one format, the binary one
// (SaveBinary/LoadBinary).

import (
	"encoding/json"
	"fmt"

	"repro/internal/geom"
)

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
