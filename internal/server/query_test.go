package server

import (
	"bytes"
	"math"
	"testing"
)

// FuzzReadQuery feeds arbitrary bytes to every /query endpoint's decode
// and check, with no backend behind them. Nothing may panic, and a
// question that is let through meets the endpoint's field constraints,
// read here from the decoded body itself: a point of the database's
// dimension with finite components, finite window bounds, a finite
// radius >= 0, and a speed bound that is absent (-1 to the backend) or
// finite and >= 0.
func FuzzReadQuery(f *testing.F) {
	for _, body := range []string{
		`{"k":1,"lo":0,"hi":1e999,"point":[0,0]}`,
		`{"k":1,"lo":0,"hi":1,"point":[0,0]}`,
		`{"k":1,"lo":0,"hi":5,"point":[0,0]}`,
		`{"k":1,"lo":1,"hi":2,"point":[0,0]}`,
		`{"k":9223372036854775807,"lo":0.01,"hi":0.04,"point":[0,0]}`,
		`{"radius":10,"lo":0,"hi":5,"point":[0,0]}`,
		`{"radius":6,"lo":1,"hi":30,"point":[0,0]}`,
		`{"k":1,"radius":5,"lo":1,"hi":2,"point":[0,0]}`,
		`{"radius":1,"lo":1,"hi":2,"point":[0,0],"vmax":1}`,
		`{"radius":10,"lo":10,"hi":5,"point":[0,0],"vmax":20}`,
		`{"o1":1,"o2":2,"lo":1,"hi":2,"vmax":1}`,
		`{"o1":1,"o2":2,"lo":0,"hi":30}`,
		`{"radius":-1,"lo":0,"hi":1,"point":[0]}`,
	} {
		f.Add([]byte(body))
	}
	const dim = 2
	f.Fuzz(func(t *testing.T, body []byte) {
		for endpoint, newRequest := range queryEndpoints {
			req := newRequest()
			vmax, err := readQuery(bytes.NewReader(body), req, dim)
			if err != nil {
				continue
			}
			var (
				lo, hi, radius float64
				point          []float64
				wireVmax       *float64
			)
			switch r := req.(type) {
			case *knnRequest:
				lo, hi, point = r.Lo, r.Hi, r.Point
			case *withinRequest:
				lo, hi, point, radius = r.Lo, r.Hi, r.Point, r.Radius
			case *alibiRequest:
				lo, hi, wireVmax = r.Lo, r.Hi, r.Vmax
			case *possiblyWithinRequest:
				lo, hi, point, radius, wireVmax = r.Lo, r.Hi, r.Point, r.Radius, r.Vmax
			}
			if _, alibi := req.(*alibiRequest); !alibi && len(point) != dim {
				t.Errorf("%s accepted %q: point %v, want %d components", endpoint, body, point, dim)
			}
			for _, x := range append([]float64{lo, hi, radius}, point...) {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Errorf("%s accepted %q with the non-finite %g", endpoint, body, x)
				}
			}
			if radius < 0 {
				t.Errorf("%s accepted %q with radius %g", endpoint, body, radius)
			}
			switch {
			case wireVmax == nil && vmax != -1:
				t.Errorf("%s accepted %q without vmax, but passes %g", endpoint, body, vmax)
			case wireVmax != nil && (vmax != *wireVmax || math.IsNaN(vmax) || math.IsInf(vmax, 0) || vmax < 0):
				t.Errorf("%s accepted %q with vmax %g, passing %g", endpoint, body, *wireVmax, vmax)
			}
		}
	})
}
