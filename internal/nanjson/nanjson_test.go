package nanjson

import (
	"encoding/json"
	"math"
	"testing"
)

func TestVectorJSON(t *testing.T) {
	for _, tc := range []struct {
		name string
		v    Vector
		json string
		back Vector // what the JSON reads back as; nil = v itself
	}{
		{name: "finite", v: Vector{1.5, -0.25, 0, 1e-300, math.MaxFloat64, 1.0 / 3}},
		{name: "empty", v: Vector{}, json: `[]`},
		{name: "nil", v: nil, json: `null`},
		{name: "NaN", v: Vector{math.NaN(), 2.5, 0}, json: `[null,2.5,0]`},
		{name: "Inf", v: Vector{math.Inf(1), 0, math.Inf(-1)}, json: `[null,0,null]`,
			back: Vector{math.NaN(), 0, math.NaN()}}, // non-finite ⇒ invalid has one marker
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Wrapped in a struct, the way every caller carries a Vector.
			type holder struct {
				O Vector `json:"o"`
			}
			body, err := json.Marshal(holder{tc.v})
			if err != nil {
				t.Fatal(err)
			}
			want := tc.json
			if want == "" { // all finite: encoding/json's own form, to the byte
				plain, _ := json.Marshal([]float64(tc.v))
				want = string(plain)
			}
			if got := string(body); got != `{"o":`+want+`}` {
				t.Fatalf("marshalled %s, want {\"o\":%s}", got, want)
			}
			var got holder
			if err := json.Unmarshal(body, &got); err != nil {
				t.Fatal(err)
			}
			back := tc.back
			if back == nil {
				back = tc.v
			}
			if len(got.O) != len(back) || (got.O == nil) != (back == nil) {
				t.Fatalf("read back %#v, want %#v", got.O, back)
			}
			for i := range back {
				if math.Float64bits(got.O[i]) != math.Float64bits(back[i]) {
					t.Errorf("element %d read back as %v, want %v to the bit", i, got.O[i], back[i])
				}
			}
		})
	}
	var v Vector
	for _, bad := range []string{`[1,"x"]`, `{"a":1}`, `[1e999]`, `[null,"x"]`} {
		if err := json.Unmarshal([]byte(bad), &v); err == nil {
			t.Errorf("%s decoded without error, as %v", bad, v)
		}
	}
}
