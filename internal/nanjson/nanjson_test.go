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

// TestFloatJSON pins the scalar null mapping both ways.
func TestFloatJSON(t *testing.T) {
	for _, tc := range []struct {
		f    float64
		json string
	}{
		{math.NaN(), "null"}, {math.Inf(1), "null"}, {math.Inf(-1), "null"},
		{2.5, "2.5"}, {0, "0"}, {1e-5, "0.00001"}, {2.5e6, "2500000"}, {1e-7, "1e-7"},
	} {
		body, err := json.Marshal(Float(tc.f))
		if err != nil {
			t.Fatal(err)
		}
		if string(body) != tc.json {
			t.Errorf("Float(%v) marshalled %s, want %s", tc.f, body, tc.json)
		}
		var back Float
		if err := json.Unmarshal(body, &back); err != nil {
			t.Fatal(err)
		}
		want := tc.f
		if tc.json == "null" {
			want = math.NaN() // non-finite ⇒ undefined has one marker
		}
		if math.Float64bits(float64(back)) != math.Float64bits(want) {
			t.Errorf("%s read back as %v, want %v to the bit", body, float64(back), want)
		}
	}
	// The spellings the daemon's events used before they went through
	// encoding/json must still load from an old result.json.
	for old, want := range map[string]float64{"1e-05": 1e-5, "2.5e+06": 2.5e6, "1e-07": 1e-7} {
		var f Float
		if err := json.Unmarshal([]byte(old), &f); err != nil || float64(f) != want {
			t.Errorf("%s read as %v (%v), want %v", old, float64(f), err, want)
		}
	}
	var f Float
	for _, bad := range []string{`"x"`, `[1]`, `1e999`} {
		if err := json.Unmarshal([]byte(bad), &f); err == nil {
			t.Errorf("%s decoded without error, as %v", bad, float64(f))
		}
	}
}
