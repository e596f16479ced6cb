// Package nanjson is the one rule by which an objective vector crosses
// JSON: a non-finite objective — NaN is the evaluator's "invalid
// configuration" marker, see core.Result.Invalid — has no JSON number form,
// so it is written as null and read back as NaN. The worker wire protocol,
// the run journal and the memo-cache spill all carry vectors through
// Vector, so a measurement that was invalid in memory is the same invalid
// measurement on the wire and on disk. The daemon's progress events carry
// their legitimately undefined numbers (an OOB error with no out-of-bag
// sample, a hypervolume before any valid measurement) the same way, through
// Vector and its scalar sibling Float.
package nanjson

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
)

// Vector is an objective vector with the null ⇄ NaN JSON form. It converts
// to and from []float64 freely.
type Vector []float64

// MarshalJSON implements json.Marshaler. An all-finite vector — nearly
// every one — is exactly encoding/json's []float64 form, to the byte; only
// when that refuses a NaN or ±Inf is the vector rebuilt with null in its
// place.
func (v Vector) MarshalJSON() ([]byte, error) {
	body, err := json.Marshal([]float64(v))
	var nonFinite *json.UnsupportedValueError
	if !errors.As(err, &nonFinite) {
		return body, err
	}
	nullable := make([]*float64, len(v))
	for i := range v {
		if !math.IsNaN(v[i]) && !math.IsInf(v[i], 0) {
			nullable[i] = &v[i]
		}
	}
	return json.Marshal(nullable)
}

// UnmarshalJSON implements json.Unmarshaler, reading a null element back as
// NaN (±Inf was written as the same marker: non-finite ⇒ invalid is the
// whole contract). encoding/json decodes null into a float64 as "leave it
// 0", so a vector that spells null is decoded a second time to find which
// zeros those were; every other vector is decoded once. A null in place of
// the whole vector stays a nil Vector.
func (v *Vector) UnmarshalJSON(body []byte) error {
	var plain []float64
	if err := json.Unmarshal(body, &plain); err != nil {
		return err
	}
	if plain != nil && bytes.Contains(body, []byte("null")) {
		var marked []*float64
		if err := json.Unmarshal(body, &marked); err != nil {
			return err
		}
		for i, p := range marked {
			if p == nil {
				plain[i] = math.NaN()
			}
		}
	}
	*v = plain
	return nil
}

// Float is the scalar sibling of Vector: one float64 with the same
// null ⇄ NaN JSON form.
type Float float64

// MarshalJSON implements json.Marshaler: encoding/json's float64 form, or
// null for NaN and ±Inf.
func (f Float) MarshalJSON() ([]byte, error) {
	if math.IsNaN(float64(f)) || math.IsInf(float64(f), 0) {
		return []byte("null"), nil
	}
	return json.Marshal(float64(f))
}

// UnmarshalJSON implements json.Unmarshaler, reading null back as NaN.
func (f *Float) UnmarshalJSON(body []byte) error {
	if bytes.Equal(body, []byte("null")) {
		*f = Float(math.NaN())
		return nil
	}
	return json.Unmarshal(body, (*float64)(f))
}
