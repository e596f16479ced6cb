package worker

import (
	"bytes"
	"testing"
)

// FuzzEvaluateReply feeds the /evaluate (and HTTP-bridge) reply decoder
// arbitrary bodies — what a coordinator reads from a worker it does not
// control. It must never panic, and what it accepts must be stable on the
// wire: encoding the decoded vectors and decoding them again yields the
// same bytes, nulls (NaN) included.
func FuzzEvaluateReply(f *testing.F) {
	for _, body := range []string{
		`{"objectives":[[null,2.5],[0,null],[null,0.3333333333333333],null,[]]}`,
		`{"objectives":[[null,`,
		`{"objectives":[[1.5,2],[3,4e-7]]}`,
		`{"objectives":null}`,
		`{}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		objs, err := decodeObjectives(body)
		if err != nil {
			return
		}
		first, err := encodeObjectives(objs)
		if err != nil {
			t.Fatalf("decoded %q but cannot encode it again: %v", body, err)
		}
		again, err := decodeObjectives(first)
		if err != nil {
			t.Fatalf("own encoding %q does not decode: %v", first, err)
		}
		second, err := encodeObjectives(again)
		if err != nil || !bytes.Equal(first, second) {
			t.Fatalf("not a fixed point: %q then %q (%v)", first, second, err)
		}
	})
}
