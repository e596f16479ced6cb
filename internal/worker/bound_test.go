package worker

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/param"
)

// padded answers every request with reply followed by JSON whitespace, size
// bytes in all: a body that still decodes once fully buffered, so a reader
// without a bound accepts it.
func padded(reply string, size int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		_, _ = io.WriteString(w, reply)
		pad := bytes.Repeat([]byte(" "), 1<<16)
		for left := size - len(reply); left > 0; left -= len(pad) {
			if _, err := w.Write(pad[:min(left, len(pad))]); err != nil {
				return // the reader gave up, as it should
			}
		}
	}
}

// A worker that streams past the reply bound has sent a malformed reply:
// the chunk fails on it, is retried on another worker, and the failure
// counts against the sender.
func TestPoolBoundsWorkerReply(t *testing.T) {
	fat := httptest.NewServer(padded(`{"objectives":[[1,2]]}`, maxEvaluateBody+1<<20))
	defer fat.Close()
	honest := newWorker(t, nil)
	pool, err := NewPool([]string{fat.URL, honest.URL}, Options{
		RetryBackoff: time.Millisecond,
		HedgeAfter:   -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	cfg := testSpace(t).AtIndex(3)
	want := testEval().Evaluate(cfg)
	for round := 0; round < 2; round++ { // round-robin starts on each worker once
		out, err := pool.Backend("test", 2).EvaluateBatch(context.Background(), []param.Config{cfg})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(out) != 1 || len(out[0]) != 2 || out[0][0] != want[0] || out[0][1] != want[1] {
			t.Fatalf("round %d: objectives %v, want the honest worker's %v", round, out, want)
		}
	}
	if st := pool.Stats()[0]; st.Failures == 0 {
		t.Fatalf("the over-long reply was not counted as a failure: %+v", st)
	}
}
