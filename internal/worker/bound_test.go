package worker

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/param"
)

// padded answers every request with reply followed by enough JSON
// whitespace to pass maxEvaluateBody: a body that still decodes once fully
// buffered, so a reader without a bound accepts it.
func padded(reply string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		_, _ = io.WriteString(w, reply)
		pad := bytes.Repeat([]byte(" "), 1<<20)
		for sent := 0; sent <= maxEvaluateBody; sent += len(pad) {
			if _, err := w.Write(pad); err != nil {
				return // the reader gave up, as it should
			}
		}
	}
}

// A worker that streams past the reply bound has sent a malformed reply:
// the chunk fails on it, is retried on another worker, and the failure
// counts against the sender.
func TestPoolBoundsWorkerReply(t *testing.T) {
	fat := httptest.NewServer(padded(`{"objectives":[[1,2]]}`))
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

// An HTTP-bridged endpoint that streams past the bound leaves the
// configuration unmeasured, with one log line.
func TestHTTPEvaluatorBoundsReply(t *testing.T) {
	srv := httptest.NewServer(padded(`{"objectives":[[1,2]]}`))
	defer srv.Close()
	e := NewHTTPEvaluator(srv.URL, bridgeSpace(t), 2)
	var logged []string
	e.SetLogf(func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) })
	if objs := e.Evaluate(param.Config{1, 2}); objs != nil {
		t.Fatalf("objectives = %v, want nil for an over-long reply", objs)
	}
	if len(logged) != 1 {
		t.Fatalf("log lines = %q, want exactly one", logged)
	}
}

// An exec-bridged program whose reply line passes maxExecReply leaves the
// configuration unmeasured, with one log line (after the one restart every
// transport failure gets).
func TestExecEvaluatorBoundsReplyLine(t *testing.T) {
	e := helperEvaluator(t, "long-line", 2)
	var logged []string
	e.SetLogf(func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) })
	if objs := e.Evaluate(param.Config{1, 2}); objs != nil {
		t.Fatalf("objectives = %v, want nil for an over-long reply line", objs)
	}
	if len(logged) != 1 {
		t.Fatalf("log lines = %q, want exactly one", logged)
	}
}
