package server

import (
	"fmt"
	"sync"
	"testing"
)

func storeSession(seq int64) *session {
	return &session{id: fmt.Sprintf("run-%06d", seq), seq: seq, state: StateRunning}
}

func TestParseSeq(t *testing.T) {
	for _, tc := range []struct {
		id  string
		seq int64
		ok  bool
	}{
		{"run-000001", 1, true},
		{"run-999999", 999999, true},
		{"run-1000000", 1000000, true}, // past the %06d padding width
		{"run-0", 0, true},
		{"run--5", 0, false},
		{"run-abc", 0, false},
		{"job-000001", 0, false},
		{"", 0, false},
	} {
		seq, ok := parseSeq(tc.id)
		if ok != tc.ok || seq != tc.seq {
			t.Errorf("parseSeq(%q) = (%d, %v), want (%d, %v)", tc.id, seq, ok, tc.seq, tc.ok)
		}
	}
}

func TestStoreBasics(t *testing.T) {
	st := newStore("")
	const n = 100
	for i := int64(1); i <= n; i++ {
		st.Put(storeSession(i))
	}
	if st.Len() != n {
		t.Fatalf("Len = %d, want %d", st.Len(), n)
	}
	for i := int64(1); i <= n; i++ {
		s, ok := st.Get(fmt.Sprintf("run-%06d", i))
		if !ok || s.seq != i {
			t.Fatalf("Get(run-%06d) = %v, %v", i, s, ok)
		}
	}
	if _, ok := st.Get("run-000000"); ok {
		t.Fatal("Get found a session never put")
	}
	if _, ok := st.Get("not-an-id"); ok {
		t.Fatal("Get found a session under an unparsable id")
	}
	// Non-canonical spellings of a live sequence must not resolve:
	// "run-7" naming another client's "run-000007" would let a
	// guessed short id read — or Delete, i.e. cancel — it.
	for _, alias := range []string{"run-7", "run-+7", "run-0000007"} {
		if _, ok := st.Get(alias); ok {
			t.Fatalf("Get(%q) resolved run-000007", alias)
		}
		if st.Delete(alias) {
			t.Fatalf("Delete(%q) removed run-000007", alias)
		}
	}
	if snap := st.Snapshot(); len(snap) != n {
		t.Fatalf("Snapshot returned %d sessions", len(snap))
	}
	if !st.Delete("run-000042") {
		t.Fatal("Delete missed a present session")
	}
	if st.Delete("run-000042") {
		t.Fatal("Delete reported a second removal")
	}
	if st.Delete("not-an-id") {
		t.Fatal("Delete accepted an unparsable id")
	}
	if st.Len() != n-1 {
		t.Fatalf("Len after delete = %d", st.Len())
	}
}

func TestStoreConcurrent(t *testing.T) {
	// Hammer all operations from many goroutines; the race detector is the
	// real assertion here.
	st := newStore("")
	const (
		workers = 16
		perW    = 200
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				seq := int64(w*perW + i + 1)
				id := fmt.Sprintf("run-%06d", seq)
				st.Put(storeSession(seq))
				if _, ok := st.Get(id); !ok {
					t.Errorf("lost session %s", id)
					return
				}
				st.Snapshot()
				st.Len()
				if i%3 == 0 {
					st.Delete(id)
				}
			}
		}(w)
	}
	wg.Wait()
}
