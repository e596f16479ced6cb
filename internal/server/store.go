package server

import (
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

const runIDPrefix = "run-"

// parseSeq extracts the numeric sequence from a "run-%06d" id. Ids the
// manager never minted (wrong prefix, non-numeric) report ok=false.
func parseSeq(id string) (int64, bool) {
	rest, found := strings.CutPrefix(id, runIDPrefix)
	if !found {
		return 0, false
	}
	seq, err := strconv.ParseInt(rest, 10, 64)
	if err != nil || seq < 0 {
		return 0, false
	}
	return seq, true
}

// store holds the manager's live and retained sessions, keyed by the run
// sequence under one lock: every operation holds it for a map access (or,
// for Snapshot, one pass over the map). The manager owns session lifecycle
// (creation, eviction policy). Any Get can miss — sessions are evicted — and
// every handler treats a missing id as "gone".
//
// With a dataDir, deleting a session (explicit eviction, TTL, or cap) also
// unlinks its on-disk run directory, so an evicted id stays 404 across
// restarts instead of resurrecting as a zombie at the next recovery scan —
// unless the session keeps its directory for a later resume (keepDir).
type store struct {
	mu      sync.RWMutex
	runs    map[int64]*session
	dataDir string
}

// newStore returns an empty store over dataDir (empty = in-memory only).
func newStore(dataDir string) *store {
	return &store{runs: make(map[int64]*session), dataDir: dataDir}
}

// Put places a session; the key is the session's numeric sequence.
func (st *store) Put(s *session) {
	st.mu.Lock()
	st.runs[s.seq] = s
	st.mu.Unlock()
}

// Get returns the session with the given id, if retained.
func (st *store) Get(id string) (*session, bool) {
	seq, ok := parseSeq(id)
	if !ok {
		return nil, false
	}
	st.mu.RLock()
	s, ok := st.runs[seq]
	st.mu.RUnlock()
	if !ok || s.id != id {
		// Only the exact minted id resolves: a non-canonical spelling of
		// the same sequence ("run-7", "run-+7") must not reach — let alone
		// cancel — another client's "run-000007".
		return nil, false
	}
	return s, true
}

// Delete removes a session and reports whether it was present. The run
// directory is unlinked only after the in-memory delete succeeded, which
// requires the canonical minted id — a hostile id never reaches the
// filesystem.
func (st *store) Delete(id string) bool {
	seq, ok := parseSeq(id)
	if !ok {
		return false
	}
	st.mu.Lock()
	s, ok := st.runs[seq]
	if !ok || s.id != id {
		st.mu.Unlock()
		return false
	}
	delete(st.runs, seq)
	st.mu.Unlock()
	if st.dataDir != "" && !s.keepDir {
		s.disk.Lock() // after the terminal record's writes, never amid them
		_ = os.RemoveAll(filepath.Join(st.dataDir, "runs", id))
		s.disk.Unlock()
	}
	return true
}

// Snapshot returns all retained sessions in no particular order.
func (st *store) Snapshot() []*session {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]*session, 0, len(st.runs))
	for _, s := range st.runs {
		out = append(out, s)
	}
	return out
}

// Len reports the number of retained sessions.
func (st *store) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.runs)
}

// --- lifecycle: TTL and cap eviction ---------------------------------------

// evictExpired removes terminal sessions whose TTL has lapsed. Running
// sessions are never evicted: their goroutine is still producing events
// and their cancel handle must stay reachable.
func (m *Manager) evictExpired(now time.Time) {
	if m.cfg.SessionTTL <= 0 {
		return
	}
	m.evictMu.Lock()
	defer m.evictMu.Unlock()
	for _, s := range m.store.Snapshot() {
		state, finished := s.terminalInfo()
		if state.Terminal() && now.Sub(finished) >= m.cfg.SessionTTL {
			if m.store.Delete(s.id) {
				m.evictedTTL.Add(1)
			}
		}
	}
}

// enforceCap evicts oldest-terminal-first until the store is back under
// MaxSessions. If every excess session is still running, nothing is
// evicted — the store temporarily exceeds the cap rather than killing
// in-flight work.
func (m *Manager) enforceCap() {
	if m.cfg.MaxSessions <= 0 {
		return
	}
	// Serialized with evictExpired: two concurrent passes (Start's
	// synchronous call racing a janitor tick) would each compute excess
	// from the same Len and together evict below the cap.
	m.evictMu.Lock()
	defer m.evictMu.Unlock()
	excess := m.store.Len() - m.cfg.MaxSessions
	if excess <= 0 {
		return
	}
	var terminal []*session
	for _, s := range m.store.Snapshot() {
		if state, _ := s.terminalInfo(); state.Terminal() {
			terminal = append(terminal, s)
		}
	}
	// Oldest first by creation sequence, so retained history is always the
	// newest runs.
	slices.SortFunc(terminal, func(a, b *session) int { return int(a.seq - b.seq) })
	for _, s := range terminal {
		if excess <= 0 {
			return
		}
		if m.store.Delete(s.id) {
			m.evictedCap.Add(1)
			excess--
		}
	}
}

// janitor periodically applies TTL and cap eviction until the manager's
// base context is cancelled (Shutdown). Cap pressure is also relieved
// synchronously on Start; the janitor catches sessions that turned
// terminal since, and is the only driver of TTL expiry.
func (m *Manager) janitor(interval time.Duration) {
	defer m.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-m.baseCtx.Done():
			return
		case now := <-t.C:
			m.evictExpired(now)
			m.enforceCap()
		}
	}
}
