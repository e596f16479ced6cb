package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/journal"
	"repro/internal/param"
)

func spillSpace(t *testing.T) *param.Space {
	t.Helper()
	space, err := param.NewSpace(
		param.Grid("x", 0, 1, 8),
		param.Levels("y", 1, 2, 3),
	)
	if err != nil {
		t.Fatal(err)
	}
	return space
}

// A second cache over the same directory must serve every measurement the
// first one made, without touching the evaluator.
func TestEvalCacheSpillSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	space := spillSpace(t)
	var calls atomic.Int64
	eval := EvaluatorFunc(func(cfg param.Config) []float64 {
		calls.Add(1)
		return []float64{cfg[0] + cfg[1], cfg[0] - cfg[1]}
	})
	opts := Options{Objectives: 2, RandomSamples: 10, MaxIterations: 1, MaxBatch: 5, Seed: 3}

	c1 := NewEvalCacheDir(dir)
	opts.Cache = c1
	res1, err := Run(space, eval, opts)
	if err != nil {
		t.Fatal(err)
	}
	measured := calls.Load()
	if measured == 0 || res1.CacheMisses != int(measured) {
		t.Fatalf("first run: %d evaluator calls, %d misses", measured, res1.CacheMisses)
	}
	if err := c1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// "Restart": a fresh cache over the same directory.
	c2 := NewEvalCacheDir(dir)
	opts.Cache = c2
	res2, err := Run(space, eval, opts)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != measured {
		t.Errorf("second run re-measured: %d calls, want %d", calls.Load(), measured)
	}
	if res2.CacheMisses != 0 {
		t.Errorf("second run misses = %d, want 0", res2.CacheMisses)
	}
	if c2.SpillErrors() != 0 {
		t.Errorf("spill errors = %d", c2.SpillErrors())
	}
	if len(res2.Front) != len(res1.Front) {
		t.Errorf("fronts differ across restart: %d vs %d points", len(res2.Front), len(res1.Front))
	}
}

// A restarted process whose resumed run its journal answers whole never
// fetches, so it leaves the spill unread: the file keeps its bytes, nothing
// is loaded or counted as a spill error. The next run that misses loads the
// spill and is served every index in it.
func TestSpillUnreadByFullReplay(t *testing.T) {
	dir := t.TempDir()
	space := spillSpace(t)
	var calls atomic.Int64
	eval := EvaluatorFunc(func(cfg param.Config) []float64 {
		calls.Add(1)
		return []float64{cfg[0] + cfg[1], cfg[0] - cfg[1]}
	})
	rec := &memRecorder{}
	opts := Options{Objectives: 2, RandomSamples: 10, MaxIterations: 2, MaxBatch: 4, Seed: 3, Journal: rec}
	first := NewEvalCacheDir(dir)
	opts.Cache = first
	want, err := Run(space, eval, opts)
	if err != nil {
		t.Fatal(err)
	}
	first.Close()
	spilled := int(calls.Load())
	path := spillPath(dir, SpaceFingerprint(space, 2))
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	c := NewEvalCacheDir(dir)
	defer c.Close()
	resumed := opts
	resumed.Cache, resumed.Journal = c, nil
	resumed.Replay = rec.batches
	got, err := Run(space, eval, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSamples(got.Samples, want.Samples) || calls.Load() != int64(spilled) {
		t.Fatalf("the resumed run differs from the journaled one, or measured (%d calls, want %d)", calls.Load(), spilled)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) || c.SpillErrors() != 0 || c.Len() != 0 {
		t.Fatalf("a fully replayed run touched the spill: file changed %v, %d spill errors, %d entries loaded",
			!bytes.Equal(after, before), c.SpillErrors(), c.Len())
	}

	whole := Options{Objectives: 2, RandomSamples: int(space.Size()), MaxIterations: 1, Seed: 5, Cache: c}
	res, err := Run(space, eval, whole)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits != spilled || c.SpillErrors() != 0 {
		t.Fatalf("a run over the whole space was served %d of the %d spilled indices (%d spill errors)", res.CacheHits, spilled, c.SpillErrors())
	}
}

// tearSpill appends a torn record to the one spill file under dir, as a
// crash mid-append leaves it.
func tearSpill(t *testing.T, dir string) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil || len(files) != 1 {
		t.Fatalf("spill files = %v (%v)", files, err)
	}
	f, err := os.OpenFile(files[0], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"i":999,"o":[1.`)
	f.Close()
}

// runSpilled runs opts over a fresh cache on dir, as one daemon process
// does, and returns how many configurations it measured and how many the
// cache served.
func runSpilled(t *testing.T, dir string, opts Options) (measured int64, hits int) {
	t.Helper()
	var calls atomic.Int64
	eval := EvaluatorFunc(func(cfg param.Config) []float64 {
		calls.Add(1)
		return []float64{cfg[0], cfg[1]}
	})
	c := NewEvalCacheDir(dir)
	defer c.Close()
	opts.Cache = c
	res, err := Run(spillSpace(t), eval, opts)
	if err != nil {
		t.Fatal(err)
	}
	if c.SpillErrors() != 0 {
		t.Errorf("spill errors = %d, want 0", c.SpillErrors())
	}
	return calls.Load(), res.CacheHits
}

// A torn trailing record in the spill file (crash mid-append) must not
// poison the namespace: intact entries load, the torn tail is cut, and what
// the next process spills after it loads in the process after that.
func TestEvalCacheSpillTornTail(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Objectives: 2, RandomSamples: 8, MaxIterations: 1, MaxBatch: 4, Seed: 5}
	runSpilled(t, dir, opts)
	tearSpill(t, dir)

	wider := opts
	wider.RandomSamples = 14
	if n, hits := runSpilled(t, dir, wider); n == 0 || hits == 0 {
		t.Fatalf("after a torn tail, the second process measured %d and was served %d; want both > 0 (intact entries must load)", n, hits)
	}
	if n, _ := runSpilled(t, dir, wider); n != 0 {
		t.Errorf("the third process re-measured %d configurations the second one spilled after the torn tail", n)
	}
}

// A spill file cut inside its header line holds no intact line: the next
// process starts it over, and the process after that measures nothing.
func TestEvalCacheSpillTornHeader(t *testing.T) {
	dir := t.TempDir()
	space := spillSpace(t)
	header, _ := json.Marshal(spillHeader{Fingerprint: SpaceFingerprint(space, 2)})
	if err := os.WriteFile(spillPath(dir, SpaceFingerprint(space, 2)), header[:len(header)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	opts := Options{Objectives: 2, RandomSamples: 8, MaxIterations: 1, MaxBatch: 4, Seed: 5}
	if n, _ := runSpilled(t, dir, opts); n != 8 {
		t.Fatalf("over a torn header the run measured %d, want 8", n)
	}
	if n, _ := runSpilled(t, dir, opts); n != 0 {
		t.Errorf("the next process re-measured %d configurations spilled after a torn header", n)
	}
}

// A crash can cut the spill file at any byte. Cut the committed spill file
// at each: the records wholly before the cut load, nothing is counted as a
// spill error, and the records a process appends after the cut survive the
// next open.
func TestSpillCrashCuts(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "spill.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	space := spillSpace(t)
	fp := SpaceFingerprint(space, 2)
	measure := &LocalBackend{Eval: EvaluatorFunc(func(cfg param.Config) []float64 { return []float64{cfg[0], -cfg[1]} })}
	all := make([]int64, space.Size())
	cfgs := make([]param.Config, space.Size())
	for i := range all {
		all[i] = int64(i)
		cfgs[i] = space.AtIndex(all[i])
	}
	dir := t.TempDir()
	for cut := 0; cut <= len(golden); cut++ {
		if err := os.WriteFile(spillPath(dir, fp), golden[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		intact := bytes.LastIndexByte(golden[:cut], '\n') + 1
		want := make(map[int64]string)
		for n, line := range bytes.Split(golden[:intact], []byte("\n")) {
			var r journal.SampleRecord
			if n > 0 && json.Unmarshal(line, &r) == nil {
				want[r.Index] = fmt.Sprint(r.Objs)
			}
		}

		c := NewEvalCacheDir(dir)
		v := c.view(fp, 2, space.Size(), measure)
		loaded := make(map[int64]string)
		for idx, objs := range loadedSpace(v).objs {
			loaded[idx] = fmt.Sprint(objs)
		}
		if !reflect.DeepEqual(loaded, want) {
			t.Fatalf("cut %d: loaded %v, want %v", cut, loaded, want)
		}
		objs, _, err := v.fetchBatch(context.Background(), all, cfgs)
		c.Close()
		if err != nil {
			t.Fatal(err)
		}

		reopened := NewEvalCacheDir(dir)
		s := loadedSpace(reopened.view(fp, 2, space.Size(), nil))
		for i, o := range objs {
			if got := fmt.Sprint(s.objs[int64(i)]); got != fmt.Sprint(o) {
				t.Fatalf("cut %d: index %d reopened as %s, want %v", cut, i, got, o)
			}
		}
		if c.SpillErrors() != 0 || reopened.SpillErrors() != 0 {
			t.Fatalf("cut %d: %d and %d spill errors, want none", cut, c.SpillErrors(), reopened.SpillErrors())
		}
		reopened.Close()
	}
}

// A spill file from a different space must be refused, leaving the
// namespace memory-only — never serve foreign objectives.
func TestEvalCacheSpillForeignFile(t *testing.T) {
	dir := t.TempDir()
	space := spillSpace(t)
	fp := SpaceFingerprint(space, 2)
	path := spillPath(dir, fp)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path,
		[]byte(`{"fingerprint":"some-other-space"}`+"\n"+`{"i":0,"o":[1,2]}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	c := NewEvalCacheDir(dir)
	eval := EvaluatorFunc(func(cfg param.Config) []float64 { return []float64{cfg[0], cfg[1]} })
	opts := Options{Objectives: 2, RandomSamples: 6, MaxIterations: 1, MaxBatch: 3, Seed: 9, Cache: c}
	res, err := Run(space, eval, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits != 0 {
		t.Errorf("foreign spill produced %d hits", res.CacheHits)
	}
	if c.SpillErrors() == 0 {
		t.Error("foreign spill not counted as an error")
	}
	// The foreign file must be untouched.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data[:34]) != `{"fingerprint":"some-other-space"}` {
		t.Error("foreign spill file was overwritten")
	}
	c.Close()
}

// RemoveSpill deletes the directory so a replaced evaluator cannot be
// served stale measurements, and a namespace a run opened before it but
// never fetched from does not recreate it; nil and memory-only receivers
// are no-ops.
func TestEvalCacheRemoveSpill(t *testing.T) {
	base := t.TempDir()
	dir := filepath.Join(base, "cache")
	c := NewEvalCacheDir(dir)
	space := spillSpace(t)
	if _, _, err := fetchOne(context.Background(), c, SpaceFingerprint(space, 1), 1, 0, func() []float64 { return []float64{1} }); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("spill dir not created: %v", err)
	}
	unfetched := c.view(SpaceFingerprint(space, 2), 2, space.Size(), &LocalBackend{Eval: EvaluatorFunc(func(cfg param.Config) []float64 { return cfg })})
	if err := c.RemoveSpill(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Error("spill dir survived RemoveSpill")
	}
	if _, _, err := unfetched.fetchBatch(context.Background(), []int64{0}, []param.Config{space.AtIndex(0)}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Error("a fetch after RemoveSpill recreated the spill dir")
	}
	var nilCache *EvalCache
	if err := nilCache.RemoveSpill(); err != nil {
		t.Errorf("nil RemoveSpill: %v", err)
	}
	if err := NewEvalCache().RemoveSpill(); err != nil {
		t.Errorf("memory-only RemoveSpill: %v", err)
	}
}

// hostileSpillLines are valid-JSON records no run over a 2-objective,
// 24-point space can have written: wrong vector lengths, and indices outside
// the space. Served from the cache, the first four failed every later run
// that drew index 7 ("evaluator returned 1 objectives, want 2", "backend
// returned N-1 results for an N-configuration batch").
var hostileSpillLines = []struct{ name, line string }{
	{"short vector", `{"i":7,"o":[1]}`},
	{"long vector", `{"i":7,"o":[1,2,3]}`},
	{"empty vector", `{"i":7,"o":[]}`},
	{"no vector", `{"i":7}`},
	{"index past the space", `{"i":24,"o":[1,2]}`},
	{"negative index", `{"i":-1,"o":[1,2]}`},
}

// A record that does not fit the namespace is skipped and counted, and its
// index is measured and re-spilled like any miss: the run finishes with the
// front a cache-less run finds.
func TestEvalCacheSpillHostileRecords(t *testing.T) {
	space := spillSpace(t)
	eval := EvaluatorFunc(func(cfg param.Config) []float64 { return []float64{cfg[0] + cfg[1], cfg[0] - cfg[1]} })
	opts := Options{Objectives: 2, RandomSamples: 24, MaxIterations: 1, MaxBatch: 4, Seed: 11}
	ref, err := Run(space, eval, opts)
	if err != nil {
		t.Fatal(err)
	}
	var want []float64
	for _, s := range ref.Samples {
		if s.Index == 7 {
			want = s.Objs
		}
	}
	if want == nil {
		t.Fatal("the seeded run never draws index 7")
	}
	fp := SpaceFingerprint(space, 2)
	for _, tc := range hostileSpillLines {
		line := tc.line
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			header, _ := json.Marshal(spillHeader{Fingerprint: fp})
			if err := os.WriteFile(spillPath(dir, fp), []byte(string(header)+"\n"+line+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			c := NewEvalCacheDir(dir)
			opts := opts
			opts.Cache = c
			res, err := Run(space, eval, opts)
			if err != nil {
				t.Fatalf("run over a spill holding %s: %v", line, err)
			}
			if !reflect.DeepEqual(res.Front, ref.Front) {
				t.Errorf("front differs from the cache-less run:\n got %v\nwant %v", res.Front, ref.Front)
			}
			if res.CacheHits != 0 || c.SpillErrors() != 1 {
				t.Errorf("hits = %d, spill errors = %d; want the record skipped (0 hits) and counted once", res.CacheHits, c.SpillErrors())
			}
			c.Close()

			reopened := NewEvalCacheDir(dir)
			defer reopened.Close()
			got, hit, err := fetchOne(context.Background(), reopened, fp, 2, 7, nil)
			if err != nil || !hit || !reflect.DeepEqual(got, want) {
				t.Errorf("index 7 after the run: %v (hit=%v, err=%v), want the re-spilled measurement %v", got, hit, err, want)
			}
		})
	}
}

// loadedSpace loads the view's namespace from its spill, as the
// namespace's first fetch does, and returns it.
func loadedSpace(v *evalCacheView) *spaceCache {
	v.c.mu.Lock()
	defer v.c.mu.Unlock()
	v.c.load(v.s)
	return v.s
}

// loadSpill opens a cache over a directory whose namespace file for
// spillSpace's 2-objective fingerprint holds data, loads the namespace and
// returns the cache and the namespace.
func loadSpill(t *testing.T, data []byte) (*EvalCache, *spaceCache) {
	t.Helper()
	space := spillSpace(t)
	fp := SpaceFingerprint(space, 2)
	dir := t.TempDir()
	if err := os.WriteFile(spillPath(dir, fp), data, 0o644); err != nil {
		t.Fatal(err)
	}
	c := NewEvalCacheDir(dir)
	t.Cleanup(func() { c.Close() })
	return c, loadedSpace(c.view(fp, 2, space.Size(), nil))
}

// The committed spill file (a seeded run's nine measurements plus one with
// a null objective) must keep loading whole: a format change that orphans
// the caches on users' disks fails here.
func TestSpillGoldenLoads(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "spill.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	c, s := loadSpill(t, data)
	if len(s.objs) != 10 || c.SpillErrors() != 0 {
		t.Fatalf("loaded %d entries with %d spill errors, want 10 and 0", len(s.objs), c.SpillErrors())
	}
	if o := s.objs[3]; len(o) != 2 || !math.IsNaN(o[0]) || o[1] != 1 {
		t.Fatalf("entry 3 = %v, want [NaN 1]", o)
	}
}

// FuzzSpillRecords feeds the spill loader arbitrary file contents. It must
// never panic, and whatever it decides to serve must fit the namespace: a
// vector of the space's objective count at an index inside the space.
func FuzzSpillRecords(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "spill.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	header := golden[:bytes.IndexByte(golden, '\n')+1]
	for _, tc := range hostileSpillLines {
		f.Add(append(append([]byte(nil), header...), tc.line+"\n"...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, s := loadSpill(t, data)
		for idx, objs := range s.objs {
			if len(objs) != 2 || idx < 0 || idx >= 24 {
				t.Fatalf("serving %v at index %d of a 2-objective, 24-point space", objs, idx)
			}
		}
	})
}
