package par

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForVisitsEveryIndexOnce(t *testing.T) {
	const n = 1000
	var counts [n]int32
	ForWorkers(n, 4, func(i int) { atomic.AddInt32(&counts[i], 1) })
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestForZeroAndNegative(t *testing.T) {
	called := false
	ForWorkers(0, 4, func(int) { called = true })
	ForWorkers(-5, 4, func(int) { called = true })
	if called {
		t.Fatal("f called for empty range")
	}
}

func TestForWorkersSingleWorkerIsSequential(t *testing.T) {
	var order []int
	ForWorkers(10, 1, func(i int) { order = append(order, i) })
	for i, v := range order {
		if i != v {
			t.Fatalf("sequential order broken at %d: %v", i, order)
		}
	}
}

func TestForChunkedCoversRangeExactly(t *testing.T) {
	f := func(n uint8) bool {
		size := int(n)
		var covered atomic.Int64
		seen := make([]int32, size)
		ForChunked(size, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
				covered.Add(1)
			}
		})
		if covered.Load() != int64(size) {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestForChunkedWorkersCoversRangeExactly(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 3, 64} {
		const size = 1000
		seen := make([]int32, size)
		ForChunkedWorkers(size, workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func BenchmarkForSmallBodies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var sum atomic.Int64
		ForWorkers(256, MaxWorkers(), func(i int) { sum.Add(int64(i)) })
	}
}

func BenchmarkForChunked(b *testing.B) {
	buf := make([]float64, 1<<16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ForChunked(len(buf), func(lo, hi int) {
			for j := lo; j < hi; j++ {
				buf[j] = float64(j) * 0.5
			}
		})
	}
}

func TestForWorkersScratch(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		var gets, puts atomic.Int64
		visited := make([]atomic.Int64, 300)
		ForWorkersScratch(len(visited), workers,
			func() *[]int { gets.Add(1); s := make([]int, 0, 8); return &s },
			func(*[]int) { puts.Add(1) },
			func(sc *[]int, i int) {
				*sc = append((*sc)[:0], i) // exercise the scratch
				visited[(*sc)[0]].Add(1)
			})
		for i := range visited {
			if c := visited[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
		if gets.Load() != puts.Load() {
			t.Fatalf("workers=%d: %d gets but %d puts", workers, gets.Load(), puts.Load())
		}
		want := int64(workers)
		if want > int64(len(visited)) {
			want = int64(len(visited))
		}
		if gets.Load() > want {
			t.Fatalf("workers=%d: %d scratch values for %d workers", workers, gets.Load(), want)
		}
	}
}

func TestForWorkersScratchEmpty(t *testing.T) {
	ForWorkersScratch(0, 4,
		func() int { t.Fatal("get called for empty range"); return 0 },
		func(int) { t.Fatal("put called for empty range") },
		func(int, int) { t.Fatal("body called for empty range") })
}
