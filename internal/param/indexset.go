package param

import "math/bits"

// IndexSet is a set of configuration indices below a bound. The samplers use
// one to reject repeated draws, where a Go map's inserts cost several times
// the draw itself. It takes one of two forms, whichever is smaller: a bitmap
// over [0, bound), one bit per index, or an open-addressing hash table with
// linear probing, sized from the expected count, so its memory is O(n)
// whatever the bound. A draw of thousands from a 10⁵-10⁶-point space is a
// bitmap: a bit test where the table hashes and probes.
type IndexSet struct {
	bits  []uint64 // the bitmap, or nil for a table
	slots []int64  // the table: index+1, or 0 for an empty slot
	shift uint     // 64 - log2(len(slots))
	n     int
}

// NewIndexSet returns an empty set for indices in [0, bound) with room for n
// of them before it grows. It is a bitmap when the bitmap's ⌈bound/64⌉
// words are no more than the table's slots would be.
func NewIndexSet(n int, bound int64) *IndexSet {
	s := &IndexSet{}
	n = max(n, 4)
	if words := (bound + 63) / 64; words <= int64(tableSlots(n)) {
		s.bits = make([]uint64, words)
		return s
	}
	s.alloc(n)
	return s
}

// tableSlots is the table size for n indices: the smallest power of two at
// least twice n, so probe runs stay short.
func tableSlots(n int) int { return 1 << bits.Len(uint(2*n-1)) }

func (s *IndexSet) alloc(n int) {
	size := tableSlots(n)
	s.slots = make([]int64, size)
	s.shift = uint(64 - bits.TrailingZeros(uint(size)))
}

// slot returns the position of idx in the table, or of the empty slot where
// it would go.
func (s *IndexSet) slot(idx int64) int {
	mask := len(s.slots) - 1
	i := int((uint64(idx) * 0x9e3779b97f4a7c15) >> s.shift)
	for s.slots[i] != 0 && s.slots[i] != idx+1 {
		i = (i + 1) & mask
	}
	return i
}

// Has reports whether idx is in the set.
func (s *IndexSet) Has(idx int64) bool {
	if s.bits != nil {
		return s.bits[idx>>6]&(1<<(idx&63)) != 0
	}
	return s.slots[s.slot(idx)] != 0
}

// Add puts idx, an index in [0, bound), in the set and reports whether it
// was absent.
func (s *IndexSet) Add(idx int64) bool {
	if s.bits != nil {
		w, b := &s.bits[idx>>6], uint64(1)<<(idx&63)
		if *w&b != 0 {
			return false
		}
		*w |= b
		s.n++
		return true
	}
	i := s.slot(idx)
	if s.slots[i] != 0 {
		return false
	}
	s.slots[i] = idx + 1
	s.n++
	if 2*s.n > len(s.slots) {
		old := s.slots
		s.alloc(2 * s.n)
		for _, v := range old {
			if v != 0 {
				s.slots[s.slot(v-1)] = v
			}
		}
	}
	return true
}
