package param

import "math/bits"

// IndexSet is a set of configuration indices: an open-addressing hash table
// with linear probing, sized from the expected count, so its memory is O(n)
// whatever the size of the space. The samplers use one to reject repeated
// draws, where a Go map's inserts cost several times the draw itself.
type IndexSet struct {
	slots []int64 // index+1, or 0 for an empty slot
	shift uint    // 64 - log2(len(slots))
	n     int
}

// NewIndexSet returns an empty set with room for n indices before it grows.
func NewIndexSet(n int) *IndexSet {
	s := &IndexSet{}
	s.alloc(max(n, 4))
	return s
}

// alloc makes the table for n indices: the smallest power of two at least
// twice n, so probe runs stay short.
func (s *IndexSet) alloc(n int) {
	b := bits.Len(uint(2*n - 1))
	s.slots = make([]int64, 1<<b)
	s.shift = uint(64 - b)
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
func (s *IndexSet) Has(idx int64) bool { return s.slots[s.slot(idx)] != 0 }

// Add puts idx, a non-negative index, in the set and reports whether it was
// absent.
func (s *IndexSet) Add(idx int64) bool {
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
