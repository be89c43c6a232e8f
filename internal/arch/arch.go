// Package arch defines the basic architectural vocabulary shared by every
// subsystem of the simulator: physical addresses, node identifiers, and
// sharer sets (bit vectors of processor cores).
//
// The package is deliberately tiny and dependency-free; it sits at the bottom
// of the import graph.
package arch

import (
	"fmt"
	"math/bits"
	"strings"
)

// Addr is a physical byte address.
type Addr uint64

// LineAddr is a cache-line-aligned address (Addr with the offset bits
// stripped). All coherence state is keyed by LineAddr.
type LineAddr uint64

// NodeID identifies a tile (core + private caches + directory slice) in the
// CMP. NodeIDs are dense in [0, NumNodes).
type NodeID int

// None is the NodeID used where "no node" is meant (e.g. no owner).
const None NodeID = -1

// LineSize is the coherence granularity in bytes. The paper's configuration
// (Table 4) uses 64-byte lines throughout; the simulator assumes this
// constant globally because the directory interleaving and the predictors'
// macroblock indexing both derive from it.
const LineSize = 64

// LineShift is log2(LineSize).
const LineShift = 6

// Line returns the cache line containing a.
func (a Addr) Line() LineAddr { return LineAddr(a >> LineShift) }

// Base returns the first byte address of the line.
func (l LineAddr) Base() Addr { return Addr(l) << LineShift }

// MaxNodes is the largest machine a SharerSet can describe: one 64-bit
// word, which covers the 8x8 mesh.
const MaxNodes = 64

// SharerSet is a bit vector over NodeIDs: bit i set means node i is a member.
// It is the universal currency of destination-set prediction — communication
// signatures, predicted sets, directory sharer lists and invalidation targets
// are all SharerSets. It is a comparable value type: == compares membership,
// and it can key maps.
type SharerSet struct {
	w uint64
}

// EmptySet is the SharerSet with no members (also the zero value).
var EmptySet SharerSet

// SetOf builds a SharerSet from a list of nodes.
func SetOf(nodes ...NodeID) SharerSet {
	var s SharerSet
	for _, n := range nodes {
		s = s.Add(n)
	}
	return s
}

// FullSet returns the set containing nodes [0, n).
func FullSet(n int) SharerSet {
	if n >= MaxNodes {
		return SharerSet{^uint64(0)}
	}
	if n <= 0 {
		return EmptySet
	}
	return SharerSet{uint64(1)<<uint(n) - 1}
}

// SetFromBits64 builds a set from its 64-bit membership mask (bit i is
// node i). It is the inverse of Bits64; the binary trace format stores
// sets this way.
func SetFromBits64(mask uint64) SharerSet { return SharerSet{mask} }

// Bits64 returns the membership mask: bit i set means node i is a member.
func (s SharerSet) Bits64() uint64 { return s.w }

// Add returns s with node n added (out-of-range n is ignored).
func (s SharerSet) Add(n NodeID) SharerSet {
	if n < 0 || n >= MaxNodes {
		return s
	}
	s.w |= 1 << uint(n)
	return s
}

// Remove returns s with node n removed.
func (s SharerSet) Remove(n NodeID) SharerSet {
	if n < 0 || n >= MaxNodes {
		return s
	}
	s.w &^= 1 << uint(n)
	return s
}

// Contains reports whether node n is a member of s.
func (s SharerSet) Contains(n NodeID) bool {
	return n >= 0 && n < MaxNodes && s.w&(1<<uint(n)) != 0
}

// Count returns the number of members.
func (s SharerSet) Count() int { return bits.OnesCount64(s.w) }

// Empty reports whether s has no members.
func (s SharerSet) Empty() bool { return s.w == 0 }

// Union returns s ∪ t.
func (s SharerSet) Union(t SharerSet) SharerSet { return SharerSet{s.w | t.w} }

// Intersect returns s ∩ t.
func (s SharerSet) Intersect(t SharerSet) SharerSet { return SharerSet{s.w & t.w} }

// Minus returns s \ t.
func (s SharerSet) Minus(t SharerSet) SharerSet { return SharerSet{s.w &^ t.w} }

// Superset reports whether s ⊇ t.
func (s SharerSet) Superset(t SharerSet) bool { return t.w&^s.w == 0 }

// First returns the lowest-numbered member, or None if the set is empty.
func (s SharerSet) First() NodeID {
	if s.w == 0 {
		return None
	}
	return NodeID(bits.TrailingZeros64(s.w))
}

// Nodes returns the members in ascending order.
func (s SharerSet) Nodes() []NodeID {
	out := make([]NodeID, 0, s.Count())
	s.ForEach(func(n NodeID) { out = append(out, n) })
	return out
}

// ForEach calls fn for every member in ascending order.
func (s SharerSet) ForEach(fn func(NodeID)) {
	for w := s.w; w != 0; w &= w - 1 {
		fn(NodeID(bits.TrailingZeros64(w)))
	}
}

// String renders the set as e.g. "{0,3,5}".
func (s SharerSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(n NodeID) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "%d", n)
	})
	b.WriteByte('}')
	return b.String()
}

// BitString renders the set as a fixed-width bit vector, LSB (node 0) first,
// matching the paper's Figure 6 presentation.
func (s SharerSet) BitString(n int) string {
	b := make([]byte, n)
	for i := 0; i < n; i++ {
		if s.Contains(NodeID(i)) {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}
