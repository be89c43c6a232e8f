package arch

import (
	"testing"
	"testing/quick"
)

func TestLineRoundTrip(t *testing.T) {
	a := Addr(0x12345)
	l := a.Line()
	if l != LineAddr(0x12345>>6) {
		t.Fatalf("line = %#x", l)
	}
	if l.Base() != Addr(0x12340) { // 0x12345 &^ 63
		t.Fatalf("base = %#x", l.Base())
	}
}

func TestSharerSetBasics(t *testing.T) {
	s := SetOf(0, 3, 5)
	if !s.Contains(0) || !s.Contains(3) || !s.Contains(5) || s.Contains(1) {
		t.Fatalf("membership wrong: %v", s)
	}
	if s.Count() != 3 {
		t.Fatalf("count = %d", s.Count())
	}
	s = s.Remove(3)
	if s.Contains(3) || s.Count() != 2 {
		t.Fatalf("remove failed: %v", s)
	}
	if s.Contains(None) {
		t.Fatal("None must never be a member")
	}
	if EmptySet.First() != None {
		t.Fatal("First of empty should be None")
	}
	if s.First() != 0 {
		t.Fatalf("First = %d", s.First())
	}
}

func TestSetAlgebra(t *testing.T) {
	a := SetOf(1, 2, 3)
	b := SetOf(3, 4)
	if got := a.Union(b); got != SetOf(1, 2, 3, 4) {
		t.Fatalf("union = %v", got)
	}
	if got := a.Intersect(b); got != SetOf(3) {
		t.Fatalf("intersect = %v", got)
	}
	if got := a.Minus(b); got != SetOf(1, 2) {
		t.Fatalf("minus = %v", got)
	}
	if !a.Superset(SetOf(1, 3)) || a.Superset(b) {
		t.Fatal("superset wrong")
	}
	if !a.Superset(EmptySet) {
		t.Fatal("any set is a superset of empty")
	}
}

func TestFullSet(t *testing.T) {
	if FullSet(16).Count() != 16 {
		t.Fatalf("FullSet(16) = %v", FullSet(16))
	}
	if FullSet(0) != EmptySet {
		t.Fatal("FullSet(0) should be empty")
	}
	if got := FullSet(63); got.Count() != 63 || got.Contains(63) || !got.Contains(62) {
		t.Fatalf("FullSet(63) = %v", got)
	}
	if FullSet(64).Count() != 64 || FullSet(MaxNodes+7) != FullSet(64) {
		t.Fatal("FullSet must saturate at 64 = MaxNodes")
	}
}

// TestEdgeMembers checks the highest node a set can hold and the
// out-of-range nodes it must ignore.
func TestEdgeMembers(t *testing.T) {
	s := SetOf(3, 63)
	if s.Count() != 2 || !s.Contains(63) || s.Contains(62) || s.Contains(64) {
		t.Fatalf("edge membership wrong: %v", s)
	}
	if s.First() != 3 {
		t.Fatalf("First = %d", s.First())
	}
	if got := s.Nodes(); len(got) != 2 || got[0] != 3 || got[1] != 63 {
		t.Fatalf("Nodes = %v", got)
	}
	if s.Remove(63).Contains(63) {
		t.Fatal("Remove of node 63 failed")
	}
	if s.Add(64) != s || s.Add(MaxNodes+100) != s || s.Add(None) != s || s.Remove(64) != s {
		t.Fatal("out-of-range Add/Remove must be a no-op")
	}
	if s.Bits64() != 1<<3|1<<63 || SetFromBits64(s.Bits64()) != s {
		t.Fatal("Bits64 must round-trip every member")
	}
}

func TestNodesAndForEach(t *testing.T) {
	s := SetOf(7, 2, 11)
	nodes := s.Nodes()
	want := []NodeID{2, 7, 11}
	if len(nodes) != 3 {
		t.Fatalf("nodes = %v", nodes)
	}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("nodes = %v, want %v", nodes, want)
		}
	}
	var visited []NodeID
	s.ForEach(func(n NodeID) { visited = append(visited, n) })
	if len(visited) != 3 || visited[0] != 2 {
		t.Fatalf("forEach = %v", visited)
	}
}

func TestStrings(t *testing.T) {
	if got := SetOf(0, 5).String(); got != "{0,5}" {
		t.Fatalf("String = %q", got)
	}
	if got := EmptySet.String(); got != "{}" {
		t.Fatalf("String = %q", got)
	}
	if got := SetOf(0, 2).BitString(4); got != "1010" {
		t.Fatalf("BitString = %q", got)
	}
}

// Property: add then contains; remove then not contains; count consistency.
func TestPropertySetOps(t *testing.T) {
	f := func(base uint64, n uint16) bool {
		node := NodeID(int(n) % MaxNodes)
		s := SetFromBits64(base)
		added := s.Add(node)
		if !added.Contains(node) {
			return false
		}
		removed := added.Remove(node)
		if removed.Contains(node) {
			return false
		}
		// Adding an element increases count by 0 or 1.
		d := added.Count() - s.Count()
		return d == 0 || d == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Nodes round-trips through SetOf.
func TestPropertyNodesRoundTrip(t *testing.T) {
	f := func(raw uint64) bool {
		s := SetFromBits64(raw)
		return SetOf(s.Nodes()...) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: DeMorgan-ish identities on the 64-node universe.
func TestPropertySetIdentities(t *testing.T) {
	f := func(a, b uint64) bool {
		x, y := SetFromBits64(a), SetFromBits64(b)
		if x.Union(y).Count() != x.Count()+y.Count()-x.Intersect(y).Count() {
			return false
		}
		if !x.Union(y).Superset(x) || !x.Superset(x.Intersect(y)) {
			return false
		}
		return x.Minus(y).Intersect(y) == EmptySet
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
