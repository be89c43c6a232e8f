package cache

import (
	"testing"

	"spcoh/internal/arch"
)

// paperL2 returns an empty cache with the paper's L2 geometry (1 MB,
// 8 ways, 2048 sets): the widest set walk the simulator runs.
func paperL2() *Cache { return New(Config{Bytes: 1 << 20, Ways: 8}) }

// fullL2 returns a paper-geometry L2 holding lines [0, capacity).
func fullL2() (*Cache, int) {
	c := paperL2()
	lines := c.cfg.Sets() * c.cfg.Ways
	for a := 0; a < lines; a++ {
		c.Insert(arch.LineAddr(a), Shared)
	}
	return c, lines
}

// BenchmarkLookupHit measures a hit: a set walk plus the LRU refresh.
func BenchmarkLookupHit(b *testing.B) {
	c, lines := fullL2()
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if c.Lookup(arch.LineAddr(i&(lines-1))) == nil {
			b.Fatal("resident line missed")
		}
	}
}

// BenchmarkFill measures a fill into a free way. Each fill is undone by
// an Invalidate, so the set never fills up and nothing is evicted.
func BenchmarkFill(b *testing.B) {
	c := paperL2()
	sets := c.cfg.Sets()
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		a := arch.LineAddr(i & (sets - 1))
		if _, evicted := c.Insert(a, Exclusive); evicted {
			b.Fatal("fill into a free way evicted")
		}
		c.Invalidate(a)
	}
}

// BenchmarkEvict measures a fill into a full set: every insert names a
// line not yet seen, so it displaces the set's LRU way.
func BenchmarkEvict(b *testing.B) {
	c, lines := fullL2()
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if _, evicted := c.Insert(arch.LineAddr(lines+i), Modified); !evicted {
			b.Fatal("insert into a full set did not evict")
		}
	}
}
