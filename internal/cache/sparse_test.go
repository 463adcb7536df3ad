package cache

import (
	"slices"
	"testing"

	"tmisa/internal/mem"
)

// fingerprintWords collects the word stream Fingerprint folds.
func fingerprintWords(h *Hierarchy) []uint64 {
	var words []uint64
	h.Fingerprint(func(w uint64) { words = append(words, w) })
	return words
}

func materialisedSets(lv *level) int {
	n := 0
	for _, slot := range lv.dir {
		if slot != 0 {
			n++
		}
	}
	return n
}

// TestFreshHierarchyWalks checks the whole-cache walks on a hierarchy no
// fill has touched: each works, and none of them materialises a set.
func TestFreshHierarchyWalks(t *testing.T) {
	for _, scheme := range []Scheme{Multitrack, Associativity} {
		cfg := DefaultConfig()
		cfg.Scheme = scheme
		h := NewHierarchy(cfg)
		// Per level: the level index, no set, then an empty spec list.
		want := []uint64{0, 0, 1, 0}
		if got := fingerprintWords(h); !slices.Equal(got, want) {
			t.Fatalf("%v: fresh fingerprint %v, want %v", scheme, got, want)
		}
		if n := h.SpeculativeLines(); n != 0 {
			t.Fatalf("%v: fresh hierarchy has %d speculative lines", scheme, n)
		}
		h.ClearAll()
		for li, lv := range []*level{h.l1, h.l2} {
			if n := materialisedSets(lv); n != 0 || lv.nslabs != 0 {
				t.Fatalf("%v: L%d has %d sets and %d slabs after the walks, want none", scheme, li+1, n, lv.nslabs)
			}
		}
	}
}

// wayOf returns the way index of l within its set in lv, or -1.
func wayOf(lv *level, l *line) int {
	set := lv.setFor(l.tag)
	for i := range set {
		if &set[i] == l {
			return i
		}
	}
	return -1
}

// TestColdFillsInDescendingSetOrder touches the L1 sets of a small
// hierarchy from the highest index down, so each first fill materialises
// a set at a lower index than the one before. The ways chosen and every
// AccessResult must match what the replacement policy dictates
// regardless of materialisation order.
func TestColdFillsInDescendingSetOrder(t *testing.T) {
	cfg := small(Associativity) // L1: 4 sets x 2 ways; L2: 8 sets x 4 ways
	h := NewHierarchy(cfg)
	ls := mem.Addr(cfg.LineSize)
	miss := AccessResult{Latency: 113, BusBytes: 64}
	steps := []struct {
		line mem.Addr // line number; L1 set = line % 4, L2 set = line % 8
		want AccessResult
		way  int // L1 way holding the line afterwards
	}{
		{3, miss, 0},
		{2, miss, 0},
		{1, miss, 0},
		{0, miss, 0},
		{7, miss, 1}, // second way of L1 set 3
		{6, miss, 1},
		{11, AccessResult{Latency: 113, BusBytes: 64, Evicted: 1}, 0}, // evicts line 3 from L1
		{3, AccessResult{Latency: 13, HitL2: true, Evicted: 1}, 1},    // back from L2, evicts line 7
		{11, AccessResult{Latency: 1, HitL1: true}, 0},
		{2, AccessResult{Latency: 1, HitL1: true}, 0},
	}
	for i, s := range steps {
		got := h.Access(s.line*ls, false, 0)
		if got != s.want {
			t.Fatalf("step %d (line %d): %+v, want %+v", i, s.line, got, s.want)
		}
		l := h.l1.lookup(s.line * ls)
		if l == nil {
			t.Fatalf("step %d: line %d not in L1", i, s.line)
		}
		if w := wayOf(h.l1, l); w != s.way {
			t.Fatalf("step %d: line %d in L1 way %d, want %d", i, s.line, w, s.way)
		}
	}
	// The directory records materialisation order: set 3 first.
	for si, want := range []uint32{3, 2, 1, 0} {
		if got := h.l1.dir[si] & slotMask / uint32(h.l1.ways); got != want {
			t.Errorf("L1 set %d carved as set %d of its slab, want %d", si, got, want)
		}
	}
	if n := materialisedSets(h.l2); n != 6 {
		t.Errorf("L2 materialised %d sets, want 6 (0-3, 6, 7)", n)
	}
}

// TestSlabsGrowGeometricallyAndNeverMove fills every L2 set of the
// default hierarchy and checks that slabs double (capped by the sets
// left) and that a line's address survives every later slab allocation,
// which the spec lists rely on.
func TestSlabsGrowGeometricallyAndNeverMove(t *testing.T) {
	cfg := DefaultConfig()
	h := NewHierarchy(cfg)
	ls := mem.Addr(cfg.LineSize)
	nsets := len(h.l2.dir)
	h.Access(0, false, 0)
	first := h.l2.lookup(0)
	h.l2.noteSpec(first)
	for si := nsets - 1; si > 0; si-- { // one line per L2 set: no L2 eviction
		h.Access(mem.Addr(si)*ls, false, 0)
	}
	if got := h.l2.lookup(0); got != first {
		t.Fatal("L2 line moved when later sets were materialised")
	}
	if len(h.l2.spec) != 1 || h.l2.spec[0] != first {
		t.Fatal("L2 spec list no longer points at the listed line")
	}
	var sizes []int
	for _, s := range h.l2.slabs[:h.l2.nslabs] {
		sizes = append(sizes, len(s)/h.l2.ways)
	}
	want := []int{8, 8, 16, 32, 64, 128, 256, 512}
	if !slices.Equal(sizes, want) {
		t.Fatalf("L2 slab sizes %v sets, want %v", sizes, want)
	}
	if n := materialisedSets(h.l2); n != nsets {
		t.Fatalf("L2 materialised %d of %d sets", n, nsets)
	}
}

// TestRolledBackSetFingerprintsEmpty checks that a materialised set
// whose only line a rollback invalidated folds into the fingerprint
// exactly like an untouched set.
func TestRolledBackSetFingerprintsEmpty(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	h.Access(0x1000, true, 1) // speculative write: L1 version, clean L2 copy
	h.RollbackLevel(1)        // the written version is discarded
	if h.l1.lookup(0x1000) != nil {
		t.Fatal("setup: written version survived its rollback")
	}
	if materialisedSets(h.l1) != 1 {
		t.Fatal("setup: L1 set not materialised")
	}
	// L1: level index and an empty spec list, no set.
	words := fingerprintWords(h)
	if want := []uint64{0, 0, 1}; !slices.Equal(words[:3], want) {
		t.Fatalf("fingerprint starts %v, want %v (L1 empty)", words[:3], want)
	}
}

// TestFingerprintWideSets covers sets wider than Fingerprint's stack
// scratch: the ranking must still order every valid way by LRU.
func TestFingerprintWideSets(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L2Ways = 32
	h := NewHierarchy(cfg)
	stride := mem.Addr(cfg.L2Bytes / cfg.L2Ways) // same L2 set
	for k := mem.Addr(0); k < 20; k++ {
		h.Access(k*stride, false, 0)
	}
	words := fingerprintWords(h)
	// The L2 part: level 1, set 0, then (way, tag, masks, bits) per line
	// in fill order, which is way order here.
	i := 0
	for i < len(words) && !(words[i] == 1 && words[i+1] == 0) {
		i++
	}
	for k := 0; k < 20; k++ {
		way, tag := words[i+2+4*k], words[i+3+4*k]
		if way != uint64(k) || tag != uint64(mem.Addr(k)*stride) {
			t.Fatalf("L2 line %d fingerprinted as way %d tag %#x, want way %d tag %#x", k, way, tag, k, mem.Addr(k)*stride)
		}
	}
}

// Benchmark sinks, so the compiler cannot drop a measured call.
var (
	sinkHierarchy *Hierarchy
	sinkResult    AccessResult
)

// BenchmarkNewHierarchy measures building one CPU's hierarchy with the
// paper's parameters. No set has ways until its first fill.
func BenchmarkNewHierarchy(b *testing.B) {
	cfg := DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkHierarchy = NewHierarchy(cfg)
	}
}

// BenchmarkAccess measures one access on the paper's hierarchy:
//   - l1hit: a load that hits L1;
//   - l2hit: a load that misses L1 and hits L2 (each access evicts the
//     line the next one wants from L1);
//   - coldfill: a load to a set no fill has touched yet, which
//     materialises an L1 and an L2 set (the hierarchy is rebuilt, off
//     the clock, once every set has been touched);
//   - gang: a transactional write at level 2 followed by a closed
//     CommitLevel(2) and a RollbackLevel(1).
func BenchmarkAccess(b *testing.B) {
	cfg := DefaultConfig()
	ls := mem.Addr(cfg.LineSize)
	b.Run("l1hit", func(b *testing.B) {
		h := NewHierarchy(cfg)
		h.Access(0x1000, false, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkResult = h.Access(0x1000, false, 0)
		}
	})
	b.Run("l2hit", func(b *testing.B) {
		h := NewHierarchy(cfg)
		// L1Ways+1 lines in one L1 set but spread over L2 sets: under
		// LRU a round-robin over them always misses L1 and hits L2.
		stride := mem.Addr(cfg.L1Bytes / cfg.L1Ways)
		n := mem.Addr(cfg.L1Ways + 1)
		for k := mem.Addr(0); k < n; k++ {
			h.Access(k*stride, false, 0)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !h.Access(mem.Addr(i)%n*stride, false, 0).HitL2 {
				b.Fatal("access did not hit L2")
			}
		}
	})
	b.Run("coldfill", func(b *testing.B) {
		h := NewHierarchy(cfg)
		nsets := len(h.l2.dir)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			si := i % nsets
			if si == 0 && i > 0 {
				b.StopTimer()
				h = NewHierarchy(cfg)
				b.StartTimer()
			}
			sinkResult = h.Access(mem.Addr(si)*ls, false, 0)
		}
	})
	b.Run("gang", func(b *testing.B) {
		h := NewHierarchy(cfg)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Access(0x1000, false, 1)
			sinkResult = h.Access(0x2000, true, 2)
			h.CommitLevel(2, false)
			h.RollbackLevel(1)
		}
	})
}
