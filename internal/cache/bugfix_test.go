package cache

import (
	"testing"

	"tmisa/internal/mem"
)

// markedLines aggregates the hierarchy's transactional metadata per
// logical line address: whether any version anywhere carries a read or a
// write mark. It is the white-box view the differential suite compares
// across schemes (version counts legitimately differ — the associativity
// scheme replicates — but the set of marked lines must not).
func markedLines(h *Hierarchy) map[mem.Addr][2]bool {
	out := make(map[mem.Addr][2]bool)
	for _, lv := range []*level{h.l1, h.l2} {
		for _, slot := range lv.dir {
			if slot == 0 {
				continue
			}
			set := lv.waysAt(slot)
			for wi := range set {
				l := &set[wi]
				if !l.valid || !l.speculative() {
					continue
				}
				rw := out[l.tag]
				rw[0] = rw[0] || l.rmask != 0 || l.r
				rw[1] = rw[1] || l.wmask != 0 || l.w
				out[l.tag] = rw
			}
		}
	}
	return out
}

// TestNestedReadAfterShallowWriteSurvivesDeepRollback pins bugfix 1: a
// deeper-level read of a line speculatively written at a shallower level
// must not hand the shallower level's write tracking to the deeper level,
// or a rollback of the deeper level silently discards it.
func TestNestedReadAfterShallowWriteSurvivesDeepRollback(t *testing.T) {
	const x = mem.Addr(0x1000)
	for _, scheme := range []Scheme{Multitrack, Associativity} {
		h := NewHierarchy(small(scheme))
		h.Access(x, true, 1)  // level 1 writes the line
		h.Access(x, false, 2) // level 2 only reads it
		h.RollbackLevel(2)
		if n := h.SpeculativeLines(); n == 0 {
			t.Fatalf("%v: level 1's write tracking discarded by the level-2 rollback", scheme)
		}
		rw, ok := markedLines(h)[h.LineAddr(x)]
		if !ok || !rw[1] {
			t.Fatalf("%v: line no longer write-marked after level-2 rollback (marks: %v, %v)", scheme, ok, rw)
		}
		// Rolling back level 1 must now discard the speculative write.
		h.RollbackLevel(1)
		if n := h.SpeculativeLines(); n != 0 {
			t.Fatalf("%v: %d speculative lines survive full rollback", scheme, n)
		}
		if scheme == Associativity {
			if r := h.Access(x, false, 0); r.HitL1 {
				t.Fatalf("%v: speculatively written line survived its level's rollback: %+v", scheme, r)
			}
		}
	}
}

// TestPromotionKeepsMetadataInOneLevel pins bugfix 2: when an L1 miss is
// served by an L2 copy carrying transactional metadata, the promotion
// must leave the metadata in exactly one level, or the commit gang walk
// sees the line on both spec lists and charges the merge once per copy.
func TestPromotionKeepsMetadataInOneLevel(t *testing.T) {
	const x = mem.Addr(0x1000)
	cfg := small(Multitrack)
	cfg.LazyMerge = false
	h := NewHierarchy(cfg)

	h.Access(x, true, 2) // marks the L1 copy; L2 holds a clean copy
	la := h.LineAddr(x)
	l1l, l2l := h.l1.lookup(la), h.l2.lookup(la)
	if l1l == nil || l2l == nil {
		t.Fatal("setup: line not resident in both levels")
	}
	// Simulate the metadata riding in L2 (as an eviction writeback in an
	// inclusive hierarchy would leave it) with the L1 copy gone.
	l2l.rmask, l2l.wmask = l1l.rmask, l1l.wmask
	h.l2.noteSpec(l2l)
	l1l.clearTx()
	l1l.valid = false

	// The next access misses L1 and promotes the marked L2 copy.
	r := h.Access(x, false, 0)
	if !r.HitL2 {
		t.Fatalf("setup: expected an L2-hit promotion, got %+v", r)
	}

	res := h.CommitLevel(2, false)
	if res.MergedLines != 1 {
		t.Fatalf("closed commit merged %d line copies, want 1 per logical line", res.MergedLines)
	}
}

// TestOverflowChargedOncePerLogicalLine pins bugfix 3: when a line's
// metadata is (transiently) resident in both levels, evicting one copy
// while the other still holds live metadata is not an overflow — only the
// eviction of the last copy virtualizes the line, so one logical line
// pays OverflowPenalty exactly once.
func TestOverflowChargedOncePerLogicalLine(t *testing.T) {
	const x = mem.Addr(0x1000)
	cfg := small(Multitrack)
	h := NewHierarchy(cfg)

	h.Access(x, true, 1)
	la := h.LineAddr(x)
	l1l, l2l := h.l1.lookup(la), h.l2.lookup(la)
	if l1l == nil || l2l == nil {
		t.Fatal("setup: line not resident in both levels")
	}
	// Duplicate the metadata onto the L2 copy: the dual-residency state
	// bugfix 2 eliminates going forward, which accounting must still
	// handle consistently (it also arises under white-box fault plans).
	l2l.rmask, l2l.wmask = l1l.rmask, l1l.wmask
	h.l2.noteSpec(l2l)

	// Fill x's set in both levels with conflicting clean lines. Every line
	// of x's L2 set also maps to x's L1 set, so the sequence first evicts
	// x from the 2-way L1 (metadata still live in L2: no overflow), then
	// from the 4-way L2 (last copy: one overflow).
	stride := mem.Addr(cfg.L2Bytes / cfg.L2Ways)
	overflowed := 0
	for i := 1; i <= 4; i++ {
		r := h.Access(x+mem.Addr(i)*stride, false, 0)
		overflowed += r.Overflowed
	}
	if h.l1.lookup(la) != nil || h.l2.lookup(la) != nil {
		t.Fatal("setup: line still resident; eviction sequence too short")
	}
	if overflowed != 1 {
		t.Fatalf("logical line charged %d overflows across its evictions, want exactly 1", overflowed)
	}
}

// diffOp is one step of the differential trace.
type diffOp struct {
	kind  int // 0 access, 1 commit, 2 rollback
	addr  mem.Addr
	write bool
	open  bool
	nl    int
}

// genDiffTrace builds a deterministic nested access/commit/rollback
// sequence from a seed, respecting the nesting discipline (commit and
// rollback target the innermost open level).
func genDiffTrace(seed uint64, n int) []diffOp {
	s := seed
	next := func() uint64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	var ops []diffOp
	depth := 0
	for len(ops) < n {
		switch r := next() % 100; {
		case depth == 0 || (r < 20 && depth < 4):
			depth++ // xbegin: no cache-visible op, accesses carry the level
		case r < 60:
			ops = append(ops, diffOp{
				kind:  0,
				addr:  mem.Addr(next()%48) * 0x20, // spans sets, lines, words
				write: next()%2 == 0,
				nl:    depth,
			})
		case r < 80:
			ops = append(ops, diffOp{kind: 1, nl: depth, open: next()%5 == 0})
			depth--
		default:
			ops = append(ops, diffOp{kind: 2, nl: depth})
			depth--
		}
	}
	for depth > 0 {
		ops = append(ops, diffOp{kind: 2, nl: depth})
		depth--
	}
	return ops
}

// TestDifferentialSchemes drives identical nested access/commit/rollback
// sequences through both metadata schemes and asserts they agree on the
// per-line speculative footprint, the overflow count, and the post-gang
// SpeculativeLines() emptiness. This is the harness proving the three
// accounting fixes and guarding the bounded mode: the schemes differ in
// version counts and costs, never in which logical lines are tracked.
func TestDifferentialSchemes(t *testing.T) {
	for seed := uint64(1); seed <= 24; seed++ {
		ops := genDiffTrace(seed, 64)
		// A roomy cache so capacity effects (which legitimately differ
		// between the schemes: replication pressures sets) do not evict.
		mk := func(s Scheme) *Hierarchy {
			cfg := DefaultConfig()
			cfg.Scheme = s
			return NewHierarchy(cfg)
		}
		hm, ha := mk(Multitrack), mk(Associativity)
		overM, overA := 0, 0
		for i, op := range ops {
			switch op.kind {
			case 0:
				overM += hm.Access(op.addr, op.write, op.nl).Overflowed
				overA += ha.Access(op.addr, op.write, op.nl).Overflowed
			case 1:
				hm.CommitLevel(op.nl, op.open)
				ha.CommitLevel(op.nl, op.open)
			case 2:
				hm.RollbackLevel(op.nl)
				ha.RollbackLevel(op.nl)
			}
			mm, ma := markedLines(hm), markedLines(ha)
			if len(mm) != len(ma) {
				t.Fatalf("seed %d op %d (%+v): marked-line sets diverge: multitrack %v vs associativity %v",
					seed, i, op, mm, ma)
			}
			for a, rwM := range mm {
				rwA, ok := ma[a]
				if !ok || rwM[1] != rwA[1] {
					t.Fatalf("seed %d op %d (%+v): line %#x tracked as %v (multitrack) vs %v,%v (associativity)",
						seed, i, op, uint64(a), rwM, rwA, ok)
				}
			}
		}
		if overM != overA {
			t.Fatalf("seed %d: overflow counts diverge: multitrack %d vs associativity %d", seed, overM, overA)
		}
		if nm, na := hm.SpeculativeLines(), ha.SpeculativeLines(); nm != 0 || na != 0 {
			t.Fatalf("seed %d: speculative lines survive the full unwind: multitrack %d, associativity %d", seed, nm, na)
		}
	}
}

// TestBoundedSpecEvictionAborts: under BoundedSpec a speculative eviction
// raises CapacityAbort instead of paying the overflow-table penalty.
func TestBoundedSpecEvictionAborts(t *testing.T) {
	for _, scheme := range []Scheme{Multitrack, Associativity} {
		cfg := small(scheme)
		cfg.BoundedSpec = true
		h := NewHierarchy(cfg)
		stride := mem.Addr(cfg.L1Bytes / cfg.L1Ways)
		aborted, overflowed := false, 0
		var plain uint64
		for i := 0; i < 16; i++ {
			r := h.Access(mem.Addr(i)*stride, true, 1)
			if r.CapacityAbort {
				aborted = true
			} else {
				plain = r.Latency
			}
			overflowed += r.Overflowed
			if r.CapacityAbort && r.Latency > plain+uint64(cfg.MemLatency) {
				t.Fatalf("%v: capacity abort still paid a virtualization penalty: %+v", scheme, r)
			}
		}
		if !aborted {
			t.Fatalf("%v: speculative working set exceeded the cache without a capacity abort", scheme)
		}
		if overflowed != 0 {
			t.Fatalf("%v: bounded mode virtualized %d lines into the overflow table", scheme, overflowed)
		}
	}
}

// TestBoundedSpecFootprintLimits: the per-level read/write-line knobs
// bound the footprint below physical capacity.
func TestBoundedSpecFootprintLimits(t *testing.T) {
	cfg := small(Multitrack)
	cfg.BoundedSpec = true
	cfg.MaxWriteLines = 2
	h := NewHierarchy(cfg)
	// Distinct sets: no physical pressure, only the knob.
	if r := h.Access(0x000, true, 1); r.CapacityAbort {
		t.Fatalf("first write aborted: %+v", r)
	}
	if r := h.Access(0x040, true, 1); r.CapacityAbort {
		t.Fatalf("second write aborted under MaxWriteLines=2: %+v", r)
	}
	if r := h.Access(0x080, true, 1); !r.CapacityAbort {
		t.Fatalf("third write line did not abort under MaxWriteLines=2: %+v", r)
	}
	// Marks are sticky until the abort's rollback gang-clears them.
	h.RollbackLevel(1)
	// Reads are not bounded by the write knob.
	for i := 0; i < 4; i++ {
		if r := h.Access(mem.Addr(i)*0x40, false, 1); r.CapacityAbort {
			t.Fatalf("read %d aborted under a write-only limit: %+v", i, r)
		}
	}

	cfg = small(Multitrack)
	cfg.BoundedSpec = true
	cfg.MaxReadLines = 1
	h = NewHierarchy(cfg)
	h.Access(0x000, false, 1)
	if r := h.Access(0x040, false, 1); !r.CapacityAbort {
		t.Fatalf("second read line did not abort under MaxReadLines=1: %+v", r)
	}
}
