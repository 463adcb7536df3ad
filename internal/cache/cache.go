// Package cache models the private cache hierarchy of each simulated CPU:
// an L1 and L2 with the paper's parameters (32 KB, 1-cycle; 512 KB,
// 12-cycle), plus the per-line transactional metadata of the two nesting
// schemes from Section 6.3:
//
//   - the multi-tracking scheme: each line carries R_i/W_i membership bits
//     for every hardware nesting level (Figure 4a), with closed-nested
//     commits merging level i bits into level i-1 (eagerly or lazily);
//   - the associativity scheme: each line carries a single R/W pair and a
//     nesting-level (NL) field; writes by a deeper transaction to a line
//     already speculatively written at a shallower level replicate the
//     line into another way of the same set (Figure 4b).
//
// Speculative data itself lives in the HTM engine (package tm); the cache
// model is responsible for timing (hit/miss latency), capacity effects
// (replication and overflow into the virtualized overflow table), and the
// cost differences between the two schemes, which is what the scheme
// ablation (experiment A1) measures.
package cache

import (
	"fmt"

	"tmisa/internal/mem"
)

// Scheme selects the nesting support implementation (Section 6.3).
type Scheme int

const (
	// Multitrack gives every line R/W bits per hardware nesting level.
	Multitrack Scheme = iota
	// Associativity gives every line one R/W pair plus an NL field, using
	// extra ways of the set for multiple speculative versions.
	Associativity
)

func (s Scheme) String() string {
	if s == Multitrack {
		return "multitrack"
	}
	return "associativity"
}

// Config holds the hierarchy parameters. Defaults (see DefaultConfig)
// reproduce the paper's evaluation platform.
type Config struct {
	LineSize int // bytes per line; power of two

	L1Bytes   int
	L1Ways    int
	L1Latency int // cycles per L1 hit

	L2Bytes   int
	L2Ways    int
	L2Latency int // additional cycles for an L2 hit

	MemLatency int // additional cycles for a miss to memory

	// MaxLevels is the number of hardware nesting levels the line metadata
	// supports (the paper's platform supports three).
	MaxLevels int

	Scheme Scheme

	// LazyMerge defers closed-commit read-/write-set merging: instead of a
	// latency proportional to the child's set size at commit, each merged
	// line pays a one-cycle fix-up on its next access (Section 6.3.1).
	LazyMerge bool

	// OverflowPenalty is the cycle cost charged when a transactionally
	// marked line is evicted and must be virtualized into the overflow
	// table in thread-private virtual memory.
	OverflowPenalty int

	// BoundedSpec bounds speculative state to what the hardware can hold,
	// as real HTMs do: instead of virtualizing an evicted transactional
	// line into the overflow table (OverflowPenalty), the eviction raises
	// a capacity abort (AccessResult.CapacityAbort), which the core turns
	// into a violation of every active level.
	BoundedSpec bool

	// MaxReadLines and MaxWriteLines additionally bound the speculative
	// read-/write-line footprint per cache level under BoundedSpec,
	// modelling HTMs whose tracking structures are smaller than the cache
	// (0 = bounded by physical capacity only). Ignored unless BoundedSpec
	// is set.
	MaxReadLines, MaxWriteLines int
}

// DefaultConfig returns the paper's platform parameters.
func DefaultConfig() Config {
	return Config{
		LineSize:        64,
		L1Bytes:         32 << 10,
		L1Ways:          4,
		L1Latency:       1,
		L2Bytes:         512 << 10,
		L2Ways:          8,
		L2Latency:       12,
		MemLatency:      100,
		MaxLevels:       3,
		Scheme:          Associativity,
		LazyMerge:       true,
		OverflowPenalty: 50,
	}
}

// line is one cache line's tags and transactional metadata. The simulator
// stores no data here; package tm is authoritative for values. Fields are
// ordered widest first so a line packs into 40 bytes.
type line struct {
	tag mem.Addr
	lru uint64

	// Associativity scheme: the NL field (0 = not speculative) of the
	// single R/W pair below.
	nl int

	// Multi-tracking scheme: R_i / W_i bitmasks, bit i-1 for level i.
	rmask, wmask uint32

	valid bool

	// Associativity scheme: the single R/W pair.
	r, w bool

	// mergePending marks a line whose set membership still has to be
	// folded into the parent level (lazy merging); the next access pays a
	// one-cycle read-modify-write fix-up.
	mergePending bool

	// listed marks a line currently on its level's spec list (see
	// level.spec). It is intentionally NOT cleared by clearTx: a cleared
	// line may still sit on the list as a stale entry until the next gang
	// operation compacts it away.
	listed bool
}

func (l *line) speculative() bool {
	return l.rmask != 0 || l.wmask != 0 || l.nl != 0 || l.r || l.w
}

func (l *line) clearTx() {
	l.rmask, l.wmask = 0, 0
	l.r, l.w = false, false
	l.nl = 0
	l.mergePending = false
}

// A set directory entry packs the slab number plus one above slotShift
// and the offset of the set's first way within that slab below it; 0
// marks a set no fill has touched yet.
const (
	slotShift = 24
	slotMask  = 1<<slotShift - 1

	// maxSlabs bounds the slabs of a level. The first slab holds
	// max(minFirstSlab, sets/2^(maxSlabs-1)) sets, and each later one as
	// many as all earlier ones together, so every level fits: the
	// paper's 1024-set L2 in exactly maxSlabs, starting from 8 sets.
	maxSlabs     = 8
	minFirstSlab = 8
)

// level is one cache (L1 or L2). It is sparse: a set gets its ways on
// its first fill, so a level costs memory in proportion to the sets a
// run touches, not to its capacity. An untouched set holds no valid line,
// so every lookup in it misses.
type level struct {
	dir      []uint32 // one slot per set (see slotShift)
	ways     int
	setShift uint
	setMask  mem.Addr
	lruTick  uint64

	// slabs back the materialised sets, ways lines per set. A slab never
	// moves once allocated, because spec holds pointers into it. Slabs
	// grow geometrically (see maxSlabs), so a level makes at most
	// maxSlabs of them however many sets it touches. nslabs slabs are
	// allocated, used sets are materialised, and carved lines of the last
	// slab are handed out.
	slabs                [maxSlabs][]line
	nslabs, carved, used int

	// spec lists every line slot that may hold transactional metadata
	// (superset: stale entries are compacted by the next gang operation).
	// Commit and rollback gang operations walk this list instead of every
	// set and way, making their cost proportional to the transaction's
	// footprint rather than the cache size — the dominant cost of
	// transaction-dense workloads before this existed.
	spec []*line
}

// numSets returns the set count of a level of the given geometry.
func numSets(bytes, ways, lineSize int) int {
	lines := bytes / lineSize
	if lines%ways != 0 {
		panic(fmt.Sprintf("cache: %d lines not divisible by %d ways", lines, ways))
	}
	nsets := lines / ways
	if nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a power of two", nsets))
	}
	if lines > 2<<slotShift {
		// The largest slab holds half the lines; its offsets must fit
		// below slotShift.
		panic(fmt.Sprintf("cache: %d lines per level is too many", lines))
	}
	return nsets
}

// init sets lv up with one directory slot per set, all untouched.
func (lv *level) init(dir []uint32, ways, lineSize int) {
	lv.dir = dir
	lv.ways = ways
	lv.setShift = log2(lineSize)
	lv.setMask = mem.Addr(len(dir) - 1)
}

// noteSpec puts l on the spec list unless it is already there. Every code
// path that sets transactional metadata on a line must call it; gang
// operations rely on the invariant that a speculative line is listed.
func (lv *level) noteSpec(l *line) {
	if !l.listed {
		l.listed = true
		lv.spec = append(lv.spec, l)
	}
}

func log2(v int) uint {
	var s uint
	for 1<<s < v {
		s++
	}
	return s
}

func (lv *level) setIndex(lineAddr mem.Addr) mem.Addr {
	return (lineAddr >> lv.setShift) & lv.setMask
}

// setFor returns the ways of lineAddr's set, or nil if the set is
// untouched.
func (lv *level) setFor(lineAddr mem.Addr) []line {
	if slot := lv.dir[lv.setIndex(lineAddr)]; slot != 0 {
		return lv.waysAt(slot)
	}
	return nil
}

// waysAt returns the ways a non-zero directory slot points at. The slab
// number is always below maxSlabs; the modulo only spares a bounds check
// on this hot path.
func (lv *level) waysAt(slot uint32) []line {
	off := slot & slotMask
	return lv.slabs[(slot>>slotShift-1)%maxSlabs][off : off+uint32(lv.ways)]
}

// materialise gives the untouched set of lineAddr its ways, carving them
// from the last slab or from a new one.
func (lv *level) materialise(lineAddr mem.Addr) []line {
	if lv.nslabs == 0 || lv.carved == len(lv.slabs[lv.nslabs-1]) {
		nsets := len(lv.dir)
		sets := min(max(minFirstSlab, nsets>>(maxSlabs-1), lv.used), nsets-lv.used)
		lv.slabs[lv.nslabs] = make([]line, sets*lv.ways)
		lv.nslabs++
		lv.carved = 0
	}
	slot := uint32(lv.nslabs)<<slotShift | uint32(lv.carved)
	lv.carved += lv.ways
	lv.used++
	lv.dir[lv.setIndex(lineAddr)] = slot
	return lv.waysAt(slot)
}

// lookup finds the line (associativity scheme: the most recent version,
// i.e. the one with the highest NL) and returns it, or nil on miss.
func (lv *level) lookup(lineAddr mem.Addr) *line {
	return find(lv.setFor(lineAddr), lineAddr)
}

// find is lookup within set, the ways of lineAddr's set (nil if it is
// untouched).
func find(set []line, lineAddr mem.Addr) *line {
	var best *line
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == lineAddr {
			if best == nil || l.nl > best.nl {
				best = l
			}
		}
	}
	return best
}

// victim picks the replacement way for a fill of lineAddr, whose set's
// ways are set: an invalid way if any, otherwise the LRU way. It reports
// whether a speculative line was evicted. A fill is what materialises an
// untouched set (set == nil).
func (lv *level) victim(set []line, lineAddr mem.Addr) (*line, bool) {
	if set == nil {
		set = lv.materialise(lineAddr)
	}
	var victim *line
	for i := range set {
		l := &set[i]
		if !l.valid {
			victim = l
			break
		}
		if victim == nil || l.lru < victim.lru {
			victim = l
		}
	}
	overflowed := victim.valid && victim.speculative()
	return victim, overflowed
}

func (lv *level) touch(l *line) {
	lv.lruTick++
	l.lru = lv.lruTick
}

// AccessResult reports the consequences of one memory access through the
// hierarchy.
type AccessResult struct {
	// Latency is the cycle cost of the access, excluding any bus transfer.
	Latency uint64
	// BusBytes is how many bytes must cross the shared bus (a line fill on
	// a miss to memory), zero on cache hits.
	BusBytes int
	// HitL1 and HitL2 classify where the access hit.
	HitL1, HitL2 bool
	// Overflowed counts speculative lines evicted into the virtualized
	// overflow table by this access's fills.
	Overflowed int
	// Evicted counts valid lines replaced by this access's fills
	// (speculative or not).
	Evicted int
	// LazyFix reports that this access paid the one-cycle lazy-merge
	// fix-up.
	LazyFix bool
	// CapacityAbort reports that, under Config.BoundedSpec, this access
	// evicted a speculative line (or breached a footprint limit) and the
	// transaction must abort: there is no overflow table to virtualize
	// into.
	CapacityAbort bool
}

// Hierarchy is the private L1+L2 of one CPU.
type Hierarchy struct {
	cfg    Config
	l1     *level
	l2     *level
	levels [2]level // what l1 and l2 point at
}

// NewHierarchy builds a hierarchy from cfg. No set has ways yet; each
// gets them on its first fill.
func NewHierarchy(cfg Config) *Hierarchy {
	if cfg.MaxLevels > 32 {
		panic("cache: at most 32 hardware nesting levels supported")
	}
	n1 := numSets(cfg.L1Bytes, cfg.L1Ways, cfg.LineSize)
	n2 := numSets(cfg.L2Bytes, cfg.L2Ways, cfg.LineSize)
	dir := make([]uint32, n1+n2) // both levels' directories, one allocation
	h := &Hierarchy{cfg: cfg}
	h.l1, h.l2 = &h.levels[0], &h.levels[1]
	h.l1.init(dir[:n1:n1], cfg.L1Ways, cfg.LineSize)
	h.l2.init(dir[n1:], cfg.L2Ways, cfg.LineSize)
	return h
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// LineAddr maps an address to its line address under this configuration.
func (h *Hierarchy) LineAddr(a mem.Addr) mem.Addr { return mem.LineAddr(a, h.cfg.LineSize) }

// Access performs one load or store at hardware nesting level nl
// (0 = non-transactional), updating tags, LRU and the scheme's
// transactional metadata, and returns the timing consequences.
func (h *Hierarchy) Access(a mem.Addr, write bool, nl int) AccessResult {
	lineAddr := h.LineAddr(a)
	var res AccessResult
	res.Latency = uint64(h.cfg.L1Latency)

	set1 := h.l1.setFor(lineAddr)
	l := find(set1, lineAddr)
	switch {
	case l != nil:
		res.HitL1 = true
	default:
		res.Latency += uint64(h.cfg.L2Latency)
		set2 := h.l2.setFor(lineAddr)
		if l2line := find(set2, lineAddr); l2line != nil {
			res.HitL2 = true
			// Promote into L1, preserving transactional metadata. The spec
			// listing is a property of the slot, not of the copied
			// contents: keep the target's own flag, then list it if the
			// promoted metadata is speculative.
			l = h.fill(h.l1, set1, lineAddr, &res)
			wasListed := l.listed
			*l = *l2line
			l.tag, l.valid = lineAddr, true
			l.listed = wasListed
			if l.speculative() {
				h.l1.noteSpec(l)
			}
			// A logical line's metadata lives in exactly one level: strip it
			// from the L2 copy, or the commit/rollback gang walks would see
			// the same line on both spec lists and charge MergedLines and
			// merge latency once per copy. The L2 copy stays valid for data
			// residency; its stale spec-list entry compacts at the next gang
			// operation (see line.listed).
			l2line.clearTx()
		} else {
			res.Latency += uint64(h.cfg.MemLatency)
			res.BusBytes = h.cfg.LineSize
			l2 := h.fill(h.l2, set2, lineAddr, &res)
			l2.clearTx()
			l = h.fill(h.l1, set1, lineAddr, &res)
			l.clearTx()
		}
	}
	h.l1.touch(l)

	if l.mergePending {
		l.mergePending = false
		res.Latency++ // read-modify-write fix-up while updating LRU bits
		res.LazyFix = true
	}
	if nl > 0 {
		h.mark(lineAddr, l, write, nl, &res)
	}
	return res
}

// fill allocates a way for lineAddr in lv, whose set's ways are set (nil
// if untouched), accounting overflow of speculative victims, and returns
// the line (tag set, metadata cleared by the caller as appropriate).
func (h *Hierarchy) fill(lv *level, set []line, lineAddr mem.Addr, res *AccessResult) *line {
	v, overflowed := lv.victim(set, lineAddr)
	if v.valid {
		res.Evicted++
	}
	if overflowed {
		// Overflow is per logical line, not per copy: if another copy of
		// the victim still holds live metadata in the other level, the
		// line's set membership survives in-cache and nothing is
		// virtualized (or aborted) by this eviction.
		if o := h.other(lv).lookup(v.tag); o == nil || !o.speculative() {
			if h.cfg.BoundedSpec {
				res.CapacityAbort = true
			} else {
				res.Overflowed++
				res.Latency += uint64(h.cfg.OverflowPenalty)
			}
		}
	}
	v.tag, v.valid = lineAddr, true
	lv.touch(v)
	return v
}

// other returns the level lv is paired with.
func (h *Hierarchy) other(lv *level) *level {
	if lv == h.l1 {
		return h.l2
	}
	return h.l1
}

// mark records read-/write-set membership per the configured scheme.
func (h *Hierarchy) mark(lineAddr mem.Addr, l *line, write bool, nl int, res *AccessResult) {
	hwLevel := nl
	if hwLevel > h.cfg.MaxLevels {
		// Deeper nests than the hardware supports are virtualized; the
		// deepest hardware level tracks them (the overflow table holds
		// precise membership, modelled in package tm).
		hwLevel = h.cfg.MaxLevels
	}
	switch h.cfg.Scheme {
	case Multitrack:
		bit := uint32(1) << (hwLevel - 1)
		if write {
			l.wmask |= bit
		} else {
			l.rmask |= bit
		}
	case Associativity:
		switch {
		case l.nl == 0:
			l.nl = hwLevel
		case l.nl < hwLevel && write:
			// A shallower transaction in the nest holds a speculative
			// version and this level writes the line: allocate a new way
			// for this level's version (Figure 4b), pressuring capacity.
			// Renumbering instead would hand the ancestor's tracking to
			// this level, and a rollback here would silently discard it.
			nl2 := h.fill(h.l1, h.l1.setFor(lineAddr), lineAddr, res)
			nl2.clearTx()
			nl2.tag, nl2.valid = lineAddr, true
			nl2.nl = hwLevel
			l = nl2
		case l.nl < hwLevel:
			// A deeper READ of a shallower version needs no new version —
			// it is served from the ancestor's copy. The read rides on the
			// ancestor's version (conservative attribution, which a closed
			// commit would merge there anyway); renumbering would discard
			// the ancestor's membership on a rollback of this level.
		}
		if write {
			l.w = true
		} else {
			l.r = true
		}
	}
	h.l1.noteSpec(l) // mark only ever touches L1-resident lines
	if h.cfg.BoundedSpec && (h.cfg.MaxReadLines > 0 || h.cfg.MaxWriteLines > 0) {
		reads, writes := h.specFootprint()
		if (h.cfg.MaxReadLines > 0 && reads > h.cfg.MaxReadLines) ||
			(h.cfg.MaxWriteLines > 0 && writes > h.cfg.MaxWriteLines) {
			res.CapacityAbort = true
		}
	}
}

// specFootprint counts the distinct logical lines currently holding read
// and write marks (a line both read and written counts in both, as it
// occupies an entry in each tracking structure). The walk is proportional
// to the transaction footprint via the spec lists; the bug-2 invariant
// (metadata in exactly one level) keeps each logical line counted once.
func (h *Hierarchy) specFootprint() (reads, writes int) {
	for _, lv := range []*level{h.l1, h.l2} {
		for _, l := range lv.spec {
			if !l.valid {
				continue
			}
			if l.rmask != 0 || l.r {
				reads++
			}
			if l.wmask != 0 || l.w {
				writes++
			}
		}
	}
	return reads, writes
}

// CommitResult reports the cost of a commit or rollback gang operation.
type CommitResult struct {
	// Latency is the immediate cycle cost (eager merging pays one cycle
	// per merged line; gang invalidations are flash operations).
	Latency uint64
	// MergedLines counts lines whose membership moved to the parent.
	MergedLines int
}

// CommitLevel performs the metadata side of a commit at hardware nesting
// level nl. For closed commits the level's membership merges into nl-1
// (lazily or eagerly per the config); for open commits and outermost
// commits the level's marks are discarded (the data has become globally
// visible).
func (h *Hierarchy) CommitLevel(nl int, open bool) CommitResult {
	if nl > h.cfg.MaxLevels {
		// Levels beyond the hardware are virtualized onto the deepest
		// hardware level; commits of such levels are metadata no-ops here
		// (package tm tracks the precise membership).
		return CommitResult{}
	}
	var res CommitResult
	closedMerge := !open && nl > 1
	for _, lv := range []*level{h.l1, h.l2} {
		kept := lv.spec[:0]
		for _, l := range lv.spec {
			if l.valid {
				switch h.cfg.Scheme {
				case Multitrack:
					bit := uint32(1) << (nl - 1)
					if l.rmask&bit == 0 && l.wmask&bit == 0 {
						break
					}
					if closedMerge {
						down := uint32(1) << (nl - 2)
						if l.rmask&bit != 0 {
							l.rmask = l.rmask&^bit | down
						}
						if l.wmask&bit != 0 {
							l.wmask = l.wmask&^bit | down
						}
						res.MergedLines++
						if h.cfg.LazyMerge {
							l.mergePending = true
						} else {
							res.Latency++
						}
					} else {
						l.rmask &^= bit
						l.wmask &^= bit
					}
				case Associativity:
					if l.nl != nl {
						break
					}
					if closedMerge {
						// If an NL = nl-1 version exists in the set, merge
						// into it and free this way; otherwise renumber.
						if old := h.findVersion(lv, l.tag, nl-1); old != nil {
							old.r = old.r || l.r
							old.w = old.w || l.w
							l.valid = false
						} else {
							l.nl = nl - 1
						}
						res.MergedLines++
						if h.cfg.LazyMerge {
							l.mergePending = true
						} else {
							res.Latency++
						}
					} else {
						l.clearTx()
					}
				}
			}
			if l.valid && l.speculative() {
				kept = append(kept, l)
			} else {
				l.listed = false
			}
		}
		lv.spec = kept
	}
	return res
}

func (h *Hierarchy) findVersion(lv *level, tag mem.Addr, nl int) *line {
	set := lv.setFor(tag) // nil for an untouched set: no version
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == tag && l.nl == nl {
			return l
		}
	}
	return nil
}

// RollbackLevel gang-invalidates the metadata of nesting level nl: for the
// multi-tracking scheme it flash-clears the level's R/W bits; for the
// associativity scheme it invalidates the level's line versions. Flash
// operations are free in the timing model.
func (h *Hierarchy) RollbackLevel(nl int) {
	if nl > h.cfg.MaxLevels {
		// A rollback of a virtualized deep level clears the deepest
		// hardware level, which is where its accesses were tracked.
		nl = h.cfg.MaxLevels
	}
	for _, lv := range []*level{h.l1, h.l2} {
		kept := lv.spec[:0]
		for _, l := range lv.spec {
			if l.valid {
				switch h.cfg.Scheme {
				case Multitrack:
					bit := uint32(1) << (nl - 1)
					l.rmask &^= bit
					l.wmask &^= bit
				case Associativity:
					if l.nl == nl {
						if l.w {
							// Speculative data discarded with the version.
							l.valid = false
						} else {
							l.clearTx()
						}
					}
				}
			}
			if l.valid && l.speculative() {
				kept = append(kept, l)
			} else {
				l.listed = false
			}
		}
		lv.spec = kept
	}
}

// ClearAll drops all transactional metadata (used when a CPU switches
// software threads). Unlike the per-level gang operations it sweeps the
// whole cache: it also clears mergePending on lines that left the spec
// list at their outermost commit but still owe the lazy-merge fix-up.
func (h *Hierarchy) ClearAll() {
	for _, lv := range []*level{h.l1, h.l2} {
		for _, slot := range lv.dir {
			if slot == 0 {
				continue
			}
			set := lv.waysAt(slot)
			for wi := range set {
				set[wi].clearTx()
				set[wi].listed = false
			}
		}
		lv.spec = lv.spec[:0]
	}
}

// Fingerprint folds the hierarchy's behavioral state into fn, an
// FNV-style word accumulator (the litmus explorer's state hash). Two
// hierarchies that fingerprint equal behave identically from here on:
// per set, every valid line's tag and metadata plus the within-set LRU
// *ranking* (replacement order — raw lruTick values are monotone
// counters that differ between equivalent histories), and each level's
// spec-list contents in order (gang-walk cost and stale-entry compaction
// depend on the list itself, including its length). Untouched sets hold
// no valid line, so they fold in nothing.
func (h *Hierarchy) Fingerprint(fn func(uint64)) {
	// Replacement-ranking scratch, one slot per way of the wider level.
	var buf [16]int
	order := buf[:]
	if ways := max(h.l1.ways, h.l2.ways); ways > len(buf) {
		order = make([]int, ways)
	}
	for li, lv := range []*level{h.l1, h.l2} {
		fn(uint64(li))
		for si, slot := range lv.dir {
			if slot == 0 {
				continue
			}
			set := lv.waysAt(slot)
			nvalid := 0
			for wi := range set {
				if set[wi].valid {
					nvalid++
				}
			}
			if nvalid == 0 {
				continue
			}
			fn(uint64(si))
			// Replacement ranking: way indices of the valid lines, oldest
			// LRU first. Insertion sort over <= ways entries.
			n := 0
			for wi := range set {
				if set[wi].valid {
					order[n] = wi
					n++
				}
			}
			for i := 1; i < n; i++ {
				for j := i; j > 0 && set[order[j]].lru < set[order[j-1]].lru; j-- {
					order[j], order[j-1] = order[j-1], order[j]
				}
			}
			for i := 0; i < n; i++ {
				l := &set[order[i]]
				fn(uint64(order[i]))
				fn(uint64(l.tag))
				fn(uint64(l.rmask)<<32 | uint64(l.wmask))
				bits := uint64(l.nl) << 8
				if l.r {
					bits |= 1
				}
				if l.w {
					bits |= 2
				}
				if l.mergePending {
					bits |= 4
				}
				if l.listed {
					bits |= 8
				}
				fn(bits)
			}
		}
		fn(uint64(len(lv.spec)))
		for _, l := range lv.spec {
			fn(uint64(l.tag))
			v := uint64(0)
			if l.valid {
				v = 1
			}
			fn(v)
		}
	}
}

// SpeculativeLines counts lines currently holding transactional marks, for
// tests and capacity diagnostics.
func (h *Hierarchy) SpeculativeLines() int {
	n := 0
	for _, lv := range []*level{h.l1, h.l2} {
		for _, slot := range lv.dir {
			if slot == 0 {
				continue
			}
			set := lv.waysAt(slot)
			for wi := range set {
				if set[wi].valid && set[wi].speculative() {
					n++
				}
			}
		}
	}
	return n
}
