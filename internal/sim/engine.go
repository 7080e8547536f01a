// Type-specialized chunk kernels. A compiled execution plan (plan.go)
// drives a run as a sequence of bounded chunks; the kernels here are the
// chunk runners. There is one sampler loop per scheduler × graph shape
// (dense-uniform, clique-uniform, weighted, node-clock), monomorphized —
// no interface dispatch on the sampling path — and all four share one
// protocol machine. The machine owns the block-prefetched randomness,
// the drop coin and, when the plan fused a Tabular protocol, the
// transition table with its live state bytes and counters. Per step a
// loop samples its pair, flips the drop coin, and either applies the
// table update (an inlined lookup and two byte stores) or calls
// Protocol.Step; the choice is fixed for the run, so the branch predicts
// perfectly. Randomness comes in fixed-size blocks through xrand.Fill,
// and the sampling state (block buffer, cursor, hoisted Lemire rejection
// thresholds) stays alive across chunk calls, so chunking is free: the
// per-step cost is a buffer load, a 128-bit multiply and predictable
// branches regardless of where the plan places chunk boundaries.
//
// Determinism contract: a kernel consumes exactly the same uint64
// stream, in the same order, as the generic Source-driven reference
// kernel would for the same configuration and seed, and on finish
// rewinds the generator past only the draws it consumed (undoing block
// prefetch). The table update consumes no randomness — it replays
// exactly the state updates Step would make — so every seed reproduces
// byte-identical Results, observer callbacks and post-run generator
// state regardless of which kernel ran or whether the protocol was
// fused, for every protocol × scheduler × drop × observer combination;
// engine_test.go asserts all three against an independent
// step-at-a-time reference loop.

package sim

import (
	"math/bits"

	"popgraph/internal/core"
	"popgraph/internal/graph"
	"popgraph/internal/xrand"
)

// rngBlockSize is the number of uint64 values prefetched per refill, and
// also the plan's chunk-length bound. Big enough to amortize the Fill
// call and keep the generator state in registers for the whole block,
// small enough that the end-of-run rewind (at most one block re-skipped)
// stays negligible.
const rngBlockSize = 512

// kernel is a chunk runner: the compiled hot loop for one scheduler ×
// graph shape, owning all mutable sampling state of one run.
type kernel interface {
	// run executes steps t0+1 .. t0+k, stopping early when the protocol
	// stabilizes; it returns the number of steps executed and whether the
	// final one stabilized. The plan guarantees k >= 1.
	run(p Protocol, r *xrand.Rand, t0, k int64) (done int64, stabilized bool)
	// finish rewinds any prefetched randomness so the generator is left
	// exactly where drawing one value at a time would have left it.
	finish(r *xrand.Rand)
	// sync reconciles the protocol's internal counters with any state
	// the kernel mutated behind Protocol.Step's back; the plan calls it
	// before every observer callback and at the end of the run. A no-op
	// under Step dispatch, where protocols maintain their own counters.
	sync()
	// stats returns the run's telemetry tallies: RNG block refills and
	// interactions suppressed by drop injection. The counters are plain
	// kernel-local ints bumped on paths that are already cold (the
	// out-of-line refill) or predictable (the drop branch, short-circuited
	// away entirely when drop == 0), so accounting never costs the hot
	// loop an atomic or a call; the plan reads them once per run.
	stats() (refills, drops int64)
}

// rngBlock is the shared block-prefetch state: a buffer of raw Uint64
// outputs, a cursor, and the generator snapshot needed to rewind unused
// prefetch on finish. Kernels keep one alive across chunk calls.
type rngBlock struct {
	buf     [rngBlockSize]uint64
	k       int
	saved   xrand.State
	filled  bool
	refills int64
}

// next returns the next stream value, refilling the block when
// exhausted. The hot path is a bounds-elided load and an increment; the
// refill lives in its own function so next stays inlinable.
//
//popcheck:kernel
func (b *rngBlock) next(r *xrand.Rand) uint64 {
	if b.k == rngBlockSize {
		b.refill(r)
	}
	x := b.buf[b.k]
	b.k++
	return x
}

// refill is the cold path of next; keeping it out of line keeps next
// itself within the inlining budget, which is what makes the per-draw
// cost of the kernels a buffer load instead of a function call.
//
//popcheck:kernel
//go:noinline
func (b *rngBlock) refill(r *xrand.Rand) {
	b.saved = r.Save()
	r.Fill(b.buf[:])
	b.k = 0
	b.filled = true
	b.refills++
}

// finish repositions r as if the consumed values had been drawn one at
// a time: restore the pre-block state, skip the consumed prefix.
func (b *rngBlock) finish(r *xrand.Rand) {
	if b.filled {
		r.Restore(b.saved)
		r.Skip(b.k)
		b.filled = false
		b.k = rngBlockSize
	}
}

// uintn is xrand.Uintn fed from the block buffer: same guarded Lemire
// rejection, same accepted draws, for bounds that vary per step.
//
//popcheck:kernel
func (b *rngBlock) uintn(r *xrand.Rand, n uint64) uint64 {
	hi, lo := bits.Mul64(b.next(r), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(b.next(r), n)
		}
	}
	return hi
}

// machine is the protocol half every sampler loop embeds: the block
// prefetch, the drop coin and its tally, and — when table is set — the
// fused transition table. A fused run mutates the protocol's state
// array in place (Tabular.TableStates aliases it), so per-node
// accessors stay live mid-run; the protocol's own counters are
// reconciled by sync, which the plan invokes before every observer
// callback and at the end of the run.
type machine struct {
	blk   rngBlock
	drop  float64
	drops int64

	table   bool // fixed per run: apply the table instead of Protocol.Step
	tp      Tabular
	cells   []uint32
	states  []uint8
	k       uint32
	leaders int
	gap     int // Σ gapWeight(state) − target; stable iff 0
}

// bind readies a zero machine, in place inside its freshly allocated
// kernel, for one run. A non-nil tp (already Reset) is fused: its
// compiled table and live state array are captured and the counters
// computed by full scan.
func (m *machine) bind(drop float64, tp Tabular) {
	m.blk.k = rngBlockSize
	m.drop = drop
	if tp != nil {
		tab := tp.Table()
		m.table, m.tp = true, tp
		m.cells, m.states, m.k = tab.Cells(), tp.TableStates(), uint32(tab.K())
		m.leaders, m.gap = tab.Counters(m.states)
	}
}

// apply is the fused interaction of initiator u and responder v,
// mirroring core.TransitionTable.Apply byte for byte: two state loads,
// one cell lookup, two state stores and the two counter deltas.
//
//popcheck:kernel
func (m *machine) apply(u, v int) {
	s := m.states
	c := m.cells[uint32(s[u])*m.k+uint32(s[v])]
	s[u], s[v] = uint8(c>>8), uint8(c)
	m.leaders += int(c>>16&0xff) - core.TableDeltaBias
	m.gap += int(c>>24) - core.TableDeltaBias
}

func (m *machine) finish(r *xrand.Rand)  { m.blk.finish(r) }
func (m *machine) stats() (int64, int64) { return m.blk.refills, m.drops }

// sync hands the maintained counters back to a fused protocol so
// Leaders/Stable/etc. are accurate at observer callbacks and after the
// run.
func (m *machine) sync() {
	if m.table {
		m.tp.ReloadCounters(m.leaders, m.gap)
	}
}

// The sampler loops below share one glue per step, after the pair
// (u, v) is drawn: the drop coin, when enabled, converts the next block
// value in place — one extra stream position per step, exactly like the
// reference loop's live Float64 call — then the machine applies the
// table or dispatches Step, then tests gap == 0 or Stable.
//
// The Lemire reductions mirror xrand.Uintn draw for draw. Uintn guards
// the threshold computation behind the rare lo < n test; since
// thresh = 2⁶⁴ mod n < n, looping directly on lo < thresh rejects
// exactly the same draws, and precomputing thresh hoists the 64-bit
// division out of the hot loop entirely. Bounds that vary per step
// (node-clock's per-degree draw) keep Uintn's guarded form instead.

// denseKernel is the uniform-scheduler loop for CSR graphs: one
// block-buffered Lemire reduction over the 2m ordered pairs per step,
// pair unpacking straight from the raw packed edge array, and the
// direction swap branch-free (a taken/not-taken branch on the draw's
// parity would mispredict half the time).
type denseKernel struct {
	machine
	edges  []int64
	twoM   uint64
	thresh uint64
}

func newDenseKernel(g *graph.Dense, drop float64, tp Tabular) *denseKernel {
	twoM := uint64(2 * g.M())
	kn := &denseKernel{edges: g.PackedEdges(), twoM: twoM, thresh: -twoM % twoM}
	kn.bind(drop, tp)
	return kn
}

//popcheck:kernel
func (kn *denseKernel) run(p Protocol, r *xrand.Rand, _, k int64) (int64, bool) {
	m := &kn.machine
	for i := int64(1); i <= k; i++ {
		hi, lo := bits.Mul64(m.blk.next(r), kn.twoM)
		for lo < kn.thresh {
			hi, lo = bits.Mul64(m.blk.next(r), kn.twoM)
		}
		// Unpack edge hi>>1 as (initiator, responder), reversing the
		// pair when hi is odd via an XOR mask instead of a branch.
		e := uint64(kn.edges[hi>>1])
		eu, ew := e>>32, e&0xffffffff
		swap := (eu ^ ew) & -(hi & 1)
		u, v := int(eu^swap), int(ew^swap)
		if m.drop != 0 && xrand.Float64From(m.blk.next(r)) < m.drop {
			m.drops++
		} else if m.table {
			m.apply(u, v)
		} else {
			p.Step(u, v)
		}
		if m.table {
			if m.gap == 0 {
				return i, true
			}
		} else if p.Stable() {
			return i, true
		}
	}
	return k, false
}

// cliqueKernel is the uniform-scheduler loop for the implicit complete
// graph, mirroring graph.Clique.SampleEdge's two-draw construction of a
// uniform ordered pair of distinct nodes.
type cliqueKernel struct {
	machine
	n, n1    uint64
	threshN  uint64
	threshN1 uint64
}

func newCliqueKernel(g graph.Clique, drop float64, tp Tabular) *cliqueKernel {
	n := uint64(g.N())
	n1 := n - 1
	kn := &cliqueKernel{n: n, n1: n1, threshN: -n % n, threshN1: -n1 % n1}
	kn.bind(drop, tp)
	return kn
}

//popcheck:kernel
func (kn *cliqueKernel) run(p Protocol, r *xrand.Rand, _, k int64) (int64, bool) {
	m := &kn.machine
	for i := int64(1); i <= k; i++ {
		hi, lo := bits.Mul64(m.blk.next(r), kn.n)
		for lo < kn.threshN {
			hi, lo = bits.Mul64(m.blk.next(r), kn.n)
		}
		u := int(hi)
		hi, lo = bits.Mul64(m.blk.next(r), kn.n1)
		for lo < kn.threshN1 {
			hi, lo = bits.Mul64(m.blk.next(r), kn.n1)
		}
		// Skip over u without a branch: the sign bit of u−v−1 is set
		// exactly when v >= u, and that comparison is a coin flip.
		v := int(hi)
		v += int(uint64(u-v-1) >> 63)
		if m.drop != 0 && xrand.Float64From(m.blk.next(r)) < m.drop {
			m.drops++
		} else if m.table {
			m.apply(u, v)
		} else {
			p.Step(u, v)
		}
		if m.table {
			if m.gap == 0 {
				return i, true
			}
		} else if p.Stable() {
			return i, true
		}
	}
	return k, false
}

// weightedKernel is the monomorphized alias-table loop for the Weighted
// scheduler: per step one Lemire reduction over the m columns (with the
// hoisted threshold), one prefetched float against the column's
// acceptance probability, one prefetched parity bit for the
// orientation coin — the exact draw sequence of xrand.Alias.Sample
// followed by Rand.Bool, replayed from the block buffer with no method
// calls on the sampling path.
type weightedKernel struct {
	machine
	pairs  []int64
	prob   []float64
	alias  []int32
	m      uint64
	thresh uint64
}

func newWeightedKernel(s *Weighted, drop float64, tp Tabular) *weightedKernel {
	prob, alias := s.alias.Table()
	cols := uint64(len(prob))
	kn := &weightedKernel{pairs: s.pairs, prob: prob, alias: alias, m: cols, thresh: -cols % cols}
	kn.bind(drop, tp)
	return kn
}

//popcheck:kernel
func (kn *weightedKernel) run(p Protocol, r *xrand.Rand, _, k int64) (int64, bool) {
	m := &kn.machine
	for i := int64(1); i <= k; i++ {
		hi, lo := bits.Mul64(m.blk.next(r), kn.m)
		for lo < kn.thresh {
			hi, lo = bits.Mul64(m.blk.next(r), kn.m)
		}
		col := int(hi)
		if xrand.Float64From(m.blk.next(r)) >= kn.prob[col] {
			col = int(kn.alias[col])
		}
		e := kn.pairs[col]
		u, v := int(e>>32), int(e&0xffffffff)
		if m.blk.next(r)&1 == 1 {
			u, v = v, u
		}
		if m.drop != 0 && xrand.Float64From(m.blk.next(r)) < m.drop {
			m.drops++
		} else if m.table {
			m.apply(u, v)
		} else {
			p.Step(u, v)
		}
		if m.table {
			if m.gap == 0 {
				return i, true
			}
		} else if p.Stable() {
			return i, true
		}
	}
	return k, false
}

// nodeClockKernel is the specialized loop for the NodeClock scheduler:
// the degree-proportional initiator comes from the alias table exactly
// as in weightedKernel, then the responder is a uniform neighbor. The
// neighbor draw's bound varies per step (the initiator's degree), so it
// keeps Uintn's guarded rejection form; on CSR graphs the adjacency
// slice is read directly instead of through two interface calls.
type nodeClockKernel struct {
	machine
	g     graph.Graph
	dense *graph.Dense // non-nil when g is CSR: neighbor reads skip the interface
	prob  []float64
	alias []int32
	n     uint64
	tn    uint64
}

func newNodeClockKernel(s *NodeClock, drop float64, tp Tabular) *nodeClockKernel {
	prob, alias := s.alias.Table()
	n := uint64(len(prob))
	dense, _ := s.g.(*graph.Dense)
	kn := &nodeClockKernel{g: s.g, dense: dense, prob: prob, alias: alias, n: n, tn: -n % n}
	kn.bind(drop, tp)
	return kn
}

//popcheck:kernel
func (kn *nodeClockKernel) run(p Protocol, r *xrand.Rand, _, k int64) (int64, bool) {
	m := &kn.machine
	for i := int64(1); i <= k; i++ {
		hi, lo := bits.Mul64(m.blk.next(r), kn.n)
		for lo < kn.tn {
			hi, lo = bits.Mul64(m.blk.next(r), kn.n)
		}
		u := int(hi)
		if xrand.Float64From(m.blk.next(r)) >= kn.prob[u] {
			u = int(kn.alias[u])
		}
		var v int
		if kn.dense != nil {
			nb := kn.dense.Neighbors(u)
			v = int(nb[m.blk.uintn(r, uint64(len(nb)))])
		} else {
			v = kn.g.NeighborAt(u, int(m.blk.uintn(r, uint64(kn.g.Degree(u))))) //popcheck:ignore hotpath non-CSR fallback; dense path above covers built-in graphs
		}
		if m.drop != 0 && xrand.Float64From(m.blk.next(r)) < m.drop {
			m.drops++
		} else if m.table {
			m.apply(u, v)
		} else {
			p.Step(u, v)
		}
		if m.table {
			if m.gap == 0 {
				return i, true
			}
		} else if p.Stable() {
			return i, true
		}
	}
	return k, false
}

// sourceKernel is the generic reference loop: any Source (a scheduler's
// per-run stream, a graph's SampleEdge via samplerSource, or a test's
// scripted sampler) driven one interface call per step with live
// generator draws. Every specialized kernel above is defined to be
// byte-identical to this one; it is also the only kernel for schedulers
// with per-run mutable state (churn) and for custom graph types.
type sourceKernel struct {
	src   Source
	drop  float64
	drops int64
}

func (kn *sourceKernel) run(p Protocol, r *xrand.Rand, t0, k int64) (int64, bool) {
	for i := int64(1); i <= k; i++ {
		u, v, ok := kn.src.Next(t0+i, r)
		if ok {
			// Same draw sequence as the historical short-circuit form: the
			// drop coin is flipped only for delivered pairs.
			if kn.drop == 0 || r.Float64() >= kn.drop {
				p.Step(u, v)
			} else {
				kn.drops++
			}
		}
		if p.Stable() {
			return i, true
		}
	}
	return k, false
}

func (kn *sourceKernel) finish(*xrand.Rand)    {}
func (kn *sourceKernel) sync()                 {}
func (kn *sourceKernel) stats() (int64, int64) { return 0, kn.drops }
