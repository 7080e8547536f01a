// Type-specialized chunk kernels. A compiled execution plan (plan.go)
// drives a run as a sequence of bounded chunks; the kernels here are the
// chunk runners. There is one sampler loop per scheduler × graph shape
// (dense-uniform, clique-uniform, weighted, node-clock, churn-uniform),
// monomorphized — no interface dispatch on the sampling path — and all
// five share one protocol machine. The machine owns the block-prefetched
// randomness, the drop coin and, when the plan fused a Tabular protocol,
// the transition table with its live state bytes and counters (and a
// clocked Tabular's streak bytes and tick table). Per step a loop
// samples its pair (churn-uniform then flips the edge's up coin and
// skips a contact over a down edge), flips the drop coin, and either
// applies the table update (an inlined lookup and two byte stores,
// after the inlined streak clock for a clocked table) or calls
// Protocol.Step; the choice is fixed for the run, so the branch
// predicts perfectly. Randomness comes in fixed-size blocks through
// xrand.Fill, and the sampling state (block buffer, cursor, hoisted
// Lemire rejection thresholds) stays alive across chunk calls, so
// chunking is free: the per-step cost is a buffer load, a 128-bit
// multiply and predictable branches regardless of where the plan places
// chunk boundaries.
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
//
// Lookahead. The block holds each run's draws before the loop uses
// them, so at step i a sampler can already compute where step i + D
// will read and prefetch that memory. On a graph that overflows the
// cache each step otherwise waits on one to three dependent random
// loads; staged prefetches (the first array at D steps ahead, the
// array indexed by what that one holds at D/2, and so on) turn the
// chain into independent misses in flight. Every stage reads only
// m.blk.buf[m.blk.k + d·drawsPerStep] for an offset that stays inside
// the block: it never calls next, never moves the cursor and never
// refills. The guess assumes no Lemire rejection and the usual number
// of draws per step, so a rejection, a churn contact whose up coin
// falls otherwise than guessed or a block boundary makes it wrong, and
// a wrong guess costs a wasted cache line, never a record. Compile
// decides per plan whether the lookahead runs (ExecPlan.Prefetch); off,
// it is folded into the offset (rngBlockSize), so the one compare each
// step makes against the block's end always fails and the prefetch
// call is never reached.

package sim

import (
	"math"
	"math/bits"
	"unsafe"

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

// lookaheadSteps is D, the distance in steps of a sampler's first
// prefetch stage; later stages run at D/2 and D/4. 16 steps is a few
// hundred nanoseconds of loop, enough for a miss to DRAM to land, and
// at 4 draws per step still well inside one block.
const lookaheadSteps = 16

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
	// sync stores a fused machine's table counters into the protocol;
	// the plan calls it before every observer callback and at the end of
	// the run. A no-op under Step dispatch, where protocols maintain
	// their own counters.
	sync()
	// stats returns the run's telemetry tallies: RNG block refills and
	// interactions suppressed by drop injection. The counters are plain
	// kernel-local ints bumped on paths that are already cold (the
	// out-of-line refill) or predictable (the drop branch, short-circuited
	// away entirely when drop == 0), so accounting never costs the hot
	// loop an atomic or a call; the plan reads them once per run.
	stats() (refills, drops int64)
}

// sampler is one of the five specialized kernels. The plan pools them
// per mode (plan.go), so one value serves run after run: attach binds it
// to a plan's graph or scheduler tables and a run's protocol (tp as for
// machine.bind), and release drops every one of those references before
// the kernel goes back to its pool, so an idle kernel pins no graph.
type sampler interface {
	kernel
	attach(pl *ExecPlan, tp *Tabular)
	release()
}

// rngBlock is the shared block-prefetch state: a buffer of raw Uint64
// outputs, a cursor, and the generator snapshot needed to rewind unused
// prefetch on finish. Kernels keep one alive across chunk calls and, as
// pooled kernels, across runs: machine.bind resets the cursor and the
// refill tally, and the run's first refill overwrites buf and saved
// before either is read.
type rngBlock struct {
	buf     [rngBlockSize]uint64
	k       int
	saved   xrand.State
	refills int64 // blocks drawn this run; finish rewinds only after one
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
	b.refills++
}

// finish repositions r as if the consumed values had been drawn one at
// a time: restore the pre-block state, skip the consumed prefix. It is
// called once, at the end of the run.
func (b *rngBlock) finish(r *xrand.Rand) {
	if b.refills > 0 {
		r.Restore(b.saved)
		r.Skip(b.k)
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

// protoMode is a run's protocol dispatch, fixed when the machine is
// bound: Protocol.Step, the fused table, or the fused table gated by a
// streak clock. One byte serves both tests a sampler loop makes per
// step, so a constant-state protocol pays exactly the one compare it
// paid for a bool.
type protoMode uint8

const (
	protoStep    protoMode = iota // interface dispatch: Protocol.Step and Stable
	protoTable                    // a Tabular's table, applied inline
	protoClocked                  // a clocked Tabular: streak clock, then plain or tick table
)

// machine is the protocol half every sampler loop embeds: the block
// prefetch, the drop coin and its tally, and — unless mode is protoStep
// — the fused transition table, plus the tick table and streak bytes of
// a clocked one. A fused run mutates the protocol's state (and streak)
// bytes in place, so Output stays live mid-run, and keeps the two table
// counters in locals; sync stores them back into the protocol before
// every observer callback and at the end of the run.
type machine struct {
	blk   rngBlock
	drop  float64
	drops int64
	ahead int // draw offset of the lookahead's D stage; rngBlockSize when off

	mode      protoMode // fixed per run
	tp        *Tabular
	cells     []uint32
	tickCells []uint32 // protoClocked: the table a completed streak selects
	streak    []uint8  // protoClocked: per-node streak counters
	h         uint8    // protoClocked: streak length
	states    []uint8
	k         uint32
	leaders   int
	gap       int // Σ gapWeight(state) − target; stable iff 0
}

// bind readies the machine for one run of pl. It is the only place
// per-run state is reset, because a pooled kernel arrives carrying its
// previous run's block cursor, refill and drop tallies, lookahead
// offset, table binding and counters. perStep is the sampler's usual
// number of draws per step without the drop coin, which bind adds when
// drops are on; it only sets the lookahead offset. A non-nil tp
// (already Reset) is fused: its compiled tables, live state and streak
// bytes and counters are captured.
func (m *machine) bind(pl *ExecPlan, perStep int, tp *Tabular) {
	m.blk.k, m.blk.refills = rngBlockSize, 0
	m.drop, m.drops = pl.drop, 0
	m.ahead = rngBlockSize
	if pl.prefetch {
		if pl.drop != 0 {
			perStep++
		}
		m.ahead = lookaheadSteps * perStep
	}
	m.mode, m.tp, m.cells, m.tickCells, m.streak, m.h = protoStep, nil, nil, nil, nil, 0
	m.states, m.k, m.leaders, m.gap = nil, 0, 0, 0
	if tp != nil {
		m.mode, m.tp = protoTable, tp
		m.cells, m.states, m.k = tp.table.Cells(), tp.states, uint32(tp.table.K())
		m.leaders, m.gap = tp.leaders, tp.gap
		if tp.tick != nil {
			m.mode = protoClocked
			m.tickCells, m.streak, m.h = tp.tick.Cells(), tp.streak, tp.h
		}
	}
}

// unbind drops the machine's references to the run's protocol and
// tables, so an idle kernel keeps neither alive.
func (m *machine) unbind() {
	m.tp, m.cells, m.tickCells, m.streak, m.states = nil, nil, nil, nil, nil
}

// apply is the fused interaction of initiator u and responder v on
// cells (the machine's table, or the one tick picked), mirroring
// core.TransitionTable.Apply byte for byte: two state loads, one cell
// lookup, two state stores and the two counter deltas. It holds no
// clock test: one pushed it over the inlining budget, and an out-of-line
// apply cost six-state and majority ~20% CPU.
//
//popcheck:kernel
func (m *machine) apply(cells []uint32, u, v int) {
	s := m.states
	c := cells[uint32(s[u])*m.k+uint32(s[v])]
	s[u], s[v] = uint8(c>>8), uint8(c)
	m.leaders += int(c>>16&0xff) - core.TableDeltaBias
	m.gap += int(c>>24) - core.TableDeltaBias
}

// tick runs a clocked machine's streak clock for the interaction of u
// and v and returns the cells it selects: the tick table when u
// completed its streak, the plain table otherwise.
//
//popcheck:kernel
func (m *machine) tick(u, v int) []uint32 {
	if streakTick(m.streak, m.h, u, v) {
		return m.tickCells
	}
	return m.cells
}

// streakTick advances a streak clock by one interaction with initiator
// u and responder v, exactly as streak.Clock.Tick: the responder's
// streak resets, the initiator's grows, and reaching h completes it —
// the clock ticks at u and its streak restarts from 0. Tabular.Step
// runs the same function, so Step dispatch replays the fused clock.
//
//popcheck:kernel
func streakTick(streak []uint8, h uint8, u, v int) bool {
	streak[v] = 0
	s := streak[u] + 1
	if s == h {
		streak[u] = 0
		return true
	}
	streak[u] = s
	return false
}

// aliasGuess resolves an alias-table column from the two draws x and y
// that the weighted and node-clock loops would turn into one: the
// column is x reduced to [0, cols) without Lemire's rejection, then its
// alias unless y's float lands below the column's probability. Always
// in range, and right unless x is rejected.
//
//popcheck:kernel
func aliasGuess(prob []float64, alias []int32, cols, x, y uint64) uint64 {
	col, _ := bits.Mul64(x, cols)
	if xrand.Float64From(y) >= prob[col] {
		col = uint64(alias[col])
	}
	return col
}

func (m *machine) finish(r *xrand.Rand)  { m.blk.finish(r) }
func (m *machine) stats() (int64, int64) { return m.blk.refills, m.drops }

// sync hands the maintained counters back to a fused protocol so
// Leaders and Stable are accurate at observer callbacks and after the
// run.
func (m *machine) sync() {
	if m.mode != protoStep {
		m.tp.leaders, m.tp.gap = m.leaders, m.gap
	}
}

// The sampler loops below share one glue per step, after the pair
// (u, v) is drawn: the drop coin, when enabled, converts the next block
// value in place — one extra stream position per step, exactly like the
// reference loop's live Float64 call — then the machine applies the
// table or dispatches Step, then tests gap == 0 or Stable.
//
// The glue stays copied into each loop on purpose: both merges tried
// so far slowed the fused path (cmd/bench -quick, best-trial ns/step,
// 2-core Xeon VM). One loop with a per-step switch on the sampler took
// clique-1024 six-state from 10.0–10.2 to 14.8–17.6 and cycle-1024
// from 8.2–9.0 to 9.9–10.3, and cut cmd/e2ebench table1 msteps_per_s
// from a median of 89.4 to 72.5 (12 runs a side). Merging only
// dense-uniform and churn-uniform behind a per-run branch took
// torus-16x16 six-state from 9.3–9.8 to 15.8–18.3 and torus-32x32
// majority from 6.7–7.2 to 12.4–13.8. A shared helper is fine only
// where it inlines (machine.apply, rngBlock.next).
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
// parity would mispredict half the time). Its lookahead prefetches the
// edge D steps ahead and, for a fused table, both state bytes of the
// edge D/2 steps ahead, whose line the first stage has fetched.
type denseKernel struct {
	machine
	edges  []int64
	twoM   uint64
	thresh uint64
}

func (kn *denseKernel) attach(pl *ExecPlan, tp *Tabular) {
	g := pl.g.(*graph.Dense)
	twoM := uint64(2 * g.M())
	kn.edges, kn.twoM, kn.thresh = g.PackedEdges(), twoM, -twoM%twoM
	kn.bind(pl, 1, tp)
}

func (kn *denseKernel) release() { kn.edges = nil; kn.unbind() }

//popcheck:kernel
func (kn *denseKernel) run(p Protocol, r *xrand.Rand, _, k int64) (int64, bool) {
	m := &kn.machine
	for i := int64(1); i <= k; i++ {
		if j := m.blk.k + m.ahead; j < rngBlockSize {
			hi, _ := bits.Mul64(m.blk.buf[j], kn.twoM)
			prefetch(unsafe.Pointer(&kn.edges[hi>>1]))
			if s := m.states; s != nil {
				hi, _ = bits.Mul64(m.blk.buf[j-m.ahead>>1], kn.twoM)
				e := uint64(kn.edges[hi>>1])
				prefetch(unsafe.Pointer(&s[e>>32]))
				prefetch(unsafe.Pointer(&s[e&0xffffffff]))
			}
		}
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
		} else if m.mode == protoTable {
			m.apply(m.cells, u, v)
		} else if m.mode == protoClocked {
			m.apply(m.tick(u, v), u, v)
		} else {
			p.Step(u, v)
		}
		if m.mode != protoStep {
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

func (kn *cliqueKernel) attach(pl *ExecPlan, tp *Tabular) {
	n := uint64(pl.g.N())
	n1 := n - 1
	kn.n, kn.n1, kn.threshN, kn.threshN1 = n, n1, -n%n, -n1%n1
	kn.bind(pl, 2, tp)
}

func (kn *cliqueKernel) release() { kn.unbind() }

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
		} else if m.mode == protoTable {
			m.apply(m.cells, u, v)
		} else if m.mode == protoClocked {
			m.apply(m.tick(u, v), u, v)
		} else {
			p.Step(u, v)
		}
		if m.mode != protoStep {
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
// orientation coin (applied as a branch-free XOR swap) — the exact draw sequence of xrand.Alias.Sample
// followed by Rand.Bool, replayed from the block buffer with no method
// calls on the sampling path. Its lookahead prefetches the prob and
// alias slots of the column drawn D steps ahead and the pairs slot of
// the column resolved D/2 steps ahead.
type weightedKernel struct {
	machine
	pairs  []int64
	prob   []float64
	alias  []int32
	m      uint64
	thresh uint64
}

func (kn *weightedKernel) attach(pl *ExecPlan, tp *Tabular) {
	prob, alias := pl.weighted.alias.Table()
	cols := uint64(len(prob))
	kn.pairs, kn.prob, kn.alias, kn.m, kn.thresh = pl.weighted.pairs, prob, alias, cols, -cols%cols
	kn.bind(pl, 3, tp)
}

func (kn *weightedKernel) release() { kn.pairs, kn.prob, kn.alias = nil, nil, nil; kn.unbind() }

//popcheck:kernel
func (kn *weightedKernel) run(p Protocol, r *xrand.Rand, _, k int64) (int64, bool) {
	m := &kn.machine
	for i := int64(1); i <= k; i++ {
		if j := m.blk.k + m.ahead; j < rngBlockSize {
			col, _ := bits.Mul64(m.blk.buf[j], kn.m)
			prefetch(unsafe.Pointer(&kn.prob[col]))
			prefetch(unsafe.Pointer(&kn.alias[col]))
			j -= m.ahead >> 1
			col = aliasGuess(kn.prob, kn.alias, kn.m, m.blk.buf[j], m.blk.buf[j+1])
			prefetch(unsafe.Pointer(&kn.pairs[col]))
		}
		hi, lo := bits.Mul64(m.blk.next(r), kn.m)
		for lo < kn.thresh {
			hi, lo = bits.Mul64(m.blk.next(r), kn.m)
		}
		col := int(hi)
		if xrand.Float64From(m.blk.next(r)) >= kn.prob[col] {
			col = int(kn.alias[col])
		}
		// Orient the pair by the next draw's parity, branch-free as in
		// denseKernel: the coin is a fair flip, so a branch on it would
		// mispredict half the time.
		e := uint64(kn.pairs[col])
		eu, ew := e>>32, e&0xffffffff
		swap := (eu ^ ew) & -(m.blk.next(r) & 1)
		u, v := int(eu^swap), int(ew^swap)
		if m.drop != 0 && xrand.Float64From(m.blk.next(r)) < m.drop {
			m.drops++
		} else if m.mode == protoTable {
			m.apply(m.cells, u, v)
		} else if m.mode == protoClocked {
			m.apply(m.tick(u, v), u, v)
		} else {
			p.Step(u, v)
		}
		if m.mode != protoStep {
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
// arrays are read directly instead of through two interface calls. Its
// lookahead (CSR graphs only) prefetches the prob and alias slots of
// the node drawn D steps ahead, the CSR offset of the initiator
// resolved D/2 steps ahead, and the adjacency slot of the neighbor
// guessed D/4 steps ahead.
type nodeClockKernel struct {
	machine
	g       graph.Graph
	offsets []int32 // CSR arrays when g is a *graph.Dense, else nil
	adj     []int32
	prob    []float64
	alias   []int32
	n       uint64
	tn      uint64
}

func (kn *nodeClockKernel) attach(pl *ExecPlan, tp *Tabular) {
	s := pl.nodeClock
	prob, alias := s.alias.Table()
	n := uint64(len(prob))
	kn.g, kn.offsets, kn.adj = s.g, nil, nil
	if d, ok := s.g.(*graph.Dense); ok {
		kn.offsets, kn.adj = d.CSR()
	}
	kn.prob, kn.alias, kn.n, kn.tn = prob, alias, n, -n%n
	kn.bind(pl, 3, tp)
}

func (kn *nodeClockKernel) release() {
	kn.g, kn.offsets, kn.adj, kn.prob, kn.alias = nil, nil, nil, nil, nil
	kn.unbind()
}

//popcheck:kernel
func (kn *nodeClockKernel) run(p Protocol, r *xrand.Rand, _, k int64) (int64, bool) {
	m := &kn.machine
	for i := int64(1); i <= k; i++ {
		if j := m.blk.k + m.ahead; j < rngBlockSize {
			u, _ := bits.Mul64(m.blk.buf[j], kn.n)
			prefetch(unsafe.Pointer(&kn.prob[u]))
			prefetch(unsafe.Pointer(&kn.alias[u]))
			j -= m.ahead >> 1
			u = aliasGuess(kn.prob, kn.alias, kn.n, m.blk.buf[j], m.blk.buf[j+1])
			prefetch(unsafe.Pointer(&kn.offsets[u]))
			j -= m.ahead >> 2
			u = aliasGuess(kn.prob, kn.alias, kn.n, m.blk.buf[j], m.blk.buf[j+1])
			o := kn.offsets[u]
			// A zero-degree guess gives o itself, which may be len(adj).
			hi, _ := bits.Mul64(m.blk.buf[j+2], uint64(kn.offsets[u+1]-o))
			if a := uint64(o) + hi; a < uint64(len(kn.adj)) {
				prefetch(unsafe.Pointer(&kn.adj[a]))
			}
		}
		hi, lo := bits.Mul64(m.blk.next(r), kn.n)
		for lo < kn.tn {
			hi, lo = bits.Mul64(m.blk.next(r), kn.n)
		}
		u := int(hi)
		if xrand.Float64From(m.blk.next(r)) >= kn.prob[u] {
			u = int(kn.alias[u])
		}
		var v int
		if kn.adj != nil {
			o := kn.offsets[u]
			v = int(kn.adj[uint64(o)+m.blk.uintn(r, uint64(kn.offsets[u+1]-o))])
		} else {
			v = kn.g.NeighborAt(u, int(m.blk.uintn(r, uint64(kn.g.Degree(u))))) //popcheck:ignore hotpath non-CSR fallback; dense path above covers built-in graphs
		}
		if m.drop != 0 && xrand.Float64From(m.blk.next(r)) < m.drop {
			m.drops++
		} else if m.mode == protoTable {
			m.apply(m.cells, u, v)
		} else if m.mode == protoClocked {
			m.apply(m.tick(u, v), u, v)
		} else {
			p.Step(u, v)
		}
		if m.mode != protoStep {
			if m.gap == 0 {
				return i, true
			}
		} else if p.Stable() {
			return i, true
		}
	}
	return k, false
}

// churnKernel is the Churn scheduler's loop on CSR graphs. Per step it
// replays churnSource.Next's draws from the block: the Lemire pair draw
// over 2m with the branch-free orientation of denseKernel, one churn
// coin against the edge's up probability at this step, and the drop
// coin only for a delivered pair, as in the reference loop. Edge state
// is flat, one slot per undirected edge id hi>>1 holding t<<1 | up for
// the step t of the edge's last contact; 0 means never contacted, since
// steps start at 1, so attach zeroes every slot. The slots are uint64 so
// t<<1 stays exact for every int64 step. The slice is the kernel's own
// scratch and survives release: a pooled kernel reuses it for any later
// run on a graph with no more edges. churnSource keeps the same state in
// a map; runs forced by Options.Reference use it as the independent
// implementation. Its lookahead prefetches the edge drawn D steps ahead
// and that edge's state slot. A step draws its drop coin only when the
// edge is up, so its draw count varies and a fixed offset would land
// on a coin two times in three under drops; a walker (la) follows the
// block instead, guessing each edge up with the stationary probability,
// which is exact on first contacts and after long gaps.
type churnKernel struct {
	machine
	edges  []int64
	state  []uint64
	twoM   uint64
	thresh uint64
	la     int     // the lookahead walker's block index (run)
	pi     float64 // stationary up probability b/(a+b)
	base   float64 // per-step decay factor 1−a−b of the on/off chain
}

func (kn *churnKernel) attach(pl *ExecPlan, tp *Tabular) {
	s := pl.churn
	g := s.g.(*graph.Dense)
	twoM := uint64(2 * g.M())
	kn.edges, kn.twoM, kn.thresh = g.PackedEdges(), twoM, -twoM%twoM
	kn.pi, kn.base = s.b/(s.a+s.b), 1-s.a-s.b
	if cap(kn.state) < g.M() {
		kn.state = make([]uint64, g.M())
	} else {
		kn.state = kn.state[:g.M()]
		clear(kn.state)
	}
	// The walker sets its own pace; bind's offset only switches it.
	kn.la = rngBlockSize
	kn.bind(pl, 2, tp)
}

func (kn *churnKernel) release() { kn.edges = nil; kn.unbind() }

// stride moves the lookahead walker from the pair draw at block index
// j to the next step's: past the churn coin, and past the drop coin
// when drops are on and the coin at j+1 finds the edge up at the
// stationary probability. j+1 must be inside the block.
//
//popcheck:kernel
func (kn *churnKernel) stride(j int) int {
	j += 2
	if kn.drop != 0 && xrand.Float64From(kn.blk.buf[j-1]) < kn.pi {
		j++
	}
	return j
}

//popcheck:kernel
func (kn *churnKernel) run(p Protocol, r *xrand.Rand, t0, k int64) (int64, bool) {
	m := &kn.machine
	for i := int64(1); i <= k; i++ {
		if m.ahead < rngBlockSize {
			// la walks the block one guessed step per step, D steps
			// ahead of the cursor; once it has fallen out of that range
			// (a new block or a new run) it restarts from the cursor.
			j := kn.la
			if uint(j-m.blk.k) > 4*lookaheadSteps {
				j = m.blk.k
				for s := 0; s < lookaheadSteps && j < rngBlockSize-1; s++ {
					j = kn.stride(j)
				}
			}
			if j < rngBlockSize-1 {
				hi, _ := bits.Mul64(m.blk.buf[j], kn.twoM)
				prefetch(unsafe.Pointer(&kn.edges[hi>>1]))
				prefetch(unsafe.Pointer(&kn.state[hi>>1]))
				j = kn.stride(j)
			}
			kn.la = j
		}
		hi, lo := bits.Mul64(m.blk.next(r), kn.twoM)
		for lo < kn.thresh {
			hi, lo = bits.Mul64(m.blk.next(r), kn.twoM)
		}
		e := uint64(kn.edges[hi>>1])
		eu, ew := e>>32, e&0xffffffff
		swap := (eu ^ ew) & -(hi & 1)
		u, v := int(eu^swap), int(ew^swap)
		// The edge's up probability at step t: stationary on first
		// contact, else the closed-form transition of its two-state chain
		// over the steps since its last contact. The expressions are
		// churnSource.Next's, so every float rounds the same way; the
		// float64 conversion keeps arm64 from fusing them into an FMA.
		t := t0 + i
		pUp := kn.pi
		if st := kn.state[hi>>1]; st != 0 {
			decay := math.Pow(kn.base, float64(t-int64(st>>1)))
			if st&1 != 0 {
				pUp = kn.pi + float64(decay*(1-kn.pi))
			} else {
				pUp = kn.pi * (1 - decay)
			}
		}
		slot := uint64(t) << 1
		if xrand.Float64From(m.blk.next(r)) < pUp {
			slot |= 1
			if m.drop != 0 && xrand.Float64From(m.blk.next(r)) < m.drop {
				m.drops++
			} else if m.mode == protoTable {
				m.apply(m.cells, u, v)
			} else if m.mode == protoClocked {
				m.apply(m.tick(u, v), u, v)
			} else {
				p.Step(u, v)
			}
		}
		kn.state[hi>>1] = slot
		if m.mode != protoStep {
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
// per-run stream, a test's scripted sampler included, or a graph's
// SampleEdge via samplerSource) driven one interface call per step with live
// generator draws. Every specialized kernel above is defined to be
// byte-identical to this one; it is also the only kernel for custom
// graph and scheduler types and for churn on the implicit clique.
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
