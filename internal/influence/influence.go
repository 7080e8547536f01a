// Package influence implements the lower-bound machinery of Sections 6.3
// and 7: influencer sets I_t(v) and their reverse-process computation
// J_t(v) (with internal-interaction counting for the multigraph-of-
// influencers argument, Lemmas 41 and 44), the set S(t) of nodes that have
// not interacted by step t (Lemmas 42–43), and state-density tracking for
// the fully-dense-configuration step of the surgery argument (Lemma 48).
package influence

import (
	"popgraph/internal/core"
	"popgraph/internal/graph"
	"popgraph/internal/protocols/beauquier"
	"popgraph/internal/xrand"
)

// RecordSchedule samples a stochastic schedule of the given length:
// `steps` ordered pairs drawn uniformly among the 2m ordered adjacent
// pairs of g.
func RecordSchedule(g graph.Graph, steps int64, r *xrand.Rand) [][2]int32 {
	sched := make([][2]int32, steps)
	for i := range sched {
		u, v := g.SampleEdge(r)
		sched[i] = [2]int32{int32(u), int32(v)}
	}
	return sched
}

// ReverseResult describes J_t(v), the multigraph of influencers of node v
// played in reverse over a recorded schedule.
type ReverseResult struct {
	// Size is |I_t(v)| = |J_t(v)|: the number of nodes that can influence
	// v's state after the schedule runs.
	Size int
	// Internal counts internal interactions: scheduled pairs whose both
	// endpoints already belonged to J at processing time. Internal
	// interactions create cycles in the multigraph of influencers; Lemma
	// 44 shows there are O(log n) of them w.h.p. before c·n·log n steps.
	Internal int
}

// ReverseInfluence computes J_t(v) over the schedule: processing
// interactions from last to first, a pair touching the current set adds
// its other endpoint (and pairs with both endpoints inside count as
// internal interactions). By construction J_t(v) equals the influencer
// set I_t(v) of the forward dynamics.
func ReverseInfluence(g graph.Graph, schedule [][2]int32, v int) ReverseResult {
	in := make([]bool, g.N())
	in[v] = true
	size, internal := 1, 0
	for i := len(schedule) - 1; i >= 0; i-- {
		a, b := schedule[i][0], schedule[i][1]
		ina, inb := in[a], in[b]
		switch {
		case ina && inb:
			internal++
		case ina:
			in[b] = true
			size++
		case inb:
			in[a] = true
			size++
		}
	}
	return ReverseResult{Size: size, Internal: internal}
}

// NonInteracted runs t scheduler steps and returns |S(t)|: the number of
// nodes that never interacted (Lemma 42's X(t)).
func NonInteracted(g graph.Graph, t int64, r *xrand.Rand) int {
	touched := make([]bool, g.N())
	remaining := g.N()
	for i := int64(0); i < t; i++ {
		u, v := g.SampleEdge(r)
		if !touched[u] {
			touched[u] = true
			remaining--
		}
		if !touched[v] {
			touched[v] = true
			remaining--
		}
	}
	return remaining
}

// DensitySample is one observation of the six-state protocol's state
// densities (counts normalized by n).
type DensitySample struct {
	Step      int64
	Densities map[core.TokenState]float64
}

// MinPresent returns the minimum density among the given states; states
// missing from the sample count as zero.
func (d DensitySample) MinPresent(states []core.TokenState) float64 {
	min := 1.0
	for _, s := range states {
		if v := d.Densities[s]; v < min {
			min = v
		}
	}
	return min
}

// DensityTracker observes a beauquier run and records state densities at
// a fixed cadence; it implements sim.Observer.
type DensityTracker struct {
	P       *beauquier.Protocol
	N       int
	Samples []DensitySample
}

// Observe implements sim.Observer.
func (d *DensityTracker) Observe(t int64) {
	counts := make(map[core.TokenState]int, 6)
	for v := 0; v < d.N; v++ {
		counts[d.P.State(v)]++
	}
	dens := make(map[core.TokenState]float64, len(counts))
	for s, c := range counts {
		dens[s] = float64(c) / float64(d.N)
	}
	d.Samples = append(d.Samples, DensitySample{Step: t, Densities: dens})
}

// ProducibleStates is the set of persistent states the six-state protocol
// can produce from the all-candidates initial configuration.
var ProducibleStates = []core.TokenState{
	core.CandidateBlack, core.CandidateNone,
	core.FollowerNone, core.FollowerBlack, core.FollowerWhite,
}

// BestFullDensity scans the samples for the fully dense configuration of
// Lemma 48: the maximum over observed steps of the minimum producible-
// state density, together with the step where it was attained.
func BestFullDensity(samples []DensitySample) (alpha float64, step int64) {
	best, bestStep := 0.0, int64(-1)
	for _, s := range samples {
		if m := s.MinPresent(ProducibleStates); m > best {
			best, bestStep = m, s.Step
		}
	}
	return best, bestStep
}
