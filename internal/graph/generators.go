package graph

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"popgraph/internal/xrand"
)

// maxIDs caps both the node count and 2m of a Dense: node ids and CSR
// offsets are int32.
const maxIDs = math.MaxInt32

// checkSize returns an ErrTooLarge error unless n nodes and twoM = 2m
// adjacency entries fit within maxIDs. Generators call it before they
// allocate. Callers compute n and twoM in float64 from validated,
// nonnegative parameters: that cannot overflow, and float64 rounding is
// monotone and exact below 2^53, so the comparison is exact.
func checkSize(family string, n, twoM float64) error {
	if n > maxIDs || twoM > maxIDs {
		return fmt.Errorf("graph: %s needs n = %.0f and 2m = %.0f: %w", family, n, twoM, ErrTooLarge)
	}
	return nil
}

// mustFit panics with checkSize's error, for the generators that panic
// on bad parameters.
func mustFit(family string, n, twoM float64) {
	if err := checkSize(family, n, twoM); err != nil {
		panic(err)
	}
}

// Cycle returns the n-cycle C_n (n >= 3).
func Cycle(n int) *Dense {
	if n < 3 {
		panic(fmt.Sprintf("graph: cycle needs n >= 3, got %d", n))
	}
	mustFit("cycle", float64(n), 2*float64(n))
	packed := make([]int64, 0, n)
	for v := 0; v < n-1; v++ {
		packed = append(packed, pack(v, v+1))
	}
	packed = append(packed, pack(0, n-1))
	return newDense(n, packed, fmt.Sprintf("cycle-%d", n)).setDiam(n / 2)
}

// Path returns the path P_n on n >= 2 nodes.
func Path(n int) *Dense {
	if n < 2 {
		panic(fmt.Sprintf("graph: path needs n >= 2, got %d", n))
	}
	mustFit("path", float64(n), 2*float64(n-1))
	packed := make([]int64, 0, n-1)
	for v := 0; v < n-1; v++ {
		packed = append(packed, pack(v, v+1))
	}
	return fromSorted(n, packed, fmt.Sprintf("path-%d", n)).setDiam(n - 1)
}

// Star returns the star K_{1,n-1} with node 0 as the center (n >= 2).
func Star(n int) *Dense {
	if n < 2 {
		panic(fmt.Sprintf("graph: star needs n >= 2, got %d", n))
	}
	mustFit("star", float64(n), 2*float64(n-1))
	packed := make([]int64, 0, n-1)
	for v := 1; v < n; v++ {
		packed = append(packed, pack(0, v))
	}
	return fromSorted(n, packed, fmt.Sprintf("star-%d", n)).setDiam(min(2, n-1))
}

// Torus2D returns the rows×cols 2-dimensional torus (wraparound grid).
// Both dimensions must be >= 3 so the graph stays simple. It is 4-regular.
func Torus2D(rows, cols int) *Dense {
	if rows < 3 || cols < 3 {
		panic(fmt.Sprintf("graph: torus needs dims >= 3, got %dx%d", rows, cols))
	}
	mustFit("torus", float64(rows)*float64(cols), 4*float64(rows)*float64(cols))
	n := rows * cols
	packed := make([]int64, 0, 2*n)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			packed = append(packed, pack(id(r, c), id(r, (c+1)%cols)))
			packed = append(packed, pack(id(r, c), id((r+1)%rows, c)))
		}
	}
	return newDense(n, packed,
		fmt.Sprintf("torus-%dx%d", rows, cols)).setDiam(rows/2 + cols/2)
}

// TorusK returns the k-dimensional torus with the given side lengths
// (each >= 3): nodes are mixed-radix tuples, adjacent when they differ by
// ±1 (mod side) in exactly one coordinate. 2k-regular; Section 6.2 notes
// these graphs are Ω(n^{1+1/k})-renitent.
func TorusK(dims ...int) *Dense {
	if len(dims) < 1 {
		panic("graph: TorusK needs at least one dimension")
	}
	n := 1
	diam := 0
	for _, d := range dims {
		if d < 3 {
			panic(fmt.Sprintf("graph: TorusK dims must be >= 3, got %v", dims))
		}
		if n > 1<<26/d {
			panic(fmt.Sprintf("graph: TorusK %v too large", dims))
		}
		n *= d
		diam += d / 2
	}
	// Mixed-radix strides: coordinate i changes in steps of stride[i].
	stride := make([]int, len(dims))
	stride[len(dims)-1] = 1
	for i := len(dims) - 2; i >= 0; i-- {
		stride[i] = stride[i+1] * dims[i+1]
	}
	packed := make([]int64, 0, n*len(dims))
	coord := make([]int, len(dims))
	for v := 0; v < n; v++ {
		for i, d := range dims {
			next := v + stride[i]
			if coord[i] == d-1 {
				next = v - (d-1)*stride[i] // wrap around
			}
			packed = append(packed, pack(v, next))
		}
		// Increment the mixed-radix counter.
		for i := len(dims) - 1; i >= 0; i-- {
			coord[i]++
			if coord[i] < dims[i] {
				break
			}
			coord[i] = 0
		}
	}
	name := "torusk"
	for _, d := range dims {
		name += fmt.Sprintf("-%d", d)
	}
	return newDense(n, packed, name).setDiam(diam)
}

// Grid2D returns the rows×cols grid without wraparound (dims >= 2).
func Grid2D(rows, cols int) *Dense {
	if rows < 1 || cols < 1 || rows == 1 && cols == 1 {
		panic(fmt.Sprintf("graph: grid %dx%d invalid", rows, cols))
	}
	r, c := float64(rows), float64(cols)
	mustFit("grid", r*c, 2*(r*(c-1)+c*(r-1)))
	n := rows * cols
	packed := make([]int64, 0, 2*n)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				packed = append(packed, pack(id(r, c), id(r, c+1)))
			}
			if r+1 < rows {
				packed = append(packed, pack(id(r, c), id(r+1, c)))
			}
		}
	}
	return newDense(n, packed,
		fmt.Sprintf("grid-%dx%d", rows, cols)).setDiam(rows + cols - 2)
}

// Hypercube returns the dim-dimensional hypercube on 2^dim nodes (dim >= 1).
func Hypercube(dim int) *Dense {
	if dim < 1 || dim > 24 {
		panic(fmt.Sprintf("graph: hypercube dim %d out of range [1,24]", dim))
	}
	n := 1 << dim
	packed := make([]int64, 0, n*dim/2)
	for v := 0; v < n; v++ {
		for b := 0; b < dim; b++ {
			w := v ^ (1 << b)
			if v < w {
				packed = append(packed, pack(v, w))
			}
		}
	}
	return newDense(n, packed, fmt.Sprintf("hypercube-%d", dim)).setDiam(dim)
}

// Lollipop returns a clique on k nodes with a path of pathLen extra nodes
// attached to clique node 0 (k >= 2, pathLen >= 1). A classic
// high-hitting-time graph: H(G) = Θ(k²·pathLen) when k ≈ pathLen.
func Lollipop(k, pathLen int) *Dense {
	if k < 2 || pathLen < 1 {
		panic(fmt.Sprintf("graph: lollipop(%d,%d) invalid", k, pathLen))
	}
	mustFit("lollipop", float64(k)+float64(pathLen), float64(k)*float64(k-1)+2*float64(pathLen))
	n := k + pathLen
	packed := make([]int64, 0, k*(k-1)/2+pathLen)
	for u := 0; u < k; u++ {
		for w := u + 1; w < k; w++ {
			packed = append(packed, pack(u, w))
		}
	}
	packed = append(packed, pack(0, k))
	for v := k; v < n-1; v++ {
		packed = append(packed, pack(v, v+1))
	}
	return newDense(n, packed,
		fmt.Sprintf("lollipop-%d-%d", k, pathLen)).setDiam(pathLen + 1)
}

// Barbell returns two k-cliques joined by a path of pathLen intermediate
// nodes (k >= 2, pathLen >= 0). With pathLen = 0 the two cliques share one
// edge between node 0 and node k.
func Barbell(k, pathLen int) *Dense {
	if k < 2 || pathLen < 0 {
		panic(fmt.Sprintf("graph: barbell(%d,%d) invalid", k, pathLen))
	}
	mustFit("barbell", 2*float64(k)+float64(pathLen), 2*float64(k)*float64(k-1)+2*(float64(pathLen)+1))
	n := 2*k + pathLen
	packed := make([]int64, 0, k*(k-1)+pathLen+1)
	for u := 0; u < k; u++ {
		for w := u + 1; w < k; w++ {
			packed = append(packed, pack(u, w))
			packed = append(packed, pack(k+u, k+w))
		}
	}
	// Chain: clique-A node 0 — path nodes 2k..2k+pathLen-1 — clique-B node k.
	prev := 0
	for i := 0; i < pathLen; i++ {
		packed = append(packed, pack(prev, 2*k+i))
		prev = 2*k + i
	}
	packed = append(packed, pack(prev, k))
	return newDense(n, packed,
		fmt.Sprintf("barbell-%d-%d", k, pathLen)).setDiam(pathLen + 3)
}

// Gnp samples an Erdős–Rényi random graph G(n, p) conditioned on being
// connected (the conditioning used throughout Sections 4 and 7). It retries
// up to 1000 draws and returns ErrDisconnected if none is connected.
func Gnp(n int, p float64, r *xrand.Rand) (*Dense, error) {
	if n < 2 || !(p > 0 && p <= 1) {
		return nil, fmt.Errorf("graph: Gnp(%d, %v): %w", n, p, ErrInvalidEdge)
	}
	// The expected 2m must fit; gnpEdges checks the sampled count.
	if err := checkSize("gnp", float64(n), float64(n)*float64(n-1)*p); err != nil {
		return nil, err
	}
	for try := 0; try < 1000; try++ {
		packed, err := gnpEdges(n, p, r)
		if err != nil {
			return nil, err
		}
		g := fromSorted(n, packed, fmt.Sprintf("gnp-%d-p%.2f", n, p))
		if Connected(g) {
			return g, nil
		}
	}
	return nil, fmt.Errorf("graph: Gnp(%d, %v) stayed disconnected after 1000 draws: %w",
		n, p, ErrDisconnected)
}

// gnpEdges samples the edge set of G(n,p) with geometric skipping, so the
// cost is O(n + pn²) rather than O(n²) for sparse p. The capacity is
// clamped to the size limit, and a sample that would pass it is an
// ErrTooLarge error.
func gnpEdges(n int, p float64, r *xrand.Rand) ([]int64, error) {
	total := int64(n) * int64(n-1) / 2
	packed := make([]int64, 0, min(int(float64(total)*p*1.1)+8, maxIDs/2))
	if p == 1 {
		for u := 0; u < n; u++ {
			for w := u + 1; w < n; w++ {
				packed = append(packed, pack(u, w))
			}
		}
		return packed, nil
	}
	// Enumerate pair indices 0..total-1 lexicographically and skip ahead
	// by Geom(p) each time.
	idx := int64(-1)
	for {
		idx += r.Geometric(p)
		if idx >= total {
			return packed, nil
		}
		if len(packed) == maxIDs/2 {
			return nil, fmt.Errorf("graph: Gnp(%d, %v) sampled over %d edges: %w", n, p, maxIDs/2, ErrTooLarge)
		}
		u, w := unrankPair(idx, n)
		packed = append(packed, pack(u, w))
	}
}

// unrankPair maps a lexicographic rank to the pair (u, w), u < w, where
// rank 0 = (0,1), 1 = (0,2), ..., n-2 = (0,n-1), n-1 = (1,2), ...
func unrankPair(rank int64, n int) (int, int) {
	u := 0
	rowLen := int64(n - 1)
	for rank >= rowLen {
		rank -= rowLen
		rowLen--
		u++
	}
	return u, u + 1 + int(rank)
}

// WattsStrogatz samples a Watts–Strogatz small-world graph: a ring
// lattice on n nodes with k neighbors per node (k/2 on each side, k
// even), each lattice edge rewired with probability beta to a uniformly
// random non-duplicate endpoint. beta = 0 is the pure lattice, beta = 1
// approaches G(n, k/(n-1)); small beta gives the small-world regime —
// lattice-scale clustering with random-graph-scale diameter, hence
// broadcast time B(G) far below the lattice's. The edge count is always
// n·k/2 (rewiring moves edges, never adds or removes them). The sample
// is conditioned on connectivity with up to 1000 retries.
func WattsStrogatz(n, k int, beta float64, r *xrand.Rand) (*Dense, error) {
	if n < 3 || k < 2 || k%2 != 0 || k >= n || math.IsNaN(beta) || beta < 0 || beta > 1 {
		return nil, fmt.Errorf("graph: WattsStrogatz(%d, %d, %v): need n >= 3, even 2 <= k < n, beta in [0,1]: %w",
			n, k, beta, ErrInvalidEdge)
	}
	if err := checkSize("ws", float64(n), float64(n)*float64(k)); err != nil {
		return nil, err
	}
	name := fmt.Sprintf("ws-%d-k%d-b%g", n, k, beta)
	for try := 0; try < 1000; try++ {
		g := newDense(n, wsEdges(n, k, beta, r), name)
		if Connected(g) {
			return g, nil
		}
	}
	return nil, fmt.Errorf("graph: WattsStrogatz(%d, %d, %v) stayed disconnected after 1000 draws: %w",
		n, k, beta, ErrDisconnected)
}

// wsEdges builds one rewired ring lattice: slot u·half+j−1 starts as
// {u, (u+j) mod n}, j = 1..half. Rewiring never creates self-loops or
// duplicates. Membership of a candidate {u < w}, d = w−u, is arithmetic
// on the lattice (see latticeSlot): such a pair is present unless its
// slot's "rewired away" bit is set, and re-adding it clears the bit.
// Other pairs are present once a rewiring has added them to a flat set.
// A rewired slot keeps its pair's smaller node, key>>32, which on the
// wrap-around slots is not the lattice source u; a slot whose targets
// keep colliding stays on the lattice.
func wsEdges(n, k int, beta float64, r *xrand.Rand) []int64 {
	half := k / 2
	packed := make([]int64, 0, n*half)
	for u := 0; u < n; u++ {
		for j := 1; j <= half; j++ {
			packed = append(packed, pack(u, (u+j)%n))
		}
	}
	if beta == 0 {
		return packed
	}
	away := make([]uint64, (len(packed)+63)/64)
	added := pairSet{slots: make([]int64, 1<<bits.Len(uint(beta*float64(2*len(packed)))|63))}
	for s, key := range packed {
		if r.Float64() >= beta {
			continue
		}
		// Rewire the far endpoint; keep the lattice edge when the node
		// is saturated or a bounded number of draws keeps colliding.
		u := int(key >> 32)
		for attempt := 0; attempt < 32; attempt++ {
			w := r.Intn(n)
			if w == u {
				continue
			}
			cand := pack(u, w)
			if ls := latticeSlot(cand, n, half); ls >= 0 {
				if away[ls>>6]&(1<<(ls&63)) == 0 {
					continue
				}
				away[ls>>6] &^= 1 << (ls & 63)
			} else if !added.insert(cand) {
				continue
			}
			away[s>>6] |= 1 << (s & 63)
			packed[s] = cand
			break
		}
	}
	return packed
}

// latticeSlot returns the lattice slot of key = u<<32|w, u < w, or -1
// if the pair is not on the lattice: with d = w−u it is slot u·half+d−1
// if d <= half, or w·half+(n−d)−1 if n−d <= half (k < n excludes both).
func latticeSlot(key int64, n, half int) int {
	u, w := int(key>>32), int(key&0xffffffff)
	switch d := w - u; {
	case d <= half:
		return u*half + d - 1
	case n-d <= half:
		return w*half + n - d - 1
	}
	return -1
}

// pairSet is a flat open-addressing (linear probing) set of packed
// pairs, at most half full. Key 0 would be the self-loop {0, 0}, which
// never occurs, so it marks an empty slot.
type pairSet struct {
	slots []int64
	count int
}

// insert adds key and reports whether it was absent.
func (s *pairSet) insert(key int64) bool {
	if 2*(s.count+1) > len(s.slots) {
		old := s.slots
		s.slots = make([]int64, 2*len(old))
		for _, k := range old {
			if k != 0 {
				s.slots[pairSlot(s.slots, k)] = k
			}
		}
	}
	i := pairSlot(s.slots, key)
	if s.slots[i] == key {
		return false
	}
	s.slots[i] = key
	s.count++
	return true
}

// pairSlot returns the index of key in slots, or of the empty slot where
// key belongs. len(slots) is a power of two and some slot is empty.
//
//popcheck:kernel
func pairSlot(slots []int64, key int64) int {
	mask := uint64(len(slots) - 1)
	h := uint64(key) * 0x9e3779b97f4a7c15
	for i := (h ^ h>>32) & mask; ; i = (i + 1) & mask {
		if k := slots[i]; k == key || k == 0 {
			return int(i)
		}
	}
}

// BarabasiAlbert samples a Barabási–Albert preferential-attachment
// graph: a seed clique on m+1 nodes, then each new node attaches m
// edges to distinct existing nodes with probability proportional to
// their current degree, yielding a power-law degree distribution —
// heavy hubs, the opposite extreme from regular graphs for
// degree-sensitive scheduler dynamics. Connected by construction.
// Requires 1 <= m < n.
func BarabasiAlbert(n, m int, r *xrand.Rand) (*Dense, error) {
	if m < 1 || m >= n {
		return nil, fmt.Errorf("graph: BarabasiAlbert(%d, %d): need 1 <= m < n: %w",
			n, m, ErrInvalidEdge)
	}
	if err := checkSize("ba", float64(n), float64(m)*(2*float64(n)-float64(m)-1)); err != nil {
		return nil, err
	}
	mEdges := m * (m + 1) / 2 // seed clique
	packed := make([]int64, 0, mEdges+(n-m-1)*m)
	// targets lists each edge endpoint once, so uniform draws from it are
	// degree-proportional ("repeated nodes" construction).
	targets := make([]int32, 0, 2*cap(packed))
	for u := 0; u <= m; u++ {
		for w := u + 1; w <= m; w++ {
			packed = append(packed, pack(u, w))
			targets = append(targets, int32(u), int32(w))
		}
	}
	// picked is a slice, not a set: map iteration order would leak
	// nondeterminism into the edge stream and break seed reproducibility.
	picked := make([]int32, 0, m)
	for v := m + 1; v < n; v++ {
		picked = picked[:0]
		for len(picked) < m {
			if w := targets[r.Intn(len(targets))]; !slices.Contains(picked, w) {
				picked = append(picked, w)
			}
		}
		for _, w := range picked {
			packed = append(packed, pack(v, int(w)))
			targets = append(targets, int32(v), w)
		}
	}
	return newDense(n, packed, fmt.Sprintf("ba-%d-m%d", n, m)), nil
}

// RandomRegular samples a uniform-ish random d-regular graph on n nodes via
// the Steger–Wormald pairing procedure, restarting on dead ends, and
// conditions on connectivity. Requires 3 <= d < n and n·d even.
func RandomRegular(n, d int, r *xrand.Rand) (*Dense, error) {
	if d < 3 || d >= n || n%2 != 0 && d%2 != 0 {
		return nil, fmt.Errorf("graph: RandomRegular(%d, %d): need 3 <= d < n, n·d even: %w",
			n, d, ErrInvalidEdge)
	}
	if err := checkSize("regular", float64(n), float64(n)*float64(d)); err != nil {
		return nil, err
	}
	for try := 0; try < 1000; try++ {
		packed, ok := pairingAttempt(n, d, r)
		if !ok {
			continue
		}
		g := newDense(n, packed, fmt.Sprintf("regular-%d-d%d", n, d))
		if Connected(g) {
			return g, nil
		}
	}
	return nil, fmt.Errorf("graph: RandomRegular(%d, %d) failed after 1000 attempts: %w",
		n, d, ErrDisconnected)
}

// pairingAttempt runs one Steger–Wormald round: repeatedly pick two random
// free stubs whose pairing creates neither a loop nor a duplicate edge.
// Reports failure when only unusable stub pairs remain.
func pairingAttempt(n, d int, r *xrand.Rand) ([]int64, bool) {
	stubs := make([]int32, 0, n*d)
	for v := 0; v < n; v++ {
		for i := 0; i < d; i++ {
			stubs = append(stubs, int32(v))
		}
	}
	// nbr[v·d : v·d+deg[v]] lists v's partners so far.
	nbr := make([]int32, n*d)
	deg := make([]int32, n)
	packed := make([]int64, 0, n*d/2)
	// A bounded number of rejection-sampling attempts per pair; when they
	// all fail, the round is a dead end.
pairing:
	for len(stubs) > 0 {
		for attempt := 0; attempt < 64; attempt++ {
			i := r.Intn(len(stubs))
			j := r.Intn(len(stubs) - 1)
			if j >= i {
				j++
			}
			u, w := stubs[i], stubs[j]
			if u == w {
				continue
			}
			if slices.Contains(nbr[int(u)*d:int(u)*d+int(deg[u])], w) {
				continue
			}
			nbr[int(u)*d+int(deg[u])] = w
			nbr[int(w)*d+int(deg[w])] = u
			deg[u]++
			deg[w]++
			packed = append(packed, pack(int(u), int(w)))
			// Remove the two stubs (order: larger index first).
			if i < j {
				i, j = j, i
			}
			stubs[i] = stubs[len(stubs)-1]
			stubs = stubs[:len(stubs)-1]
			stubs[j] = stubs[len(stubs)-1]
			stubs = stubs[:len(stubs)-1]
			continue pairing
		}
		return nil, false
	}
	return packed, true
}

func pack(u, w int) int64 {
	if u > w {
		u, w = w, u
	}
	return int64(u)<<32 | int64(w)
}
