package modelcheck

// Exhaustive check of the fast protocol's stability argument (the
// subtlest in the library: fast-phase demotions, the level cap, the
// backup handoff and the claim Stable ⇔ one leader output). The machine
// below re-implements the fastelect rules as a pure function in the
// smallest parameterization H=1, L=1, AlphaL=2:
//
//   - H=1 means every initiator interaction completes a streak, so the
//     streak counter carries no state;
//   - fast-phase node state is (status, level ∈ {0,1}) — level 2 switches
//     to the backup within the same interaction;
//   - backup node state is one of the six token-machine states with the
//     level pinned at the cap.
//
// Encoding: 0..3 = fast (status*2+level, status 1=leader), 4..9 = backup
// (4+tokenState).

import (
	"fmt"
	"testing"

	"popgraph/internal/core"
	"popgraph/internal/graph"
	"popgraph/internal/protocols/fastelect"
	"popgraph/internal/sim"
)

const (
	felL      = 1
	felAlphaL = 2
)

type felState struct {
	backup bool
	leader bool // fast-phase status; meaningless in backup
	level  int  // 0..2; always 2 in backup
	tok    core.TokenState
}

func felDecode(s byte) felState {
	if s >= 4 {
		return felState{backup: true, level: felAlphaL, tok: core.TokenState(s - 4)}
	}
	return felState{leader: s&2 != 0, level: int(s & 1)}
}

func felEncode(s felState) byte {
	if s.backup {
		return 4 + byte(s.tok)
	}
	code := byte(s.level)
	if s.leader {
		code |= 2
	}
	return code
}

// felStep mirrors fastelect.Protocol.Step rule for rule.
func felStep(a, b byte) (byte, byte) {
	u, v := felDecode(a), felDecode(b)
	// Rule 1: initiator (H=1: always completes) gains a level if a
	// fast-phase leader below the cap.
	if !u.backup && u.leader && u.level < felAlphaL {
		u.level++
	}
	// Rules 2+3.
	if u.level != v.level {
		maxLvl := u.level
		lo := &v
		if v.level > u.level {
			maxLvl = v.level
			lo = &u
		}
		if maxLvl >= felL {
			if !lo.backup && lo.leader {
				lo.leader = false
			}
			if !u.backup {
				u.level = maxLvl
			}
			if !v.backup {
				v.level = maxLvl
			}
		}
	}
	// Backup entry at the cap.
	enter := func(x *felState) {
		if x.level == felAlphaL && !x.backup {
			x.backup = true
			if x.leader {
				x.tok = core.CandidateBlack
			} else {
				x.tok = core.FollowerNone
			}
		}
	}
	enter(&u)
	enter(&v)
	// Backup token step.
	if u.backup && v.backup {
		u.tok, v.tok = core.TokenTransition(u.tok, v.tok)
	}
	return felEncode(u), felEncode(v)
}

func felOutput(s byte) byte {
	st := felDecode(s)
	if st.backup {
		if st.tok.Candidate() {
			return 1
		}
		return 0
	}
	if st.leader {
		return 1
	}
	return 0
}

func fastMachine() Machine {
	return Machine{
		Name:   "fastelect-h1-l1-a2",
		States: 10,
		Step:   felStep,
		Output: felOutput,
		// The protocol's claimed O(1) predicate: exactly one leader
		// output (and, redundantly, no white backup tokens).
		StablePredicate: func(counts []int) bool {
			leaders, whites := 0, 0
			for s, k := range counts {
				if felOutput(byte(s)) == 1 {
					leaders += k
				}
				st := felDecode(byte(s))
				if st.backup && st.tok.Token() == core.TokenWhite {
					whites += k
				}
			}
			return leaders == 1 && whites == 0
		},
		Correct: func(outputs []byte) bool {
			leaders := 0
			for _, o := range outputs {
				if o == 1 {
					leaders++
				}
			}
			return leaders == 1
		},
	}
}

// felInvariant is the liveness invariant of Section 5.2: at least one
// node outputs leader in every reachable configuration.
func felInvariant(cfg []byte) error {
	leaders := 0
	for _, s := range cfg {
		if felOutput(s) == 1 {
			leaders++
		}
	}
	if leaders < 1 {
		return fmt.Errorf("no leader output in configuration %v", cfg)
	}
	return nil
}

// TestFastMachineExhaustive model-checks the fast protocol over every
// schedule on small graphs: Stable() ⇔ true stability, every stable
// configuration has exactly one leader, at least one leader always
// exists, and every reachable configuration can still stabilize (via
// the backup when the tournament deadlocks at the cap).
func TestFastMachineExhaustive(t *testing.T) {
	graphs := []graph.Graph{
		graph.Path(2),
		graph.Path(3),
		graph.Cycle(3),
		graph.Star(4),
		graph.Cycle(4),
	}
	for _, g := range graphs {
		t.Run(g.Name(), func(t *testing.T) {
			initial := make([]byte, g.N())
			for i := range initial {
				initial[i] = felEncode(felState{leader: true}) // leader, level 0
			}
			res, err := Check(g, fastMachine(), initial, felInvariant)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stable == 0 {
				t.Fatal("no stable configuration reachable")
			}
			t.Logf("%s: %d reachable, %d stable", g.Name(), res.Reachable, res.Stable)
		})
	}
}

// TestFastMachineMatchesRealProtocol checks that felStep is
// deterministic and total on all state pairs. The link to the real
// protocol is a chain: TestFastTableMatchesFelStep compares felStep
// with the compiled tables cell by cell, and fastelect's
// TestTablesMatchProtocol compares the tables with the hand-written
// fastelect.Protocol step by step.
func TestFastMachineMatchesRealProtocol(t *testing.T) {
	for a := byte(0); a < 10; a++ {
		for b := byte(0); b < 10; b++ {
			if felDecode(a).tok == core.CandidateWhite || felDecode(b).tok == core.CandidateWhite {
				continue // transient token state, never stored
			}
			na, nb := felStep(a, b)
			if na >= 10 || nb >= 10 {
				t.Fatalf("felStep(%d,%d) left the state space: (%d,%d)", a, b, na, nb)
			}
			na2, nb2 := felStep(a, b)
			if na != na2 || nb != nb2 {
				t.Fatalf("felStep(%d,%d) nondeterministic", a, b)
			}
		}
	}
}

// felParams is the parameterization felStep re-implements.
var felParams = fastelect.Params{H: 1, L: felL, AlphaL: felAlphaL}

// newFelTabular returns the compiled fast protocol at felParams, the
// clocked Tabular fastelect.New builds.
func newFelTabular() *sim.Tabular { return fastelect.New(felParams).(*sim.Tabular) }

// fastTickTable is the compiled tick table at felParams. With H = 1
// every interaction completes the initiator's streak, so it is the
// only table such a run applies.
func fastTickTable() *core.TransitionTable {
	_, tick := fastelect.Tables(felParams.L, felParams.AlphaL)
	return tick
}

// felOf maps a compiled table state to felStep's encoding: below the
// backup states the table packs (level, leader) as level<<1 | leader,
// felStep as leader<<1 | level; the six backup states coincide.
func felOf(s uint8) byte {
	if s >= 2*felAlphaL {
		return s
	}
	return (s&1)<<1 | s>>1
}

// TestFastTableMatchesFelStep compares the compiled tick table at
// H = 1, L = 1, αL = 2 with the hand-written felStep cell by cell,
// through the state map felOf, together with every state's output, so
// TestCompiledTablesExhaustive's check of the table is a check of the
// machine TestFastMachineExhaustive verifies.
func TestFastTableMatchesFelStep(t *testing.T) {
	tab := fastTickTable()
	if tab.K() != 10 {
		t.Fatalf("compiled table has %d states, felStep 10", tab.K())
	}
	for a := uint8(0); a < 10; a++ {
		if want := felOutput(felOf(a)) == 1; (tab.Role(a) == core.Leader) != want {
			t.Errorf("state %d: role %v, felOutput says leader=%v", a, tab.Role(a), want)
		}
		for b := uint8(0); b < 10; b++ {
			na, nb := tab.Next(a, b)
			wa, wb := felStep(felOf(a), felOf(b))
			if felOf(na) != wa || felOf(nb) != wb {
				t.Errorf("cell (%d,%d): table -> (%d,%d), felStep -> (%d,%d) in its encoding",
					a, b, felOf(na), felOf(nb), wa, wb)
			}
		}
	}
	p := newFelTabular()
	p.Reset(graph.Path(3), nil)
	for v, s := range p.TableStates() {
		if felOf(s) != felEncode(felState{leader: true}) {
			t.Fatalf("node %d starts in state %d, felStep's machine in %d", v, felOf(s), felEncode(felState{leader: true}))
		}
	}
}
