// Package core holds the shared model types of the population-protocol
// simulator: output roles and the six-state token machine of Beauquier,
// Blanchard and Burman (OPODIS 2013) that the paper uses three times —
// as the constant-state baseline (Theorem 16), as the always-correct
// backup inside the identifier protocol (Theorem 21) and inside the fast
// space-efficient protocol (Theorem 24).
package core

// Role is a node's output value in the leader election problem.
type Role uint8

// Output roles. Enums start at one so the zero value is invalid.
const (
	Follower Role = iota + 1
	Leader
)

// String returns "leader" or "follower".
func (r Role) String() string {
	switch r {
	case Leader:
		return "leader"
	case Follower:
		return "follower"
	default:
		return "invalid"
	}
}

// TokenState is one of the six states of the token machine, packed into a
// byte: bit 0 is the candidate flag, bits 1-2 encode the token held
// (0 = none, 1 = black, 2 = white). A candidate holding a white token is
// transient: the transition resolves it before returning, so it is never
// stored between interactions.
type TokenState uint8

// Token colors.
const (
	TokenNone  uint8 = 0
	TokenBlack uint8 = 1
	TokenWhite uint8 = 2
)

// The six persistent states.
const (
	FollowerNone   TokenState = 0                  // follower, no token
	FollowerBlack  TokenState = TokenState(1 << 1) // follower carrying black
	FollowerWhite  TokenState = TokenState(2 << 1) // follower carrying white
	CandidateNone  TokenState = 1                  // candidate, no token
	CandidateBlack TokenState = 1 | TokenState(1<<1)
	CandidateWhite TokenState = 1 | TokenState(2<<1) // transient only
)

// Candidate reports whether the node is a leader candidate.
func (s TokenState) Candidate() bool { return s&1 == 1 }

// Token returns the held token color (TokenNone/TokenBlack/TokenWhite).
func (s TokenState) Token() uint8 { return uint8(s >> 1) }

// Role maps the token-machine state to a leader-election output:
// candidates output Leader, everyone else Follower.
func (s TokenState) Role() Role {
	if s.Candidate() {
		return Leader
	}
	return Follower
}

// TokenCounts tracks the global counts the stability predicate needs.
// The protocol maintains the invariant Candidates == Black + White and
// Black >= 1; the configuration is stable exactly when White == 0 and
// Black == 1 (then exactly one candidate remains forever).
type TokenCounts struct {
	Candidates int
	Black      int
	White      int
}

// Add accumulates the contribution of state s, weighted by w (use +1 when
// a node enters s and -1 when it leaves).
func (c *TokenCounts) Add(s TokenState, w int) {
	if s.Candidate() {
		c.Candidates += w
	}
	switch s.Token() {
	case TokenBlack:
		c.Black += w
	case TokenWhite:
		c.White += w
	}
}

// Set moves one node from token state *s to t and keeps the counts in
// step: every protocol that changes a token state outside an interaction
// (a node starting or leaving a six-state instance) goes through it.
func (c *TokenCounts) Set(s *TokenState, t TokenState) {
	c.Add(*s, -1)
	c.Add(t, 1)
	*s = t
}

// Step runs one interaction of the six-state machine between the
// initiator's state *a and the responder's state *b in place and keeps
// the counts in step. It is the token step of the always-correct backup
// inside the identifier and the fast protocol; the six-state baseline
// runs the same TokenTransition compiled into a TransitionTable.
func (c *TokenCounts) Step(a, b *TokenState) {
	na, nb := TokenTransition(*a, *b)
	if na != *a {
		c.Set(a, na)
	}
	if nb != *b {
		c.Set(b, nb)
	}
}

// Stable reports whether the token machine has stabilized: exactly one
// black token and no white tokens remain, which pins the candidate count
// to one via the invariant Candidates = Black + White.
func (c TokenCounts) Stable() bool { return c.White == 0 && c.Black == 1 }

// TokenTransition applies one interaction of the six-state machine to the
// initiator state a and responder state b and returns the successor
// states. The rule, following Beauquier et al.:
//
//  1. the two nodes swap tokens (tokens perform population-model random
//     walks);
//  2. if both tokens are black, the responder's token is recolored white;
//  3. a candidate now holding a white token becomes a follower and
//     destroys the token.
func TokenTransition(a, b TokenState) (TokenState, TokenState) {
	ta, tb := b.Token(), a.Token() // step 1: swap
	if ta == TokenBlack && tb == TokenBlack {
		tb = TokenWhite // step 2
	}
	return resolve(a, ta), resolve(b, tb)
}

// resolve hands node state s the token color token and applies step 3
// (candidate + white → follower, token destroyed).
func resolve(s TokenState, token uint8) TokenState {
	if t := s&1 | TokenState(token<<1); t != CandidateWhite {
		return t
	}
	return FollowerNone
}
