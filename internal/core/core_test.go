package core

import (
	"testing"
	"testing/quick"
)

func TestRoleString(t *testing.T) {
	if Leader.String() != "leader" || Follower.String() != "follower" {
		t.Fatal("role strings")
	}
	if Role(0).String() != "invalid" {
		t.Fatal("zero role must be invalid")
	}
}

func TestTokenStateAccessors(t *testing.T) {
	cases := []struct {
		s     TokenState
		cand  bool
		token uint8
		role  Role
	}{
		{FollowerNone, false, TokenNone, Follower},
		{FollowerBlack, false, TokenBlack, Follower},
		{FollowerWhite, false, TokenWhite, Follower},
		{CandidateNone, true, TokenNone, Leader},
		{CandidateBlack, true, TokenBlack, Leader},
		{CandidateWhite, true, TokenWhite, Leader},
	}
	for _, c := range cases {
		if c.s.Candidate() != c.cand || c.s.Token() != c.token || c.s.Role() != c.role {
			t.Errorf("state %v: got (%v,%v,%v)", c.s, c.s.Candidate(), c.s.Token(), c.s.Role())
		}
		if makeTokenState(c.cand, c.token) != c.s {
			t.Errorf("makeTokenState(%v,%v) != %v", c.cand, c.token, c.s)
		}
	}
}

// makeTokenState packs a candidate flag and token color by the layout
// TokenState documents, for checking its accessors against.
func makeTokenState(candidate bool, token uint8) TokenState {
	s := TokenState(token << 1)
	if candidate {
		s |= 1
	}
	return s
}

// persistent enumerates the six persistent (non-transient) states.
var persistent = []TokenState{
	FollowerNone, FollowerBlack, FollowerWhite,
	CandidateNone, CandidateBlack,
	// CandidateWhite is transient and never stored.
}

func TestTokenTransitionTable(t *testing.T) {
	cases := []struct {
		a, b         TokenState
		wantA, wantB TokenState
	}{
		// Two black candidates: swap, responder's black recolors white,
		// responder candidate consumes it.
		{CandidateBlack, CandidateBlack, CandidateBlack, FollowerNone},
		// Candidate meets plain follower: tokens swap (black walks).
		{CandidateBlack, FollowerNone, CandidateNone, FollowerBlack},
		{FollowerNone, CandidateBlack, FollowerBlack, CandidateNone},
		// Two black followers: responder's becomes white.
		{FollowerBlack, FollowerBlack, FollowerBlack, FollowerWhite},
		// White token reaches a candidate: candidate eliminated.
		{FollowerWhite, CandidateNone, FollowerNone, FollowerNone},
		{CandidateNone, FollowerWhite, FollowerNone, FollowerNone},
		// White walks between followers.
		{FollowerWhite, FollowerNone, FollowerNone, FollowerWhite},
		// Black and white swap carriers.
		{FollowerBlack, FollowerWhite, FollowerWhite, FollowerBlack},
		// Candidate holding black meets white-carrying follower: candidate
		// receives white and is eliminated; black survives on the other side.
		{CandidateBlack, FollowerWhite, FollowerNone, FollowerBlack},
		// Nothing happens between two empty-handed nodes.
		{FollowerNone, FollowerNone, FollowerNone, FollowerNone},
		{CandidateNone, CandidateNone, CandidateNone, CandidateNone},
	}
	for _, c := range cases {
		gotA, gotB := TokenTransition(c.a, c.b)
		if gotA != c.wantA || gotB != c.wantB {
			t.Errorf("TokenTransition(%v,%v) = (%v,%v), want (%v,%v)",
				c.a, c.b, gotA, gotB, c.wantA, c.wantB)
		}
	}
}

// TestTokenTransitionInvariants checks, over all persistent state pairs,
// the conservation laws the stability argument relies on:
//   - tokens are conserved except black+black -> black+white and
//     white absorbed by a candidate;
//   - candidates never appear;
//   - the invariant delta(candidates) = delta(black) + delta(white) holds.
func TestTokenTransitionInvariants(t *testing.T) {
	for _, a := range persistent {
		for _, b := range persistent {
			na, nb := TokenTransition(a, b)
			var before, after TokenCounts
			before.Add(a, 1)
			before.Add(b, 1)
			after.Add(na, 1)
			after.Add(nb, 1)
			dc := after.Candidates - before.Candidates
			db := after.Black - before.Black
			dw := after.White - before.White
			if dc > 0 {
				t.Errorf("(%v,%v): candidate created", a, b)
			}
			if db > 0 {
				t.Errorf("(%v,%v): black token created", a, b)
			}
			if dc != db+dw {
				t.Errorf("(%v,%v): invariant broken dc=%d db=%d dw=%d", a, b, dc, db, dw)
			}
			// Result states must be persistent (no candidate+white stored).
			for _, s := range []TokenState{na, nb} {
				if s.Candidate() && s.Token() == TokenWhite {
					t.Errorf("(%v,%v): transient state %v returned", a, b, s)
				}
			}
		}
	}
}

func TestTokenCountsStable(t *testing.T) {
	c := TokenCounts{Candidates: 1, Black: 1, White: 0}
	if !c.Stable() {
		t.Fatal("should be stable")
	}
	for _, bad := range []TokenCounts{
		{Candidates: 2, Black: 1, White: 1},
		{Candidates: 2, Black: 2, White: 0},
	} {
		if bad.Stable() {
			t.Fatalf("%+v should not be stable", bad)
		}
	}
}

func TestMakeTokenStateRoundTrip(t *testing.T) {
	f := func(cand bool, tok uint8) bool {
		tok %= 3
		s := makeTokenState(cand, tok)
		return s.Candidate() == cand && s.Token() == tok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
