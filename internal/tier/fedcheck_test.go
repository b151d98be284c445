package tier

import (
	"fmt"
	"time"
)

// The federation's safety properties, written once over a plain view of
// one parent and its children at one instant. The view names no core, no
// connection and no clock, so any rig that can say what each child
// enforces and what the parent's newest division counted it at — the
// bounded explorer here, a chaos rig over faultnet, a benchmark's
// verifier — can be checked by the same two functions.

// fedView is one parent edge at one instant.
type fedView struct {
	BandPL   float64       // the P_L the parent divides
	Grace    time.Duration // each child's dead-man window
	Children []fedChild
}

// fedChild is one child at that instant.
type fedChild struct {
	Granted    bool          // has adopted a grant since it started
	EnforcedPL float64       // the P_L its control loop enforces now
	FailsafePL float64       // its failsafe band's P_L
	Silent     time.Duration // since its newest grant (or its start)
	Lost       bool          // the parent's newest division counted it lost
	AccountPL  float64       // what that division counts it at: its grant if live, the reserve if lost
	AdoptedSeq uint64        // newest grant it adopted
	SentSeq    uint64        // newest grant the parent sent it
}

// The known ways the plane breaks P1 (ROADMAP item 3), by signature.
const (
	// p1Unaccounted (3(i)): a child its parent no longer reaches — counted
	// lost, or floored on its own failsafe — enforces more than the
	// parent's division counts it at: a kept grant against a Floor
	// reserve, or a failsafe above its grant.
	p1Unaccounted = "3(i)"
	// p1Unordered (3(ii)): every child hears its parent, and one enforces
	// a superseded grant while a sibling already adopted the division that
	// shrank it.
	p1Unordered = "3(ii)"
)

// checkP1 is "Σ adopted + Σ reserved-for-lost ≤ band": every live child's
// enforced P_L plus, for each lost child, the larger of what it enforces
// and what the division reserved for it, against the parent's P_L. It
// holds vacuously until every child has adopted its first grant. A
// violation comes back with its signature, or "" when it matches neither
// known one.
func checkP1(v fedView) (signature string, err error) {
	sum := 0.0
	for _, c := range v.Children {
		if !c.Granted {
			return "", nil
		}
		if c.Lost {
			sum += max(c.EnforcedPL, c.AccountPL)
		} else {
			sum += c.EnforcedPL
		}
	}
	if sum <= v.BandPL+1e-9 {
		return "", nil
	}
	err = fmt.Errorf("P1: %.4g W in force over a %.4g W band: %+v", sum, v.BandPL, v.Children)
	for _, c := range v.Children {
		if (c.Lost || c.Silent > v.Grace) && c.EnforcedPL > c.AccountPL+1e-9 {
			return p1Unaccounted, err
		}
	}
	for _, c := range v.Children {
		if c.AdoptedSeq < c.SentSeq {
			return p1Unordered, err
		}
	}
	return "", err
}

// checkP2: a child whose parent has been silent past Grace enforces its
// failsafe band.
func checkP2(v fedView) error {
	for i, c := range v.Children {
		if c.Silent > v.Grace && c.EnforcedPL != c.FailsafePL {
			return fmt.Errorf("P2: child %d silent %v past a %v grace enforces %.4g W, not its failsafe %.4g W",
				i, c.Silent, v.Grace, c.EnforcedPL, c.FailsafePL)
		}
	}
	return nil
}
