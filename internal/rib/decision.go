package rib

import (
	"bgpbench/internal/netaddr"
	"bgpbench/internal/wire"
)

// DefaultLocalPref is assumed for routes that do not carry LOCAL_PREF
// (RFC 4271 recommends treating eBGP routes this way).
const DefaultLocalPref = 100

// PeerInfo identifies the peer a candidate route was learned from, with
// the fields the decision process tie-breaks on.
type PeerInfo struct {
	Addr netaddr.Addr // peer transport address
	ID   netaddr.Addr // peer BGP identifier
	AS   uint32       // peer autonomous system
	EBGP bool         // external session
}

// Candidate is one route for a prefix in an Adj-RIB-In, after import
// policy. Attrs points at a canonical attribute set (see wire.Intern), so
// candidates for the same path share one allocation and equality checks
// on interned attribute sets reduce to pointer comparisons.
type Candidate struct {
	Peer  PeerInfo
	Attrs *wire.PathAttrs
}

// effectiveLocalPref returns LOCAL_PREF or the default.
func effectiveLocalPref(a *wire.PathAttrs) uint32 {
	if a.HasLocalPref {
		return a.LocalPref
	}
	return DefaultLocalPref
}

// effectiveMED returns MED, treating absence as 0 (most preferred), the
// conventional missing-as-best interpretation.
func effectiveMED(a *wire.PathAttrs) uint32 {
	if a.HasMED {
		return a.MED
	}
	return 0
}

// Better reports whether candidate a is preferred over candidate b by the
// BGP decision process (RFC 4271 section 9.1.2.2, without IGP metric):
//
//  1. higher LOCAL_PREF;
//  2. shorter AS path — the dominant rule in practice, and the one the
//     paper's Scenario 5-8 workloads exercise;
//  3. lower ORIGIN (IGP < EGP < INCOMPLETE);
//  4. lower MED, compared only between routes from the same neighbour AS;
//  5. eBGP-learned over iBGP-learned;
//  6. lower peer BGP identifier;
//  7. lower peer address.
//
// Better(a,b) and Better(b,a) are never both true, and candidates from
// distinct peers always order one way. The relation is not transitive:
// MED is compared only between routes from the same neighbour AS, so
// three candidates can each beat another, and Best's answer then depends
// on the order of its input.
func Better(a, b Candidate) bool {
	if la, lb := effectiveLocalPref(a.Attrs), effectiveLocalPref(b.Attrs); la != lb {
		return la > lb
	}
	if pa, pb := a.Attrs.ASPath.Length(), b.Attrs.ASPath.Length(); pa != pb {
		return pa < pb
	}
	if oa, ob := a.Attrs.Origin, b.Attrs.Origin; oa != ob {
		return oa < ob
	}
	aFirst, aok := a.Attrs.ASPath.First()
	bFirst, bok := b.Attrs.ASPath.First()
	if aok && bok && aFirst == bFirst {
		if ma, mb := effectiveMED(a.Attrs), effectiveMED(b.Attrs); ma != mb {
			return ma < mb
		}
	}
	if a.Peer.EBGP != b.Peer.EBGP {
		return a.Peer.EBGP
	}
	if a.Peer.ID != b.Peer.ID {
		return a.Peer.ID.Less(b.Peer.ID)
	}
	return a.Peer.Addr.Less(b.Peer.Addr)
}

// Best returns the index of the most preferred candidate, or -1 for an
// empty slice. Ties (identical peers) resolve to the first occurrence.
func Best(cands []Candidate) int {
	best := -1
	for i := range cands {
		if best < 0 || Better(cands[i], cands[best]) {
			best = i
		}
	}
	return best
}
