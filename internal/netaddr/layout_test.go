package netaddr

import (
	"math/rand"
	"testing"
	"unsafe"
)

// TestPrefixLayout pins the key layout the RIB's prefix index relies on:
// 24 bytes with no padding, so Go hashes and compares a Prefix map key as
// plain memory, and a zero value that is still IPv4 0.0.0.0/0.
func TestPrefixLayout(t *testing.T) {
	var p Prefix
	if got := unsafe.Sizeof(p); got != 24 {
		t.Fatalf("Sizeof(Prefix) = %d, want 24", got)
	}
	if fields := unsafe.Sizeof(p.hi) + unsafe.Sizeof(p.lo) + unsafe.Sizeof(p.meta); fields != unsafe.Sizeof(p) {
		t.Fatalf("Prefix fields sum to %d bytes of %d: the struct is padded", fields, unsafe.Sizeof(p))
	}
	if p.Family() != FamilyV4 || p.Len() != 0 || p.Addr() != AddrFromV4(0) {
		t.Fatalf("zero Prefix = %v (family %v), want v4 0.0.0.0/0", p, p.Family())
	}
	if p != MustParsePrefix("0.0.0.0/0") {
		t.Fatal("zero Prefix != ParsePrefix(0.0.0.0/0)")
	}
	if p == MustParsePrefix("::/0") {
		t.Fatal("zero Prefix == ::/0: the family is not part of the key")
	}
}

// randPrefix draws a prefix of either family whose length and address
// bits are biased toward collisions (short lengths, few distinct bits),
// so that equal pairs come up often.
func randPrefix(rng *rand.Rand) Prefix {
	bits := func() uint64 { return uint64(rng.Intn(4)) << 62 >> uint(rng.Intn(70)) }
	if rng.Intn(2) == 0 {
		return PrefixFrom(AddrFromV4(uint32(bits()>>32)), rng.Intn(34)-1)
	}
	return PrefixFrom(AddrFrom128(bits(), bits()), rng.Intn(130)-1)
}

// TestPrefixEqualityAgreesWithCompare: over seeded prefixes of both
// families, == holds exactly when Compare reports 0, and the accessors
// round-trip through PrefixFrom.
func TestPrefixEqualityAgreesWithCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	equal := 0
	for i := 0; i < 200_000; i++ {
		p, q := randPrefix(rng), randPrefix(rng)
		if (p == q) != (p.Compare(q) == 0) {
			t.Fatalf("%v vs %v: == is %v, Compare is %d", p, q, p == q, p.Compare(q))
		}
		if p == q {
			equal++
		}
		if p.Compare(q) != -q.Compare(p) {
			t.Fatalf("Compare(%v, %v) = %d, reversed %d", p, q, p.Compare(q), q.Compare(p))
		}
		if back := PrefixFrom(p.Addr(), p.Len()); back != p || back.Family() != p.Addr().Family() {
			t.Fatalf("PrefixFrom(%v, %d) = %v, want %v", p.Addr(), p.Len(), back, p)
		}
		if p.Family() != p.Addr().Family() || p.Bits() != p.Family().Bits() {
			t.Fatalf("%v: Family %v, Addr family %v, Bits %d", p, p.Family(), p.Addr().Family(), p.Bits())
		}
	}
	if equal == 0 {
		t.Fatal("no equal pair drawn: the check never saw == hold")
	}
}

// FuzzPrefixEquality is TestPrefixEqualityAgreesWithCompare over arbitrary
// address bits, lengths and families.
func FuzzPrefixEquality(f *testing.F) {
	f.Add(uint64(10)<<56, uint64(0), uint8(8), false, uint64(10)<<56, uint64(1), uint8(8), false)
	f.Add(uint64(0x20010db8)<<32, uint64(0), uint8(32), true, uint64(0x20010db8)<<32, uint64(0), uint8(32), false)
	f.Fuzz(func(t *testing.T, phi, plo uint64, pl uint8, p6 bool, qhi, qlo uint64, ql uint8, q6 bool) {
		mk := func(hi, lo uint64, l uint8, v6 bool) Prefix {
			if v6 {
				return PrefixFrom(AddrFrom128(hi, lo), int(l))
			}
			return PrefixFrom(AddrFromV4(uint32(hi>>32)), int(l))
		}
		p, q := mk(phi, plo, pl, p6), mk(qhi, qlo, ql, q6)
		if (p == q) != (p.Compare(q) == 0) {
			t.Fatalf("%v vs %v: == is %v, Compare is %d", p, q, p == q, p.Compare(q))
		}
		if back := PrefixFrom(p.Addr(), p.Len()); back != p {
			t.Fatalf("PrefixFrom(%v, %d) = %v, want %v", p.Addr(), p.Len(), back, p)
		}
	})
}
