package fib

import (
	"encoding/binary"
	"slices"
	"testing"

	"bgpbench/internal/netaddr"
)

// fuzzOp decodes one 6-byte record: kind, 4 address bytes, prefix length.
// Kind selects insert (with an entry derived from the address), delete,
// or a batch boundary that flushes the staged ops through Apply; kind bit
// 4 selects IPv6, expanding the 4 address bytes into the high 64 bits so
// long prefixes exercise the chained chunk levels.
const fuzzRec = 6

func fuzzAddr(kind byte, v uint32) netaddr.Addr {
	if kind&0x10 != 0 {
		return netaddr.AddrFrom128(uint64(v)<<32|uint64(v^0xA5A5), uint64(v)<<7)
	}
	return netaddr.AddrFromV4(v)
}

func decodeFuzzOps(data []byte) []Op {
	ops := make([]Op, 0, len(data)/fuzzRec)
	for len(data) >= fuzzRec {
		kind := data[0]
		v := binary.BigEndian.Uint32(data[1:5])
		addr := fuzzAddr(kind, v)
		p := netaddr.PrefixFrom(addr, int(data[5])%(addr.Bits()+1))
		if kind%3 == 1 {
			ops = append(ops, Op{Prefix: p, Delete: true})
		} else {
			ops = append(ops, Op{Prefix: p, Entry: Entry{NextHop: netaddr.AddrFromV4(v ^ 0x5A5A5A5A), Port: int(kind) % 16}})
		}
		data = data[fuzzRec:]
	}
	return ops
}

// addrInc returns the next address, wrapping within the family.
func addrInc(a netaddr.Addr) netaddr.Addr {
	if a.Is4() {
		return netaddr.AddrFromV4(a.V4() + 1)
	}
	hi, lo := a.Hi(), a.Lo()+1
	if lo == 0 {
		hi++
	}
	return netaddr.AddrFrom128(hi, lo)
}

// FuzzEngineOps streams a decoded Insert/Delete/Apply mix into every
// engine (and the SnapshotTable wrapper) and cross-checks the final
// state against the Linear reference: same length, same exact entries,
// and same longest-prefix answers around every route boundary.
func FuzzEngineOps(f *testing.F) {
	seed := func(recs ...[]byte) {
		var b []byte
		for _, r := range recs {
			b = append(b, r...)
		}
		f.Add(b)
	}
	rec := func(kind byte, addr uint32, length byte) []byte {
		var b [fuzzRec]byte
		b[0] = kind
		binary.BigEndian.PutUint32(b[1:5], addr)
		b[5] = length
		return b[:]
	}
	// Default route, then shadowed and unshadowed.
	seed(rec(0, 0, 0), rec(0, 0x0A000000, 8), rec(1, 0, 0))
	// Duplicate inserts (replace) at chunked and short lengths.
	seed(rec(0, 0x0A010000, 24), rec(2, 0x0A010000, 24), rec(0, 0xC0000000, 4), rec(2, 0xC0000000, 4))
	// Delete of absent prefixes, including /0.
	seed(rec(1, 0x7F000001, 32), rec(1, 0, 0), rec(1, 0x0A000000, 12))
	// Chunk-boundary cluster: /15 spanning two /16 slots plus /16 and /17
	// neighbours, then batch-flush sensitive delete/reinsert.
	seed(rec(0, 0x0A000000, 15), rec(0, 0x0A000000, 16), rec(0, 0x0A010000, 17),
		rec(3, 0, 0), rec(1, 0x0A000000, 16), rec(0, 0x0A000000, 16), rec(3, 0, 0))
	// IPv6 (kind bit 4): short, chunk-level, and deep chained-chunk
	// lengths, with a delete that uncovers a shallower chunk route.
	seed(rec(0x10, 0x20010db8, 13), rec(0x10, 0x20010db8, 32), rec(0x10, 0x20010db8, 48),
		rec(0x10, 0x20010db8, 64), rec(0x10, 0x20010db8, 128), rec(0x11, 0x20010db8, 48))
	// Mixed-family batch with same leading bytes in both families.
	seed(rec(0, 0x20010db8, 24), rec(0x10, 0x20010db8, 24), rec(0x13, 0, 0),
		rec(0x11, 0x20010db8, 24), rec(1, 0x20010db8, 24))

	// Delete-heavy churn: sibling /24s force split points, deletes splice
	// them out (and the covering /16 above them), and the inserts that
	// follow reuse the freed indices; then the same churn batched.
	churn := func(ins, del byte) []byte {
		return slices.Concat(rec(ins, 0x0A000000, 24), rec(ins, 0x0A000100, 24), rec(ins, 0x0A000200, 24),
			rec(ins, 0x0A000000, 16), rec(del, 0x0A000000, 24), rec(del, 0x0A000100, 24),
			rec(ins, 0x0A000300, 24), rec(del, 0x0A000200, 24), rec(del, 0x0A000000, 16),
			rec(ins, 0x0A008000, 17), rec(del, 0x0A000300, 24), rec(ins, 0x0A000000, 24),
			rec(ins, 0x0A000100, 24), rec(del, 0x0A008000, 17), rec(del, 0x0A000000, 24))
	}
	seed(churn(0, 1))
	seed(churn(9, 10), rec(3, 0, 0))
	seed(churn(0x10, 0x11))
	// The /15, /16, /17 slot-edge cluster in IPv6 (kind bit 4), then a /8 above it and the
	// deletes that empty both /16 slots, so lookups fall back to the /8.
	seed(rec(0x10, 0x0A000000, 15), rec(0x10, 0x0A000000, 16), rec(0x10, 0x0A010000, 17),
		rec(0x10, 0x0A000000, 8), rec(0x13, 0, 0), rec(0x11, 0x0A000000, 16), rec(0x11, 0x0A010000, 17),
		rec(0x11, 0x0A000000, 15), rec(0x10, 0x0A01FFFF, 17))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip("cap the op stream so /0 expansions stay fast")
		}
		ops := decodeFuzzOps(data)

		ref := NewLinear()
		others := map[string]Engine{
			"binary":   NewBinaryTrie(),
			"patricia": NewPatricia(),
			"hashlen":  NewHashLengths(),
			"poptrie":  NewPoptrie(),
			"snapshot": NewSnapshotTable(NewPoptrie()),
		}

		// Kind%3==2 records also mark batch boundaries: everything since
		// the previous boundary goes through Apply instead of single ops,
		// exercising the bulk restructuring paths.
		flushFrom := 0
		flush := func(upto int) {
			if upto == flushFrom {
				return
			}
			batch := ops[flushFrom:upto]
			ref.Apply(batch)
			for _, eng := range others {
				eng.Apply(batch)
			}
			flushFrom = upto
		}
		for i, op := range ops {
			if !op.Delete && op.Entry.Port >= 8 {
				continue // part of the pending batch
			}
			flush(i)
			if op.Delete {
				want := ref.Delete(op.Prefix)
				for name, eng := range others {
					if got := eng.Delete(op.Prefix); got != want {
						t.Fatalf("%s.Delete(%v) = %v, want %v", name, op.Prefix, got, want)
					}
				}
			} else {
				ref.Insert(op.Prefix, op.Entry)
				for _, eng := range others {
					eng.Insert(op.Prefix, op.Entry)
				}
			}
			flushFrom = i + 1
		}
		flush(len(ops))

		for name, eng := range others {
			if eng.Len() != ref.Len() {
				t.Fatalf("%s.Len = %d, want %d", name, eng.Len(), ref.Len())
			}
		}
		ref.Walk(func(p netaddr.Prefix, want Entry) bool {
			for name, eng := range others {
				if got, ok := eng.LookupExact(p); !ok || got != want {
					t.Fatalf("%s.LookupExact(%v) = %+v/%v, want %+v", name, p, got, ok, want)
				}
			}
			return true
		})
		// LPM agreement at the sensitive addresses: each route's base,
		// its last covered address, and one past the end.
		probe := func(a netaddr.Addr) {
			wantE, wantOK := ref.Lookup(a)
			for name, eng := range others {
				gotE, gotOK := eng.Lookup(a)
				if gotOK != wantOK || gotE != wantE {
					t.Fatalf("%s.Lookup(%v) = %+v/%v, want %+v/%v", name, a, gotE, gotOK, wantE, wantOK)
				}
			}
		}
		for _, op := range ops {
			base := op.Prefix.Addr()
			probe(base)
			end := op.Prefix.Host(^uint64(0))
			probe(end)
			probe(addrInc(end))
		}
	})
}
