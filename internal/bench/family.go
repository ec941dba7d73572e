package bench

import (
	"fmt"

	"bgpbench/internal/core"
	"bgpbench/internal/netaddr"
)

// Address-family selectors for the live, fanout, and conformance
// workloads (the -afi flag of cmd/bgpbench). The empty string means
// AFIv4: the historical IPv4-only workload, whose generated tables,
// byte streams, and digests are unchanged.
const (
	AFIv4   = "v4"
	AFIv6   = "v6"
	AFIDual = "dual"
)

// Table-composition selectors (the -table flag of cmd/bgpbench). The
// empty string means TableUniform: the historical one-shared-AS-path
// table, whose byte streams and digests are unchanged.
const (
	TableUniform = "uniform"
	TableDFZ     = "dfz"
)

// familyTable builds the workload table for the requested address-family
// selector. "" and AFIv4 reproduce the historical IPv4 table
// byte-for-byte; AFIv6 draws the same number of prefixes from the IPv6
// global-table length mix; AFIDual splits the table into an IPv4 half
// and an IPv6 half (generated from an offset seed so the halves are
// independent), announced over the same sessions.
func familyTable(afi string, n int, seed int64) ([]core.Route, error) {
	return familyTableMode(afi, TableUniform, n, seed)
}

// familyTableMode is familyTable with a table-composition mode: "" and
// TableUniform give every route one shared AS path (the paper's
// large-packet regime, one attribute block for the whole table);
// TableDFZ draws paths from a Zipf-weighted pool of ~n/50 distinct
// paths (floor 16), approximating the DFZ's attribute-sharing skew so
// big-table runs exercise realistic interning hit rates and run lengths
// instead of the uniform best case.
func familyTableMode(afi, mode string, n int, seed int64) ([]core.Route, error) {
	attrGroups := 0
	switch mode {
	case "", TableUniform:
	case TableDFZ:
		attrGroups = n / 50
		if attrGroups < 16 {
			attrGroups = 16
		}
	default:
		return nil, fmt.Errorf("bench: unknown table mode %q (want uniform or dfz)", mode)
	}
	gen := func(n int, seed int64, fam netaddr.Family) []core.Route {
		t := core.GenerateTable(core.TableGenConfig{
			N: n, Seed: seed, FirstAS: liveSpeaker1AS, Family: fam,
			AttrGroups: attrGroups,
		})
		if attrGroups == 0 {
			t = core.UniformPath(t, basePathFor())
		}
		return t
	}
	switch afi {
	case "", AFIv4:
		return gen(n, seed, netaddr.FamilyV4), nil
	case AFIv6:
		return gen(n, seed, netaddr.FamilyV6), nil
	case AFIDual:
		v6n := n / 2
		return append(gen(n-v6n, seed, netaddr.FamilyV4), gen(v6n, seed+1, netaddr.FamilyV6)...), nil
	}
	return nil, fmt.Errorf("bench: unknown AFI selector %q (want v4, v6, or dual)", afi)
}
