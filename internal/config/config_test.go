package config

import (
	"strings"
	"testing"
	"time"

	"bgpbench/internal/netaddr"
	"bgpbench/internal/wire"
)

const fullConfig = `
# benchmark router configuration
router {
    as 65000
    id 10.0.0.1
    next-hop 10.0.0.2
    listen 127.0.0.1:1790
    fib hashlen
    hold-time 30
    mrai 5s
    damping
    export-batch 100
    shards 2
}

prefix-list bogons {
    permit 10.0.0.0/8 ge 8 le 32
    deny 192.0.2.0/24
    permit 192.168.0.0/16 ge 16
}

route-map deny-bogons {
    term drop { match prefix-list bogons; action deny }
    default permit
}

route-map shape-out {
    term pad {
        match neighbor-as 65001
        set prepend 65000 2
        set community 65000:100
        action permit
    }
    term limit { match max-path-len 6; set local-pref 50 }
    default deny
}

neighbor 65001 {
    import deny-bogons
    export shape-out
}

neighbor 65002 {
    dial 192.0.2.9:179
}
`

func TestParseFullConfig(t *testing.T) {
	cfg, err := Parse(fullConfig)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.AS != 65000 || cfg.ID != netaddr.MustParseAddr("10.0.0.1") {
		t.Fatalf("router identity: %+v", cfg)
	}
	if cfg.NextHop != netaddr.MustParseAddr("10.0.0.2") {
		t.Errorf("next-hop = %v", cfg.NextHop)
	}
	if cfg.ListenAddr != "127.0.0.1:1790" || cfg.FIBEngine != "hashlen" {
		t.Errorf("listen/fib: %+v", cfg)
	}
	if cfg.HoldTime != 30 || cfg.MRAI != 5*time.Second || cfg.ExportBatch != 100 {
		t.Errorf("timers: hold=%d mrai=%v batch=%d", cfg.HoldTime, cfg.MRAI, cfg.ExportBatch)
	}
	if cfg.Damping == nil {
		t.Error("damping not enabled")
	}
	if cfg.Shards != 2 {
		t.Errorf("shards = %d, want 2", cfg.Shards)
	}
	if len(cfg.Neighbors) != 2 {
		t.Fatalf("neighbors = %d", len(cfg.Neighbors))
	}
	n1 := cfg.Neighbors[0]
	if n1.AS != 65001 || n1.Import == nil || n1.Export == nil {
		t.Fatalf("neighbor 65001: %+v", n1)
	}
	n2 := cfg.Neighbors[1]
	if n2.AS != 65002 || n2.DialTarget != "192.0.2.9:179" {
		t.Fatalf("neighbor 65002: %+v", n2)
	}
}

func TestParsedPolicySemantics(t *testing.T) {
	cfg, err := Parse(fullConfig)
	if err != nil {
		t.Fatal(err)
	}
	imp := cfg.Neighbors[0].Import
	attrs := wire.NewPathAttrs(wire.OriginIGP, wire.NewASPath(65001, 7), netaddr.MustParseAddr("9.9.9.9"))

	// Bogon space is denied.
	if _, ok := imp.Apply(netaddr.MustParsePrefix("10.1.0.0/16"), attrs); ok {
		t.Error("bogon 10/8 accepted")
	}
	// The deny rule in the prefix list *excludes* 192.0.2/24 from the
	// match, so the route-map's drop term does not fire and the default
	// permit applies.
	if _, ok := imp.Apply(netaddr.MustParsePrefix("192.0.2.0/24"), attrs); !ok {
		t.Error("192.0.2/24 should fall through to default permit")
	}
	// Ordinary space falls to the default permit.
	if _, ok := imp.Apply(netaddr.MustParsePrefix("8.8.8.0/24"), attrs); !ok {
		t.Error("ordinary prefix denied")
	}

	exp := cfg.Neighbors[0].Export
	out, ok := exp.Apply(netaddr.MustParsePrefix("8.8.8.0/24"), attrs)
	if !ok {
		t.Fatal("export term should permit")
	}
	if out.ASPath.Length() != 4 {
		t.Errorf("prepend x2 missing: path %v", out.ASPath)
	}
	if !out.HasCommunity(wire.CommunityFrom(65000, 100)) {
		t.Error("community not set")
	}
	// Route from a different neighbour AS with a short path: second term.
	attrs2 := wire.NewPathAttrs(wire.OriginIGP, wire.NewASPath(70, 7), netaddr.MustParseAddr("9.9.9.9"))
	out2, ok := exp.Apply(netaddr.MustParsePrefix("8.8.8.0/24"), attrs2)
	if !ok || !out2.HasLocalPref || out2.LocalPref != 50 {
		t.Errorf("second term: %+v %v", out2, ok)
	}
	// Long path from wrong AS: implicit default deny.
	attrs3 := wire.NewPathAttrs(wire.OriginIGP, wire.NewASPath(70, 1, 2, 3, 4, 5, 6), netaddr.MustParseAddr("9.9.9.9"))
	if _, ok := exp.Apply(netaddr.MustParsePrefix("8.8.8.0/24"), attrs3); ok {
		t.Error("default deny not applied")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string
	}{
		{"no router", `neighbor 65001 { }`, "missing router"},
		{"unknown top", `bogus { }`, "unknown top-level"},
		{"bad as", `router { as hello }`, "bad number"},
		{"bad id", `router { id 1.2.3 }`, "invalid"},
		{"unknown router key", `router { color blue }`, "unknown router directive"},
		{"bad neighbor as", `router { as 1 } neighbor x { }`, "bad neighbor AS"},
		{"unknown neighbor key", `router { as 1 } neighbor 2 { frob 1 }`, "unknown neighbor directive"},
		{"undefined route-map", `router { as 1; id 1.1.1.1 } neighbor 2 { import nope }`, "unknown route-map"},
		{"undefined prefix-list", `router { as 1 } route-map m { term t { match prefix-list nope } }`, "unknown prefix-list"},
		{"bad mrai", `router { mrai banana }`, "bad mrai"},
		{"removed batch-updates", `router { batch-updates 64 }`, "unknown router directive"},
		{"removed batch-delay", `router { batch-delay 150us }`, "unknown router directive"},
		{"bad shards", `router { shards few }`, "bad number"},
		{"bad prefix rule", `prefix-list p { frobnicate 10.0.0.0/8 } router { as 1 }`, "permit/deny"},
		{"bad ge", `prefix-list p { permit 10.0.0.0/8 ge x } router { as 1 }`, "bad ge"},
		{"bad community", `router { as 1 } route-map m { term t { set community zzz } }`, "bad community"},
		{"truncated block", `router { as 1`, "unexpected end"},
		{"bad action", `router { as 1 } route-map m { term t { action maybe } }`, "permit or deny"},
		// Unknown-directive rejection at every remaining nesting level: a
		// typo anywhere in a config must be a parse error, never silently
		// ignored policy.
		{"unknown route-map key", `router { as 1 } route-map m { frob t { } }`, "unknown route-map directive"},
		{"unknown term key", `router { as 1 } route-map m { term t { frob 1 } }`, "unknown term directive"},
		{"unknown match kind", `router { as 1 } route-map m { term t { match frob x } }`, "unknown match kind"},
		{"unknown set kind", `router { as 1 } route-map m { term t { set frob 1 } }`, "unknown set kind"},
		{"unknown prefix qualifier", `prefix-list p { permit 10.0.0.0/8 frob 9 } router { as 1 }`, "unknown qualifier"},
	}
	for _, c := range cases {
		_, err := Parse(c.in)
		if err == nil {
			t.Errorf("%s: parse succeeded", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestMinimalConfig(t *testing.T) {
	cfg, err := Parse(`router { as 65000; id 1.1.1.1 }`)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.AS != 65000 || len(cfg.Neighbors) != 0 {
		t.Fatalf("cfg = %+v", cfg)
	}
}

func TestCommentsAndSeparators(t *testing.T) {
	cfg, err := Parse(`
# leading comment
router {
    as 65000 # trailing comment
    id 1.1.1.1;
};
`)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.AS != 65000 || cfg.ID != netaddr.MustParseAddr("1.1.1.1") {
		t.Fatalf("cfg = %+v", cfg)
	}
}

func TestASPathPatternDirective(t *testing.T) {
	cfg, err := Parse(`
router { as 65000; id 1.1.1.1 }
route-map m {
    term t { match as-path "^65001 .* 13$"; action deny }
    default permit
}
neighbor 65001 { import m }
`)
	if err != nil {
		t.Fatal(err)
	}
	imp := cfg.Neighbors[0].Import
	attrs := wire.NewPathAttrs(wire.OriginIGP, wire.NewASPath(65001, 5, 13), netaddr.MustParseAddr("9.9.9.9"))
	if _, ok := imp.Apply(netaddr.MustParsePrefix("8.8.8.0/24"), attrs); ok {
		t.Error("matching path should be denied")
	}
	attrs2 := wire.NewPathAttrs(wire.OriginIGP, wire.NewASPath(65001, 5, 14), netaddr.MustParseAddr("9.9.9.9"))
	if _, ok := imp.Apply(netaddr.MustParsePrefix("8.8.8.0/24"), attrs2); !ok {
		t.Error("non-matching path should fall to default permit")
	}
}

func TestBadASPathPatternDirective(t *testing.T) {
	_, err := Parse(`
router { as 65000 }
route-map m { term t { match as-path "not-a-pattern" } }
`)
	if err == nil {
		t.Fatal("bad pattern accepted")
	}
}

func TestMaxPrefixesDirective(t *testing.T) {
	cfg, err := Parse(`
router { as 65000; id 1.1.1.1 }
neighbor 65001 { max-prefixes 50000 }
`)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Neighbors[0].MaxPrefixes != 50000 {
		t.Fatalf("MaxPrefixes = %d", cfg.Neighbors[0].MaxPrefixes)
	}
}

// TestParsedV6PrefixRuleGE: an IPv6 "ge" bound without "le" extends to
// /128, as it extends to /32 for IPv4.
func TestParsedV6PrefixRuleGE(t *testing.T) {
	cfg, err := Parse(`
router { as 65000; id 1.1.1.1 }
prefix-list doc6 { permit 2001:db8::/32 ge 48 }
route-map only-doc6 {
    term t { match prefix-list doc6; action permit }
    default deny
}
neighbor 65001 { import only-doc6 }
`)
	if err != nil {
		t.Fatal(err)
	}
	imp := cfg.Neighbors[0].Import
	attrs := wire.NewPathAttrs(wire.OriginIGP, wire.NewASPath(65001), netaddr.MustParseAddr("2001:db8::1"))
	for p, want := range map[string]bool{
		"2001:db8::/32":      false, // shorter than ge
		"2001:db8:1::/48":    true,
		"2001:db8:1:2::/64":  true,
		"2001:db8::1/128":    true,
		"2001:db9:1::/48":    false, // outside the rule prefix
		"2001:db8:8000::/47": false,
	} {
		if _, ok := imp.Apply(netaddr.MustParsePrefix(p), attrs); ok != want {
			t.Errorf("%s: accepted = %v, want %v", p, ok, want)
		}
	}
}
