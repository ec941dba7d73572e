package analysis

// Config scopes the analyzers to the repo's invariants. Everything is
// data so the fixture tests can point the same analyzers at small
// synthetic packages; DefaultConfig returns the scopes enforced by the
// `make lint` gate.
type Config struct {
	Detclock DetclockConfig
	Interned InternedConfig
	Lock     LockConfig
	ErrDrop  ErrDropConfig
	Snapshot SnapshotConfig
	AFI      AFIConfig
	Purity   PurityConfig
}

// PurityConfig scopes the wait-free read-path purity check
// (readpurity).
type PurityConfig struct {
	// Entrypoints are the fully-qualified functions
	// (types.Func.FullName form) forming the wait-free read surface.
	// They, and every module function they transitively call, must not
	// acquire locks, touch sync.Pool, use channels, spawn goroutines,
	// or write non-local state.
	Entrypoints []string
	// AllowCallees are fully-qualified functions audited as safe on the
	// read path even though the walker cannot prove it.
	AllowCallees []string
}

// DetclockConfig scopes the deterministic-clock check.
type DetclockConfig struct {
	// Packages maps an import path onto the file basenames to check; a
	// nil or empty list means every file in the package.
	Packages map[string][]string
	// AllowFuncs are fully-qualified functions (types.Func.FullName form)
	// allowed to touch the wall clock: the pluggable-clock
	// implementations themselves.
	AllowFuncs []string
}

// InternedConfig names the interned attribute types (qualified
// "pkgpath.TypeName") whose values must be compared by pointer and never
// mutated after interning.
type InternedConfig struct {
	Types []string
}

// LockConfig describes the router mutex and the calls considered
// blocking while it is held.
type LockConfig struct {
	// Mutexes are "pkgpath.TypeName.fieldName" descriptors of the
	// guarded mutex fields.
	Mutexes []string
	// Blocking are fully-qualified functions (types.Func.FullName form)
	// that may block on I/O or another goroutine's progress.
	Blocking []string
	// Allow are fully-qualified functions exempt from the walk (audited
	// by hand; the justification lives next to the config entry).
	Allow []string
}

// ErrDropConfig lists the import paths where discarding an error result
// is a finding.
type ErrDropConfig struct {
	Packages []string
	// AllowCallees are fully-qualified functions (types.Func.FullName
	// form) whose error result is documented to always be nil; dropping
	// it is not a finding.
	AllowCallees []string
}

// SnapshotConfig names the FIB snapshot types that are immutable once
// reachable from a published snapshot, and the builder functions allowed
// to write them (they only ever touch fresh, unpublished values).
type SnapshotConfig struct {
	// Types are qualified "pkgpath.TypeName" snapshot types.
	Types []string
	// Builders are fully-qualified functions (types.Func.FullName form)
	// exempt from the write check; each entry carries its justification.
	Builders []string
}

// AFIConfig scopes the address-family hygiene check (afifamily).
type AFIConfig struct {
	// Families maps the qualified "pkgpath.TypeName" of an
	// address-family enum onto the qualified names of its constants. A
	// switch over the type must cover every constant or carry a default
	// clause.
	Families map[string][]string
	// Truncating lists fully-qualified functions (types.Func.FullName
	// form) that collapse an address to its IPv4 bits. Calling one
	// outside the package that defines it is a finding unless the call
	// site carries an audited //bgplint:allow(afifamily) justification.
	Truncating []string
}

// fixturePrefix scopes the analyzers onto their own testdata packages:
// `go list ./...` never descends into testdata, so these entries are
// inert for the repo gate while letting the regression tests run the
// exact production configuration against the fixtures.
const fixturePrefix = "bgpbench/internal/analysis/testdata/src/"

// DefaultConfig returns the scopes the repo gate enforces.
func DefaultConfig() *Config {
	return &Config{
		Detclock: DetclockConfig{
			Packages: map[string][]string{
				// The fault-injection substrate: schedules are pure
				// functions of (profile, seed, name, attempt); wall time
				// may only enter through the Clock interface.
				"bgpbench/internal/netem": nil,
				// The modeled platform: replays are exactly reproducible.
				"bgpbench/internal/platform": nil,
				// Flap damping: penalty decay is driven by the pluggable
				// clock so tests can replay decision sequences.
				"bgpbench/internal/damping": nil,
				// Only the conformance path of bench (with the phase
				// settle it shares) is deterministic; live.go measures
				// wall-clock throughput by design.
				"bgpbench/internal/bench": {"conformance.go", "testbed.go"},

				fixturePrefix + "detclock": nil,
			},
			AllowFuncs: []string{
				// The real-clock implementations behind the Clock
				// interface are the one sanctioned wall-time boundary.
				"bgpbench/internal/netem.NewRealClock",
				"(*bgpbench/internal/netem.realClock).Now",
				"(*bgpbench/internal/netem.realClock).Sleep",
				// damping.New defaults a nil clock to time.Now.
				"bgpbench/internal/damping.New",

				fixturePrefix + "detclock.NewRealClock",
			},
		},
		Interned: InternedConfig{
			Types: []string{
				"bgpbench/internal/wire.PathAttrs",

				fixturePrefix + "internedattr.PathAttrs",
			},
		},
		Lock: LockConfig{
			Mutexes: []string{
				"bgpbench/internal/core.Router.mu",

				fixturePrefix + "lockdiscipline.Router.mu",
			},
			Blocking: []string{
				"(net.Conn).Read",
				"(net.Conn).Write",
				"(*net.TCPConn).Read",
				"(*net.TCPConn).Write",
				"(*sync.WaitGroup).Wait",
				"(*sync.Cond).Wait",
				"time.Sleep",
				// Stop waits up to two seconds for the event loop.
				"(*bgpbench/internal/session.Session).Stop",
				// The wire writer pushes onto the TCP socket.
				"(*bgpbench/internal/wire.Writer).WriteMessage",
				"(*bgpbench/internal/wire.Writer).WriteMessageBuffered",
				"(*bgpbench/internal/wire.Writer).Flush",

				"(net.Conn).SetDeadline",
			},
			Allow: []string{
				fixturePrefix + "lockdiscipline.auditedHandoff",
			},
		},
		ErrDrop: ErrDropConfig{
			Packages: []string{
				"bgpbench/internal/wire",
				"bgpbench/internal/session",
				"bgpbench/internal/fsm",

				fixturePrefix + "errdrop",
			},
			AllowCallees: []string{
				// In-memory writers documented to always return a nil
				// error; their error results exist only to satisfy
				// io.Writer-shaped interfaces.
				"(*strings.Builder).Write",
				"(*strings.Builder).WriteByte",
				"(*strings.Builder).WriteRune",
				"(*strings.Builder).WriteString",
				"(*bytes.Buffer).Write",
				"(*bytes.Buffer).WriteByte",
				"(*bytes.Buffer).WriteRune",
				"(*bytes.Buffer).WriteString",
				"(hash.Hash).Write",
			},
		},
		Snapshot: SnapshotConfig{
			Types: []string{
				// The poptrie's share-on-snapshot structures: directory
				// pages, compiled chunks, the expanded short-route view,
				// and the published snapshot head itself.
				"bgpbench/internal/fib.rootPage",
				"bgpbench/internal/fib.popChunk",
				"bgpbench/internal/fib.shortView",
				"bgpbench/internal/fib.poptrieSnapshot",

				fixturePrefix + "snapshotimmut.Snapshot",
				fixturePrefix + "snapshotimmut.snapPage",
			},
			Builders: []string{
				// Snapshot fills the per-family slots of the snapshot it
				// just allocated, before publication.
				"(*bgpbench/internal/fib.Poptrie).Snapshot",
				// Chunk compilation only ever fills the freshly allocated
				// chunk it is building; published chunks are never passed
				// back in.
				"bgpbench/internal/fib.buildChunk",
				"(*bgpbench/internal/fib.popChunk).buildInto",
				// setChunk installs into a page it just allocated or
				// copied (the pageShared seal is cleared on copy).
				"(*bgpbench/internal/fib.rootPage).set",
				// The shortView write funnel: every caller goes through
				// ownShort first, which clones the view if a snapshot
				// still references it.
				"(*bgpbench/internal/fib.shortView).stamp",
				"(*bgpbench/internal/fib.shortView).rebuild",
				"(*bgpbench/internal/fib.shortView).setRoute",
				"(*bgpbench/internal/fib.shortView).appendRoute",
				"(*bgpbench/internal/fib.shortView).truncRoutes",
				"(*bgpbench/internal/fib.shortView).setExpanded",
				"(*bgpbench/internal/fib.shortView).appendRes",

				fixturePrefix + "snapshotimmut.buildPage",
			},
		},
		AFI: AFIConfig{
			Families: map[string][]string{
				"bgpbench/internal/netaddr.Family": {
					"bgpbench/internal/netaddr.FamilyV4",
					"bgpbench/internal/netaddr.FamilyV6",
				},
				fixturePrefix + "afifamily.Family": {
					fixturePrefix + "afifamily.FamilyV4",
					fixturePrefix + "afifamily.FamilyV6",
				},
			},
			Truncating: []string{
				"(bgpbench/internal/netaddr.Addr).V4",
				"(" + fixturePrefix + "afifamily.Addr).V4",
			},
		},
		Purity: PurityConfig{
			Entrypoints: []string{
				// The epoch-published FIB read surface: wait-free by
				// contract (DESIGN §4), safe to call from every worker at
				// full lookup rate.
				"(*bgpbench/internal/fib.SnapshotTable).Lookup",
				"(*bgpbench/internal/fib.SnapshotTable).LookupExact",
				"(*bgpbench/internal/fib.SnapshotTable).Len",
				"(*bgpbench/internal/fib.SnapshotTable).Walk",
				"(*bgpbench/internal/fib.SnapshotTable).Updates",
				"(*bgpbench/internal/fib.SnapshotTable).Lookups",
				"(*bgpbench/internal/fib.SnapshotTable).BatchStats",
				"(*bgpbench/internal/fib.poptrieSnapshot).Lookup",
				"(*bgpbench/internal/fib.poptrieSnapshot).LookupExact",
				"(*bgpbench/internal/fib.poptrieSnapshot).Len",
				"(*bgpbench/internal/fib.poptrieSnapshot).Walk",

				fixturePrefix + "readpurity.Lookup",
				fixturePrefix + "readpurity.CleanLookup",
			},
			AllowCallees: nil,
		},
	}
}
