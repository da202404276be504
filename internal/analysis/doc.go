// Package analysis is repolint's analyzer suite: a stdlib-only static
// pass (go/parser, go/ast, go/types — no golang.org/x/tools) that
// enforces, at the source level, the two contracts the whole stack rests
// on and that runtime tests can only catch after the fact:
//
//   - the determinism contract: aggregates are a pure function of seeds
//     (doc.go, ROADMAP), so the pure-path packages must not read wall
//     clocks, draw from ambient RNG state, or let map iteration order
//     reach results;
//   - the zero-allocation contract: the warm Select/draw paths allocate
//     nothing, gated dynamically by testing.AllocsPerRun and benchguard,
//     and statically here by flagging allocation constructs in marked
//     functions.
//
// # Checks
//
// determinism — in the pure-path packages (Config.PurePackages; by
// default core, sim, game, dist, stats, rngutil and netmodel) flags
// calls to time.Now/time.Since, calls to the global-source math/rand
// (and math/rand/v2) top-level functions, rand.NewSource outside the
// sanctioned RNG package, and `for range` statements over maps. Map
// ranges whose order provably cannot reach results (commutative folds:
// max, sum, set membership) are waived with a written reason.
//
// allocfree — functions carrying a `//repolint:allocfree` marker in
// their doc comment are scanned for AST-level allocation sources: the
// new/make/append builtins, composite literals, closures capturing
// variables, string concatenation, string↔[]byte conversions, interface
// conversions of non-pointer concrete values (explicit conversions and
// arguments passed to interface-typed parameters), and any call into
// fmt or errors. The check is deliberately conservative — append into a
// retained buffer or a composite literal on a cold error path may well
// be allocation-free or irrelevant in practice — so real hot paths
// carry waivers with the justification written next to the construct,
// and the dynamic AllocsPerRun gates stay the ground truth (the
// reconciliation test in this package binds every marker to one).
//
// A marker is either `//repolint:allocfree` or
// `//repolint:allocfree via TestName`, where TestName names the
// AllocsPerRun-calling test that covers the function indirectly (for
// helpers gated through a caller's test, e.g. the sim warm path gated
// by TestWorkspaceSteadyStateAllocs). Markers are only valid on
// function declarations; an orphaned marker is itself a diagnostic.
//
// wiredeadline — in the wire packages (Config.WirePackages; by default
// frame, cluster, serve and fleet) flags any connection or frame write
// occurring in a function that never arms a write deadline. A "connection
// write" is a Write call on a value whose type also has SetWriteDeadline
// (net.Conn and friends); a "frame write" is a WriteFrame call on a
// frame-writer type (Config.FrameWriters: by default frame.Writer).
// Arming means calling SetWriteDeadline or SetDeadline anywhere in the
// same function (function literals are separate functions).
// Transport-agnostic helpers whose callers arm the deadline carry waivers
// saying so.
//
// seedpurity — everywhere outside the sanctioned RNG package
// (Config.RNGPackage, by default rngutil), flags construction of RNG
// state that does not flow through rngutil: rand.NewSource,
// math/rand/v2 generator constructors, and rand.New whose argument is
// not a *rngutil.Source. Seeds are meant to be derived with
// rngutil.ChildSeed and turned into streams with rngutil.NewSource, so
// every stream is a pure function of the run's base seed.
//
// Test files are exempt from all checks: the loader analyzes only the
// non-test compilation of each package, which is where the contracts
// live (tests are free to use wall clocks, ad-hoc RNGs and map order).
//
// # Waivers
//
// A diagnostic is suppressed by a waiver comment:
//
//	//repolint:ignore <check> <reason>
//
// placed either at the end of the offending line or alone on the line
// directly above it. The check name must be one of the registered
// checks and the reason must be non-empty; a malformed waiver (unknown
// check, missing reason) is itself a diagnostic, so a typo cannot
// silently disable enforcement. Each waiver suppresses only the named
// check on its target line — two different checks firing on one line
// need two waivers.
//
// # Loading strategy
//
// The suite stays dependency-free by borrowing the go command's own
// build graph instead of reimplementing (or vendoring) a package
// loader: NewImporter shells out once to
//
//	go list -deps -export -json=ImportPath,Dir,GoFiles,Export,Standard,Module <patterns>
//
// which yields, for every package in the dependency closure, its file
// set and the path of its compiled export data in the build cache
// (compiling anything stale as a side effect). Packages of the main
// module are then parsed with go/parser (comments retained, sources
// kept for directive parsing) and type-checked with go/types against an
// importer.ForCompiler("gc", lookup) whose lookup serves dependency
// export data straight from that listing. Dependencies are never
// re-type-checked from source, imports resolve exactly as the compiler
// resolved them, and the only external requirement is the go toolchain
// the build already needs. The same importer also type-checks the
// fixture corpus under testdata against the real module's packages.
package analysis
