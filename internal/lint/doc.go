// Package lint is softlora's static-contract suite: six analyzers that
// machine-check, at the source level, the invariants the runtime test
// gates (`make determinism`, the zero-alloc regression tests, the race
// suite) would otherwise only catch after a violation ships. They run as
// `make lint` (cmd/softlora-lint -tests ./...) in CI; the repo must stay
// clean.
//
// # The analyzers
//
//   - determinism — verdict-commit and serialization code must be a pure
//     function of its inputs: no time.Now/Since/Until, no process-global
//     math/rand draws, no map-range whose order can leak into committed
//     state. Scoped to packages carrying //softlora:deterministic
//     (internal/core, internal/netserver) and to individually annotated
//     functions, and enforced transitively: a deterministic function may
//     not reach nondeterminism through any chain of calls. Escape hatch:
//     //softlora:nondeterministic-ok <why>.
//
//   - hotpath — functions annotated //softlora:hotpath (the batch
//     pipeline stages, dsp kernels, netserver's verdict path) may not
//     call fmt.* or hash/fnv, allocate with make or un-presized append
//     inside loops, or box concrete values into interfaces — directly or
//     through any callee. Escape hatch: //softlora:hotpath-ok <why>.
//
//   - allocfree — functions annotated //softlora:allocfree (the
//     steady-state per-frame kernels: Plan.TransformInPlace, the dechirp
//     magnitude fills, checkDevice) must not allocate at all, anywhere in
//     their call tree: no make/new, no composite literals on the heap, no
//     closures, no un-presized append, no string/[]byte conversions or
//     non-constant concatenation, no interface boxing, no goroutine
//     starts, no calls into stdlib packages modeled as allocating
//     (fmt, errors, sort, strings, ...), and no pointer or slice passed
//     to a body-less (assembly) function declared without //go:noescape
//     (escape analysis then moves the argument's backing store to the
//     heap). Map writes and panic arguments are exempt (cold paths by
//     definition). Escape hatch: //softlora:allocfree-ok <why>.
//
//   - complexlane — packages carrying //softlora:float32-lanes
//     (internal/dsp) may not use builtin complex64 arithmetic: gc widens
//     it through float64 (3x slower, measured in PR 8); multiplies are
//     spelled on explicit float32 components per the Oscillator32
//     contract in dsp/doc.go. Escape hatch: //softlora:complex64-ok.
//
//   - poolcheck — a bufpool.Get/GetUninit buffer must be Put back, defer-
//     Put, or handed off (stored, returned, passed on) on every path out
//     of the function; a conditional leak is flagged at the leaking
//     return. Escape hatch on the Get line: //softlora:bufpool-ok <why>.
//
//   - lockshard — struct fields annotated //softlora:guarded-by <mu> may
//     only be touched after a Lock/RLock of the same base expression's
//     mutex earlier in the function (//softlora:locked marks functions
//     whose caller holds the lock); and mutex-bearing values must never
//     be copied (parameters, results, assignments, range values). Escape
//     hatch: //softlora:lock-ok <why>.
//
// # Interprocedural propagation
//
// determinism, hotpath and allocfree are transitive: the contract holds
// for everything an annotated root can reach, not just its own body. Two
// pieces make that work.
//
// internal/lint/callgraph builds one CHA-style call graph over the whole
// load: static calls resolve exactly, interface method calls resolve to
// every loaded concrete type satisfying the interface, calls through
// function values resolve to every loaded function of matching signature.
// Call sites inside panic arguments are marked and never propagated
// through — a contract violated only while crashing is not a violation.
// Within one package, callgraph.Rule/Solve computes the transitive
// offense fixpoint.
//
// Across packages, analyzers export object facts (analysis.Store): the
// driver runs packages in dependency order, so when package q imports p,
// the analyzer's verdict on every p function ("transitively allocates",
// "reaches time.Now") is already recorded — and has survived a gob
// serialization round-trip, the same discipline x/tools' facts layer
// enforces — before q asks for it. Callees with no syntax anywhere in the
// load (the standard library) go through a small explicit model instead
// of being silently trusted.
//
// A transitive finding is reported at the root's offending call edge with
// the full chain, e.g.
//
//	hotpath reaches an allocating path: netserver.checkDevice →
//	core.CheckRecord → core.BiasRecord.Fold: core.BiasRecord.Fold
//	calls fmt.Errorf
//
// and -json output carries the chain structurally. An escape hatch on any
// call site along the chain cuts propagation at that hop.
//
// # Adding an analyzer
//
// Create internal/lint/<name> exporting a *analysis.Analyzer, give it an
// analysistest suite with known-bad fixtures under
// internal/lint/<name>/testdata/src/..., and append it to Analyzers in
// lint.go. Scope new contracts with //softlora: directives (package
// directive in doc.go for package-wide contracts, function annotation for
// opt-in checks) so other packages inherit the check by annotating, not
// by editing the analyzer. Package-wide directives scope through
// directive.Index.PackageHasNonTest so test files never inherit them;
// test code opts in per function.
//
// For a transitive contract, additionally declare a fact type (a
// gob-encodable pointer type with the AFact marker) in FactTypes, export
// a fact for every function the package-local callgraph.Solve finds
// offending, and consult ImportObjectFact in the Rule's Imported hook;
// model any relevant stdlib behavior in the External hook. The
// determinism, hotpath and allocfree analyzers are three worked examples
// in ascending order of direct-offense complexity.
//
// # Why not golang.org/x/tools/go/analysis
//
// The repo builds offline against the baked-in toolchain, so the suite
// runs on a small standard-library framework (internal/lint/analysis,
// internal/lint/load, internal/lint/callgraph, internal/lint/analysistest)
// that mirrors the x/tools API shapes — Analyzer/Pass/Diagnostic, object
// facts with ExportObjectFact/ImportObjectFact, testdata/src fixture
// layout, `// want` expectations. If the x/tools dependency ever lands,
// the analyzers port by changing import paths.
package lint
