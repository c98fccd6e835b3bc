package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// detScope is the config-driven determinism-scope analyzer: a package
// directory whose whole contents must be replayable — no math/rand
// imports (even a seeded *rand.Rand is mutable state whose draws depend
// on call order when it is package-constructed) and no wall-clock reads.
// The PR-4 faultdet and PR-5 tracedet analyzers were copy-paste instances
// of exactly this shape; they are now rows in detScopes below, keeping
// their analyzer names so existing //acqlint:ignore directives and
// -disable flags continue to work.
type detScope struct {
	name string
	dir  string // slash-separated package scope, matched by containment
	doc  string
	// randWhy and clockWhy finish the two diagnostic messages; the
	// leading clauses are fixed so the messages stay stable across the
	// tracedet/faultdet subsumption.
	randWhy  string
	clockWhy string
}

// detScopes lists every determinism scope. Adding a package here is the
// whole cost of extending the discipline to it.
var detScopes = []detScope{
	{
		name:     "faultdet",
		dir:      "internal/fault",
		doc:      "forbid math/rand and wall-clock reads in internal/fault; fault injection must replay from the seed alone",
		randWhy:  "derive randomness from the seed via the counter-based hash",
		clockWhy: "fault schedules must depend only on the seed and attempt counters",
	},
	{
		name:     "tracedet",
		dir:      "internal/trace",
		doc:      "forbid direct wall-clock reads and math/rand in internal/trace; the clock is injected via now func() time.Time",
		randWhy:  "tracing must be deterministic under a test clock",
		clockWhy: "read the clock through the injected now func() time.Time",
	},
	{
		name:     "clusterdet",
		dir:      "internal/cluster",
		doc:      "forbid math/rand and wall-clock reads in internal/cluster; heartbeats and gossip jitter must replay from Config.Seed and the injected Config.Now",
		randWhy:  "derive gossip jitter from Config.Seed via the counter-based splitmix64 hash",
		clockWhy: "read the clock through the injected Config.Now so multi-node tests are deterministic",
	},
	{
		name:     "chaosdet",
		dir:      "internal/chaos",
		doc:      "forbid math/rand and wall-clock reads in internal/chaos; injection decisions must replay bit-identically from Config.Seed and the per-link request counters",
		randWhy:  "derive injection decisions from Config.Seed via the counter-based splitmix64 hash",
		clockWhy: "inject delays through Config.Sleep; chaos schedules must depend only on the seed and request counters",
	},
}

// FaultDet, TraceDet, ClusterDet, and ChaosDet are the detscope
// instances for internal/fault, internal/trace (under their PR-4/PR-5
// names), internal/cluster, and internal/chaos.
var (
	FaultDet   = detScopes[0].analyzer()
	TraceDet   = detScopes[1].analyzer()
	ClusterDet = detScopes[2].analyzer()
	ChaosDet   = detScopes[3].analyzer()
)

func (sc detScope) analyzer() *Analyzer {
	return &Analyzer{Name: sc.name, Doc: sc.doc, Run: sc.run}
}

// scopeClockFuncs are the wall-clock reads banned inside a determinism
// scope. Pure time.Time/time.Duration arithmetic on caller-supplied
// values is fine and not listed.
var scopeClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func (sc detScope) run(p *Package) []Diagnostic {
	if !p.InDir(sc.dir) {
		return nil
	}
	var out []Diagnostic
	p.walkNonTest(func(_ int, f *ast.File) {
		// The import ban is syntactic: the import clause is the fact itself.
		for _, imp := range f.Imports {
			if path := strings.Trim(imp.Path.Value, `"`); path == "math/rand" || path == "math/rand/v2" {
				out = append(out, p.diag(sc.name, imp.Pos(),
					"import of %s in %s; %s", path, sc.dir, sc.randWhy))
			}
		}
		// Resolve every identifier that uses a banned "time" function —
		// alias- and dot-import-proof, and it flags time.Now escaping as a
		// value just like a direct read.
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := p.TypesInfo.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true // methods on time values are pure arithmetic
			}
			if scopeClockFuncs[fn.Name()] {
				out = append(out, p.diag(sc.name, id.Pos(),
					"wall-clock read time.%s in %s; %s", fn.Name(), sc.dir, sc.clockWhy))
			}
			return true
		})
	})
	return out
}
