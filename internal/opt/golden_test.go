package opt

import (
	"bytes"
	"context"
	"encoding/base64"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"acqp/internal/datagen"
	"acqp/internal/model"
	"acqp/internal/plan"
	"acqp/internal/query"
	"acqp/internal/schema"
	"acqp/internal/stats"
	"acqp/internal/table"
	"acqp/internal/trace"
	"acqp/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files of the selected tests from the current planner")

const (
	greedyGoldenFile   = "testdata/greedy_golden.txt"
	greedyBNGoldenFile = "testdata/greedy_bn_golden.txt"
)

// goldenWorld is one (dataset, seed) cell of the golden grid: a training
// table and the query planned over it.
type goldenWorld struct {
	name string
	tbl  *table.Table
	q    query.Query
}

// goldenWorlds builds the three dataset families of Section 6 at sizes
// that keep the whole grid to a few seconds: the lab table at the
// service's 8,000 rows with a 3-predicate workload query, a two-mote
// garden (7 attributes, 4 possibly-negated predicates) and the Babu et
// al. synthetic table (8 binary attributes, 4 predicates).
func goldenWorlds(seed int64) []goldenWorld {
	lab := datagen.Lab(datagen.LabConfig{Motes: 45, Rows: 8000, Seed: seed, QuietMotes: 6})
	garden := datagen.Garden(datagen.GardenConfig{Motes: 2, Rows: 1500, Seed: seed})
	gcfg := workload.DefaultGardenQueryConfig(2)
	gcfg.Count, gcfg.Seed = 1, seed
	scfg := datagen.SynthConfig{N: 8, Gamma: 1, Sel: 0.5, Rows: 2000, Seed: seed}
	synth := datagen.Synthetic(scfg)
	return []goldenWorld{
		{"lab", lab, workload.LabQueries(lab, workload.LabQueryConfig{Count: 1, Seed: seed, SelLo: 0.35, SelHi: 0.65})[0]},
		{"garden", garden, workload.GardenQueries(garden, gcfg)[0]},
		{"synth", synth, datagen.SynthQuery(synth.Schema())},
	}
}

// goldenGrid is one family of frozen Greedy plans: for every seed and
// world, every model and every planner setting.
type goldenGrid struct {
	seeds  int64
	worlds func(seed int64) []goldenWorld
	dists  []string
	points []int
	splits []int
	bases  []SeqAlgorithm
	pars   []int
}

// greedyGrid is the grid of greedy_golden.txt.
var greedyGrid = goldenGrid{
	seeds:  6,
	worlds: goldenWorlds,
	dists:  []string{model.NameEmpirical, model.NameChowLiu},
	points: []int{4, 8},
	splits: []int{1, 5, 10},
	bases:  []SeqAlgorithm{SeqOpt, SeqGreedy},
	pars:   []int{1, 4},
}

// lines plans the first seeds of the grid and renders one line per plan:
// a key, the plan's wire bytes, the cost's bit pattern and, at
// Parallelism 1, the search counters of the trace span.
func (gg goldenGrid) lines(t *testing.T, seeds int64) []string {
	t.Helper()
	var lines []string
	for seed := int64(1); seed <= seeds; seed++ {
		for _, w := range gg.worlds(seed) {
			s := w.tbl.Schema()
			for _, distName := range gg.dists {
				var d stats.Dist = stats.NewEmpirical(w.tbl)
				if distName != model.NameEmpirical {
					var err error
					if d, err = model.Fit(distName, w.tbl, model.Opts{}); err != nil {
						t.Fatalf("%s seed %d: fit %s: %v", w.name, seed, distName, err)
					}
				}
				for _, points := range gg.points {
					for _, maxSplits := range gg.splits {
						for _, base := range gg.bases {
							for _, par := range gg.pars {
								g := Greedy{SPSF: UniformSPSFSame(s, points), MaxSplits: maxSplits, Base: base, Parallelism: par}
								sp := trace.NewSpan(time.Now)
								node, cost := g.Plan(trace.NewContext(context.Background(), sp), d, w.q)
								counters := "-"
								if par == 1 {
									counters = fmt.Sprintf("%d/%d/%d", sp.Counter(trace.Candidates), sp.Counter(trace.Pruned), sp.Counter(trace.LeafExpansions))
								}
								lines = append(lines, fmt.Sprintf("%s/seed%d/%s/points%d/splits%d/%s/par%d %s %016x %s",
									w.name, seed, distName, points, maxSplits, base, par,
									base64.StdEncoding.EncodeToString(plan.Encode(node)), math.Float64bits(cost), counters))
							}
						}
					}
				}
			}
		}
	}
	return lines
}

// check plans the grid and compares it line by line with file, or
// rewrites file under -update. Under -race or -short only the first
// seed is planned; the file is seed-major, so that is a prefix of it.
func (gg goldenGrid) check(t *testing.T, file string) {
	t.Helper()
	seeds := gg.seeds
	if (trace.RaceEnabled || testing.Short()) && !*updateGolden {
		seeds = 1
	}
	got := gg.lines(t, seeds)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
	if len(want) < len(got) {
		t.Fatalf("%s has %d lines, the grid has %d", file, len(want), len(got))
	}
	bad := 0
	for i, line := range got {
		if line != string(want[i]) {
			if bad++; bad <= 5 {
				t.Errorf("line %d differs:\n got %s\nwant %s", i+1, line, want[i])
			}
		}
	}
	if bad > 5 {
		t.Errorf("... and %d more lines differ", bad-5)
	}
}

// TestGreedyGolden freezes opt.Greedy's output: every plan of the grid
// must encode to the committed bytes, cost to the committed bits and, at
// Parallelism 1, report the committed Candidates/Pruned/LeafExpansions.
// The file was generated before the split sweep replaced per-candidate
// materialization, so it is the proof that the rewrite changed no plan.
// Regenerate with `go test ./internal/opt -run TestGreedyGolden -update`
// only for a change that is meant to alter plans.
func TestGreedyGolden(t *testing.T) {
	greedyGrid.check(t, greedyGoldenFile)
}

// bnGrid is the grid of greedy_bn_golden.txt: Greedy planning on the
// Bayesian network, whose every probability is a variable-elimination
// run. The three dataset families fit to networks with at most one
// parent per node, so an XOR world adds the two-parent family.
var bnGrid = goldenGrid{
	seeds: 3,
	worlds: func(seed int64) []goldenWorld {
		return append(goldenWorlds(seed), xorWorld(seed))
	},
	dists:  []string{model.NameBN},
	points: []int{4, 8},
	splits: []int{1, 5},
	bases:  []SeqAlgorithm{SeqOpt},
	pars:   []int{1, 2},
}

// xorWorld samples x0, x1 ~ uniform, x2 = x0 XOR x1 flipped with
// probability 0.05 and an independent x3, and asks for x2 = 1 and x3 = 1.
// Only a node with two parents can represent x2.
func xorWorld(seed int64) goldenWorld {
	s := schema.New(
		schema.Attribute{Name: "x0", K: 2, Cost: 1},
		schema.Attribute{Name: "x1", K: 2, Cost: 1},
		schema.Attribute{Name: "x2", K: 2, Cost: 100},
		schema.Attribute{Name: "x3", K: 2, Cost: 100},
	)
	rng := rand.New(rand.NewSource(seed))
	tbl := table.New(s, 4000)
	for i := 0; i < 4000; i++ {
		x0 := schema.Value(rng.Intn(2))
		x1 := schema.Value(rng.Intn(2))
		x2 := x0 ^ x1
		if rng.Float64() < 0.05 {
			x2 ^= 1
		}
		tbl.MustAppendRow([]schema.Value{x0, x1, x2, schema.Value(rng.Intn(2))})
	}
	one := query.Range{Lo: 1, Hi: 1}
	return goldenWorld{"xor", tbl, query.MustNewQuery(s, query.Pred{Attr: 2, R: one}, query.Pred{Attr: 3, R: one})}
}

// TestGreedyBNGolden freezes opt.Greedy's output on the Bayesian-network
// backend, the same way TestGreedyGolden does on counts and trees. The
// file was generated before variable elimination was compiled once per
// network, so it is the proof that compiling changed no plan.
// Regenerate with `go test ./internal/opt -run TestGreedyBNGolden -update`
// only for a change that is meant to alter plans.
func TestGreedyBNGolden(t *testing.T) {
	for seed := int64(1); seed <= bnGrid.seeds; seed++ {
		d, err := model.Fit(model.NameBN, xorWorld(seed).tbl, model.Opts{})
		if err != nil {
			t.Fatal(err)
		}
		bn := d.(*model.BN)
		twoParents := false
		for v := 0; v < bn.Schema().NumAttrs(); v++ {
			twoParents = twoParents || len(bn.Parents(v)) == 2
		}
		if !twoParents {
			t.Fatalf("xor seed %d: the network has no two-parent family", seed)
		}
	}
	bnGrid.check(t, greedyBNGoldenFile)
}
