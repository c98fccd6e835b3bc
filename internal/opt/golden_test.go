package opt

import (
	"bytes"
	"context"
	"encoding/base64"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"acqp/internal/datagen"
	"acqp/internal/model"
	"acqp/internal/plan"
	"acqp/internal/query"
	"acqp/internal/stats"
	"acqp/internal/table"
	"acqp/internal/trace"
	"acqp/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/greedy_golden.txt from the current planner")

const greedyGoldenFile = "testdata/greedy_golden.txt"

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

// greedyGoldenLines plans the whole grid and renders one line per plan:
// a key, the plan's wire bytes, the cost's bit pattern and, at
// Parallelism 1, the search counters of the trace span.
func greedyGoldenLines(t *testing.T, seeds int64) []string {
	t.Helper()
	var lines []string
	for seed := int64(1); seed <= seeds; seed++ {
		for _, w := range goldenWorlds(seed) {
			s := w.tbl.Schema()
			for _, distName := range []string{model.NameEmpirical, model.NameChowLiu} {
				var d stats.Dist = stats.NewEmpirical(w.tbl)
				if distName != model.NameEmpirical {
					var err error
					if d, err = model.Fit(distName, w.tbl, model.Opts{}); err != nil {
						t.Fatalf("%s seed %d: fit %s: %v", w.name, seed, distName, err)
					}
				}
				for _, points := range []int{4, 8} {
					for _, maxSplits := range []int{1, 5, 10} {
						for _, base := range []SeqAlgorithm{SeqOpt, SeqGreedy} {
							for _, par := range []int{1, 4} {
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

// TestGreedyGolden freezes opt.Greedy's output: every plan of the grid
// must encode to the committed bytes, cost to the committed bits and, at
// Parallelism 1, report the committed Candidates/Pruned/LeafExpansions.
// The file was generated before the split sweep replaced per-candidate
// materialization, so it is the proof that the rewrite changed no plan.
// Regenerate with `go test ./internal/opt -run TestGreedyGolden -update`
// only for a change that is meant to alter plans.
func TestGreedyGolden(t *testing.T) {
	seeds := int64(6)
	if trace.RaceEnabled || testing.Short() {
		seeds = 1 // the file is seed-major, so a prefix of it is checked
	}
	if *updateGolden {
		seeds = 6
	}
	got := greedyGoldenLines(t, seeds)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(greedyGoldenFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(greedyGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
	if len(want) < len(got) {
		t.Fatalf("%s has %d lines, the grid has %d", greedyGoldenFile, len(want), len(got))
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
