package model

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"acqp/internal/datagen"
	"acqp/internal/query"
	"acqp/internal/stats"
	"acqp/internal/table"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files of the selected tests from the current code")

const bnPosteriorGoldenFile = "testdata/bn_posterior_golden.txt"

// bnPosteriorLines fits the Bayesian network on the lab, garden,
// synthetic and XOR tables at seeds 1 and 2, conditions each on seeded
// evidence masks, and renders the bits of the evidence mass and of every
// attribute's posterior. The masks are the root (no evidence), seeded
// random masks built from single-value exclusions, and one mask that
// empties an attribute (impossible evidence: mass 0, uniform posteriors).
// Garden seed 1 fits to a forest, so some of its eliminations end in
// scalar factors.
func bnPosteriorLines() []string {
	var lines []string
	for seed := int64(1); seed <= 2; seed++ {
		worlds := []struct {
			name string
			tbl  *table.Table
		}{
			{"lab", datagen.Lab(datagen.LabConfig{Motes: 45, Rows: 8000, Seed: seed, QuietMotes: 6})},
			{"garden", datagen.Garden(datagen.GardenConfig{Motes: 2, Rows: 1500, Seed: seed})},
			{"synth", datagen.Synthetic(datagen.SynthConfig{N: 8, Gamma: 1, Sel: 0.5, Rows: 2000, Seed: seed})},
			{"xor", xorTable(4000, 0.05, seed)},
		}
		for _, w := range worlds {
			m := FitBN(w.tbl, 0.5, 2)
			s := m.Schema()
			n := s.NumAttrs()
			rng := rand.New(rand.NewSource(seed*100 + int64(len(w.name))))
			conds := []stats.Cond{m.Root()}
			for i := 0; i < 6; i++ {
				c := m.Root()
				for a := 0; a < n; a++ {
					if rng.Intn(2) == 0 {
						continue
					}
					// Exclude a random subset of a's values, keeping at
					// least one so the evidence stays possible.
					k := s.K(a)
					keep := rng.Intn(k)
					for v := 0; v < k; v++ {
						if v != keep && rng.Intn(3) == 0 {
							c = c.RestrictPred(query.Pred{Attr: a, R: query.Range{Lo: uint16(v), Hi: uint16(v)}}, false)
						}
					}
				}
				conds = append(conds, c)
			}
			empty := m.Root()
			for v := 0; v < s.K(n-1); v++ {
				empty = empty.RestrictPred(query.Pred{Attr: n - 1, R: query.Range{Lo: uint16(v), Hi: uint16(v)}}, false)
			}
			conds = append(conds, empty)
			for i, c := range conds {
				key := fmt.Sprintf("%s/seed%d/mask%d", w.name, seed, i)
				lines = append(lines, fmt.Sprintf("%s/z %016x", key, math.Float64bits(c.(*bnCond).evidence())))
				for a := 0; a < n; a++ {
					var b strings.Builder
					for _, p := range c.Hist(a) {
						fmt.Fprintf(&b, " %016x", math.Float64bits(p))
					}
					lines = append(lines, fmt.Sprintf("%s/hist%d%s", key, a, b.String()))
				}
			}
		}
	}
	return lines
}

// TestBNPosteriorGolden freezes the network's posteriors bit for bit.
// The file was generated before variable elimination was compiled once
// per network, so it is the proof that compiling changed no posterior.
// Regenerate with `go test ./internal/model -run TestBNPosteriorGolden
// -update` only for a change that is meant to alter posteriors.
func TestBNPosteriorGolden(t *testing.T) {
	garden := FitBN(datagen.Garden(datagen.GardenConfig{Motes: 2, Rows: 1500, Seed: 1}), 0.5, 2)
	if garden.NumEdges() >= garden.Schema().NumAttrs()-1 {
		t.Fatalf("garden seed 1 fits %d edges over %d attributes: not a forest", garden.NumEdges(), garden.Schema().NumAttrs())
	}
	got := bnPosteriorLines()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(bnPosteriorGoldenFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(bnPosteriorGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(string(bytes.TrimSuffix(raw, []byte("\n"))), "\n")
	if len(want) != len(got) {
		t.Fatalf("%s has %d lines, the grid has %d", bnPosteriorGoldenFile, len(want), len(got))
	}
	bad := 0
	for i, line := range got {
		if line != want[i] {
			if bad++; bad <= 5 {
				t.Errorf("line %d differs:\n got %s\nwant %s", i+1, line, want[i])
			}
		}
	}
	if bad > 5 {
		t.Errorf("... and %d more lines differ", bad-5)
	}
}
