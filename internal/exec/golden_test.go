package exec

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"acqp/internal/fault"
	"acqp/internal/stats"
	"acqp/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/exec_golden.txt from the current executor")

const execGoldenFile = "testdata/exec_golden.txt"

// execGoldenLines runs nine Options variants — plain, profiled, exists,
// limit, ordered exists, and profiled fault injection at rate 0 and at
// rate 0.2 under each fallback policy — over the first six seeds of the
// identity sweep (Lab, Garden, synthetic greedy plans), rendering one
// line per run with every counter and the bits of every cost.
func execGoldenLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	for ci, tc := range identityCases(t)[:18] {
		profile := func() *trace.ExecProfile { return trace.NewExecProfile(len(tc.p.Preorder()), tc.s.NumAttrs()) }
		faulty := func(rate float64, policy FallbackPolicy) Options {
			inj := fault.NewInjector(tc.s.NumAttrs(), int64(ci)+1)
			if err := inj.SetAll(fault.AttrFault{PTransient: 0.6 * rate, PTimeout: 0.2 * rate, PStale: 0.2 * rate}); err != nil {
				t.Fatal(err)
			}
			ret := fault.DefaultRetrier()
			ret.MaxRetries = 1
			return Options{Profile: profile(), Faults: &FaultConfig{
				Injector: inj, Retrier: ret, Policy: policy, Model: stats.NewEmpirical(tc.train)}}
		}
		rev := make([]int, tc.tbl.NumRows())
		for i := range rev {
			rev[i] = len(rev) - 1 - i
		}
		for _, v := range []struct {
			name string
			o    Options
		}{
			{"plain", Options{}}, {"profile", Options{Profile: profile()}},
			{"exists", Options{Exists: true}}, {"limit3", Options{Limit: 3}},
			{"order-exists", Options{Exists: true, Order: rev}},
			{"faults0", faulty(0, Abstain)}, {"faults.2-abstain", faulty(0.2, Abstain)},
			{"faults.2-impute", faulty(0.2, Impute)}, {"faults.2-replan", faulty(0.2, Replan)},
		} {
			res := execute(t, tc.s, tc.p, tc.q, tc.tbl, v.o)
			line := fmt.Sprintf("%02d-%s %s tuples=%d selected=%d mismatches=%d acq=%v found=%v foundrow=%d rows=%v total=%016x max=%016x",
				ci, tc.name, v.name, res.Tuples, res.Selected, res.Mismatches, res.Acquisitions,
				res.Found, res.FoundRow, res.Rows, math.Float64bits(res.TotalCost), math.Float64bits(res.MaxCost))
			if f := res.Fault; f != nil {
				line += fmt.Sprintf(" failures=%d retries=%d retrycost=%016x stale=%d abstained=%d abstainedtrue=%d imputed=%d replans=%d fp=%d fn=%d",
					f.Failures, f.Retries, math.Float64bits(f.RetryCost), f.StaleReads, f.Abstained, f.AbstainedTrue,
					f.Imputed, f.Replans, f.FalsePositives, f.FalseNegatives)
			}
			if p := v.o.Profile; p != nil {
				bits := make([]string, len(p.NodeCost))
				for i, c := range p.NodeCost {
					bits[i] = fmt.Sprintf("%016x", math.Float64bits(c))
				}
				line += fmt.Sprintf(" nodecost=%s visits=%v", strings.Join(bits, ","), p.NodeVisits)
			}
			lines = append(lines, line)
		}
	}
	return lines
}

// TestExecGolden freezes Execute's output for 162 runs: counters, row
// indexes, and the bits of every cost and per-node profile charge.
// Regenerate with `go test ./internal/exec -run TestExecGolden -update`
// only for a change that is meant to alter execution results.
func TestExecGolden(t *testing.T) {
	got := strings.Join(execGoldenLines(t), "\n") + "\n"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(execGoldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(execGoldenFile)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(raw), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d golden lines, want %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d differs:\n got %s\nwant %s", i+1, gotLines[i], wantLines[i])
		}
	}
}
