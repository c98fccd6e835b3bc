// Command acqperf is the repository's benchmark: it builds cmd/acqserved,
// runs it as a child process under six named workloads generated from
// -seed, checks every answer, and prints the end-to-end metrics of
// BENCHMARK.json; a separate traced pass gives the per-layer metrics.
// See README.md in this directory.
//
//	bash bench/run.sh -seed 1 -out bench/out/run.json   # everything
//	bash bench/run.sh -workload plan_hit -trace 0       # one run, as the driver makes it
//	bash bench/run.sh -compare old.json new.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// runSeconds is the measured length of one run, the run_seconds of
// BENCHMARK.json: six seconds of open loop and six of closed loop, so
// that the write schedule of ingest_refresh, with a refresh one, three
// and five seconds into a phase, leaves each refresh a second to land.
const runSeconds = 12

// tracedShare is the length of the traced pass's live phases as a share
// of -seconds; the rest of its time goes to the in-process pass.
const tracedShare = 0.3

// runFile is what -out writes and -compare reads.
type runFile struct {
	Header    map[string]any `json:"header"`
	Workloads []runResult    `json:"workloads"` // the end-to-end pass
	Traced    []runResult    `json:"traced"`    // the traced pass: what a live run alone can tell about the layers
	Layers    *runResult     `json:"layers"`    // the traced pass: the in-process layer metrics and the checks made on the way
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		stop()
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	flag := flag.NewFlagSet("acqperf", flag.ContinueOnError)
	workload := flag.String("workload", "", "run this workload only and end with the one-line JSON result (default: all six)")
	seed := flag.Int64("seed", 1, "seed of the request order, spellings and entry nodes")
	seconds := flag.Float64("seconds", runSeconds, "measured length of a run: an open loop, then a closed loop")
	trace := flag.Int("trace", -1, "0: the end-to-end pass only; 1: the traced pass with the per-layer metrics only; default both")
	out := flag.String("out", "", "write every result of the run to this JSON file")
	quick := flag.Bool("quick", false, "smoke run: plan_hit only, end to end, a tenth of the length, one set-up")
	compare := flag.Bool("compare", false, "compare two -out files, `old.json new.json`, under the bounds of BENCHMARK.json")
	if err := flag.Parse(args); err != nil {
		return err
	}

	root, err := findRoot()
	if err != nil {
		return err
	}
	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("bench: -compare takes two files: old.json new.json")
		}
		return compareFiles(stdout, filepath.Join(root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("bench: unexpected arguments %q", flag.Args())
	}
	if *seconds <= 0 {
		return fmt.Errorf("bench: -seconds must be positive")
	}

	specs := workloads
	setups := setupRepeats
	if *quick {
		*workload, *seconds, setups = "plan_hit", *seconds/10, 1
		if *trace < 0 {
			*trace = 0
		}
	}
	if *workload != "" {
		spec, ok := findWorkload(*workload)
		if !ok {
			return fmt.Errorf("bench: unknown workload %q", *workload)
		}
		specs = []workloadSpec{spec}
	}

	outDir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	bin, err := buildServer(ctx, root, outDir)
	if err != nil {
		return err
	}
	w, err := newWorld()
	if err != nil {
		return err
	}

	file := runFile{Header: header(root, *seed, *seconds)}
	if *trace != 1 {
		for _, spec := range specs {
			res, err := runWorkload(ctx, w, spec, runOptions{seed: *seed, seconds: *seconds, setups: setups, bin: bin, outDir: outDir})
			if err != nil {
				return err
			}
			file.Workloads = append(file.Workloads, res)
			printResult(stdout, res)
		}
	}
	if *trace != 0 {
		tracers := map[string]*tracer{}
		for _, spec := range workloads {
			tracers[spec.name] = newTracer()
		}
		for _, spec := range specs {
			res, err := runWorkload(ctx, w, spec, runOptions{seed: *seed, seconds: *seconds * tracedShare, setups: 1, tr: tracers[spec.name], bin: bin, outDir: outDir})
			if err != nil {
				return err
			}
			file.Traced = append(file.Traced, res)
			printResult(stdout, res)
		}
		pass, err := measureLayers(ctx, w, *seed, *seconds/runSeconds, tracers)
		if err != nil {
			return err
		}
		file.Layers = &runResult{Workload: "layers", Attempted: pass.attempted, Failed: pass.failed, Failures: pass.failures, Metrics: pass.m}
		printResult(stdout, *file.Layers)
		for _, spec := range workloads {
			if err := tracers[spec.name].write(filepath.Join(outDir, "trace-"+spec.name+".json")); err != nil {
				return err
			}
		}
	}
	if *out != "" {
		raw, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	all := merged(file)
	if *workload != "" {
		// The driver's contract: the last line is one JSON object.
		line, err := resultLine(all)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, line)
	}
	if all.Failed > 0 {
		return fmt.Errorf("bench: %d failed requests or answer checks", all.Failed)
	}
	return nil
}

// merged folds every result of a run into one: of a single-workload
// run, the line the driver reads.
func merged(f runFile) runResult {
	res := runResult{Metrics: map[string]metric{}}
	parts := append(append([]runResult(nil), f.Workloads...), f.Traced...)
	if f.Layers != nil {
		parts = append(parts, *f.Layers)
	}
	for _, r := range parts {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		for _, k := range sortedKeys(r.Metrics) {
			res.Metrics[k] = r.Metrics[k]
		}
	}
	return res
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	//acqlint:ignore maporder collection order is erased by the sort below
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// header records what the numbers of a run depend on.
func header(root string, seed int64, seconds float64) map[string]any {
	rates := map[string]int{}
	for _, w := range workloads {
		rates[w.name] = w.rate
	}
	h := map[string]any{
		"nproc":       runtime.NumCPU(),
		"go":          runtime.Version(),
		"seed":        seed,
		"seconds":     seconds,
		"connections": conns,
		"open_rates":  rates,
		"started":     time.Now().UTC().Format(time.RFC3339),
		"commit":      "unknown",
	}
	// A driver's checkout is not a git repository; the commit is then
	// left unknown.
	if raw, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		head := strings.TrimSpace(string(raw))
		if ref, ok := strings.CutPrefix(head, "ref: "); ok {
			if raw, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
				head = strings.TrimSpace(string(raw))
			}
		}
		h["commit"] = head
	}
	return h
}

func printResult(out io.Writer, res runResult) {
	fmt.Fprintf(out, "%s: attempted %d, failed %d", res.Workload, res.Attempted, res.Failed)
	for _, k := range sortedKeys(res.Samples) {
		fmt.Fprintf(out, ", %s %d", k, res.Samples[k])
	}
	fmt.Fprintln(out)
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Fprintf(out, "  %-30s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(out, "  FAILED %s\n", f)
	}
}
