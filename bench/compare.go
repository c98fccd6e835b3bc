package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// maxLateShare is the share of open-loop requests the generator may
// hold up (1 - ontime_share) before a run's figures stop being
// comparable: the generator, not the server, was then what the run
// measured.
const maxLateShare = 0.05

// benchmarkSpec is what -compare reads of BENCHMARK.json.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("bench: %s: %w", path, err)
	}
	return nil
}

// verdict classifies one metric's move from old to new under its bound,
// a share of the old value.
func verdict(old, new, bound float64, better string) string {
	if old == 0 {
		return "unresolved"
	}
	gain := (new - old) / old
	if better == "lower" {
		gain = -gain
	}
	switch {
	case gain < -bound:
		return "regressed"
	case gain > bound:
		return "improved"
	default:
		return "unchanged"
	}
}

// compareFiles prints, for every workload of the old run and every
// end-to-end metric of BENCHMARK.json, whether the new run improved,
// regressed or stayed within the metric's bound. A workload on which
// the generator of either run held up more than maxLateShare of its
// open-loop requests is unresolved on every metric. It fails when any
// pair regressed.
func compareFiles(out io.Writer, benchmarkPath, oldPath, newPath string) error {
	var spec benchmarkSpec
	var oldRun, newRun runFile
	if err := readJSON(benchmarkPath, &spec); err != nil {
		return err
	}
	if err := readJSON(oldPath, &oldRun); err != nil {
		return err
	}
	if err := readJSON(newPath, &newRun); err != nil {
		return err
	}
	byName := map[string]runResult{}
	for _, r := range newRun.Workloads {
		byName[r.Workload] = r
	}
	late := func(r runResult) bool {
		m, ok := r.Metrics["ontime_share"]
		return ok && 1-m.Value > maxLateShare
	}
	regressed := 0
	fmt.Fprintf(out, "%-16s %-16s %14s %14s %9s  %s\n", "workload", "metric", "old", "new", "change", "verdict")
	for _, o := range oldRun.Workloads {
		n, ok := byName[o.Workload]
		for _, e := range spec.EndToEnd {
			ov, okOld := o.Metrics[e.Name]
			nv, okNew := n.Metrics[e.Name]
			if !ok || !okOld || !okNew {
				fmt.Fprintf(out, "%-16s %-16s %14s %14s %9s  unresolved (missing from a run)\n", o.Workload, e.Name, "-", "-", "-")
				continue
			}
			v := verdict(ov.Value, nv.Value, e.Bound, e.Better)
			if late(o) || late(n) {
				v = "unresolved (a run's generator held up more than " + fmt.Sprint(maxLateShare) + " of its requests)"
			}
			if v == "regressed" {
				regressed++
			}
			change := 0.0
			if ov.Value != 0 {
				change = 100 * (nv.Value - ov.Value) / ov.Value
			}
			fmt.Fprintf(out, "%-16s %-16s %14.6g %14.6g %+8.2f%%  %s\n", o.Workload, e.Name, ov.Value, nv.Value, change, v)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("bench: %d (workload, metric) pairs regressed", regressed)
	}
	return nil
}
