// Package exec runs query plans over row sources with full acquisition
// metering. It is the measurement harness behind the paper's evaluation:
// plans are built on training data and then costed per-tuple over a
// disjoint test window (Section 6, "Test v. Training"), charging each
// attribute acquisition at its schema cost.
//
// Execute is the only entry point: one streaming, batch-at-a-time
// executor over which profiling, fault injection, limits, existential
// short-circuiting, and explicit row orders compose as Options.
package exec

import "fmt"

// Result summarizes one plan execution over a source.
type Result struct {
	// Tuples is the number of tuples processed.
	Tuples int
	// Selected is the number of tuples the plan output as satisfying.
	Selected int
	// TotalCost is the summed acquisition cost over all tuples.
	TotalCost float64
	// MaxCost is the largest per-tuple acquisition cost observed.
	MaxCost float64
	// Mismatches counts tuples where the plan's output differed from the
	// ground-truth phi(x). A correct plan always reports zero; a nonzero
	// value indicates a planner bug.
	Mismatches int
	// Acquisitions counts, per attribute, how many tuples acquired it.
	Acquisitions []int64

	// Found and FoundRow report the first satisfying tuple under
	// Options.Exists (FoundRow is -1 when none exists, and 0 when the
	// option was not set). Rows collects the selected global row indexes
	// under Options.Limit. Fault carries fault-path accounting when
	// Options.Faults was set, nil otherwise; with it set, Selected and
	// Mismatches consider only answered (non-abstained) tuples, and
	// Mismatches counts only wrong answers on tuples no fault touched —
	// fault-induced errors are classed as Fault.FalsePositives and
	// Fault.FalseNegatives.
	Found    bool
	FoundRow int
	Rows     []int
	Fault    *FaultStats
}

// MeanCost returns the average per-tuple acquisition cost, the quantity
// the paper's figures report.
func (r Result) MeanCost() float64 {
	if r.Tuples == 0 {
		return 0
	}
	return r.TotalCost / float64(r.Tuples)
}

// Selectivity returns the fraction of tuples selected.
func (r Result) Selectivity() float64 {
	if r.Tuples == 0 {
		return 0
	}
	return float64(r.Selected) / float64(r.Tuples)
}

func (r Result) String() string {
	return fmt.Sprintf("tuples=%d selected=%d mean-cost=%.3f max-cost=%.1f mismatches=%d",
		r.Tuples, r.Selected, r.MeanCost(), r.MaxCost, r.Mismatches)
}

// Answered returns the number of tuples that received a definite answer:
// every tuple, less those the fault path abstained on.
func (r Result) Answered() int {
	if r.Fault == nil {
		return r.Tuples
	}
	return r.Tuples - r.Fault.Abstained
}

// Accuracy returns the fraction of answered tuples answered correctly.
func (r Result) Accuracy() float64 {
	n := r.Answered()
	if n == 0 {
		return 1
	}
	wrong := r.Mismatches
	if r.Fault != nil {
		wrong += r.Fault.FalsePositives + r.Fault.FalseNegatives
	}
	return float64(n-wrong) / float64(n)
}
