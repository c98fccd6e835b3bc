package serve

import (
	"fmt"

	"acqp/internal/exec"
	"acqp/internal/fault"
	"acqp/internal/opt"
	"acqp/internal/plan"
	"acqp/internal/query"
	"acqp/internal/stats"
)

// faultSpec is the optional "faults" section of plan/execute requests:
// deterministic what-if fault injection. Plans computed under a faults
// section are never stored in the plan cache (the degraded-outcomes-are-
// never-cached invariant extends to the fault path), and /execute runs
// the fault-aware executor instead of the pristine one.
type faultSpec struct {
	// Seed makes the injected faults reproducible across requests.
	Seed int64 `json:"seed"`
	// PFail, PTimeout, and PStale apply to every attribute acquisition:
	// transient failure, timeout failure, and stuck-at-stale probability.
	PFail    float64 `json:"p_fail,omitempty"`
	PTimeout float64 `json:"p_timeout,omitempty"`
	PStale   float64 `json:"p_stale,omitempty"`
	// Dead lists attribute names whose sensors are dead from the start.
	Dead []string `json:"dead,omitempty"`
	// MaxRetries bounds retries per acquisition; omitted means the
	// default budget (2), and 0 means fail on the first unsuccessful
	// attempt.
	MaxRetries *int `json:"max_retries,omitempty"`
	// Policy is the fallback on ultimate failure: "abstain" (default),
	// "impute", or "replan".
	Policy string `json:"policy,omitempty"`
}

// active reports whether the spec can inject any fault. An all-zero spec
// is valid and makes the fault-aware path byte-identical to the plain
// one.
func (f *faultSpec) active() bool {
	return f != nil && (f.PFail > 0 || f.PTimeout > 0 || f.PStale > 0 || len(f.Dead) > 0)
}

// buildFaultConfig validates the spec against the schema and assembles
// the executor configuration. The impute model and the replanner both use
// the given statistics snapshot, so what-if analysis sees the same
// correlations the planner exploited.
func (s *Server) buildFaultConfig(spec *faultSpec, dist stats.Dist) (exec.FaultConfig, error) {
	var cfg exec.FaultConfig
	inj := fault.NewInjector(s.s.NumAttrs(), spec.Seed)
	if err := inj.SetAll(fault.AttrFault{PTransient: spec.PFail, PTimeout: spec.PTimeout, PStale: spec.PStale}); err != nil {
		return cfg, err
	}
	for _, name := range spec.Dead {
		a := s.s.Index(name)
		if a < 0 {
			return cfg, fmt.Errorf("faults: unknown attribute %q in dead list", name)
		}
		if err := inj.SetAttr(a, fault.AttrFault{PTransient: spec.PFail, PTimeout: spec.PTimeout, PStale: spec.PStale, Dead: true}); err != nil {
			return cfg, err
		}
	}
	ret := fault.DefaultRetrier()
	if spec.MaxRetries != nil {
		if *spec.MaxRetries < 0 {
			return cfg, fmt.Errorf("faults: max_retries must be non-negative, got %d", *spec.MaxRetries)
		}
		ret.MaxRetries = *spec.MaxRetries
	}
	policy := exec.Abstain
	if spec.Policy != "" {
		var err error
		policy, err = exec.ParseFallbackPolicy(spec.Policy)
		if err != nil {
			return cfg, fmt.Errorf("faults: %v", err)
		}
	}
	cfg = exec.FaultConfig{Injector: inj, Retrier: ret, Policy: policy}
	if policy == exec.Impute {
		cfg.Model = dist
	}
	if policy == exec.Replan {
		cfg.Replanner = func(failed []bool, residual query.Query) (*plan.Node, error) {
			if len(residual.Preds) == 0 {
				return plan.NewLeaf(true), nil
			}
			// baseCtx, not a detached Background: mid-execution replans
			// must stop promptly when the server shuts down.
			node, _, err := opt.CorrSeqPlanner{Alg: opt.SeqGreedy}.Plan(s.baseCtx, dist, residual)
			return node, err
		}
	}
	return cfg, nil
}

// faultReport is the "faults" section of an /execute response.
type faultReport struct {
	Policy         string  `json:"policy"`
	Seed           int64   `json:"seed"`
	Failures       int     `json:"failures"`
	Retries        int     `json:"retries"`
	RetryCost      float64 `json:"retry_cost"`
	StaleReads     int     `json:"stale_reads"`
	Abstained      int     `json:"abstained"`
	Imputed        int     `json:"imputed"`
	Replans        int     `json:"replans"`
	FalsePositives int     `json:"false_positives"`
	FalseNegatives int     `json:"false_negatives"`
	Answered       int     `json:"answered"`
	Accuracy       float64 `json:"accuracy"`
}

// newFaultReport renders the fault accounting of res, a Result produced
// with Options.Faults set.
func newFaultReport(spec *faultSpec, policy exec.FallbackPolicy, res exec.Result) *faultReport {
	fs := res.Fault
	return &faultReport{
		Policy:         policy.String(),
		Seed:           spec.Seed,
		Failures:       fs.Failures,
		Retries:        fs.Retries,
		RetryCost:      fs.RetryCost,
		StaleReads:     fs.StaleReads,
		Abstained:      fs.Abstained,
		Imputed:        fs.Imputed,
		Replans:        fs.Replans,
		FalsePositives: fs.FalsePositives,
		FalseNegatives: fs.FalseNegatives,
		Answered:       res.Answered(),
		Accuracy:       res.Accuracy(),
	}
}
