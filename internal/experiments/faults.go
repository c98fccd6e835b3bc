package experiments

import (
	"context"
	"fmt"
	"io"
	"reflect"

	"acqp/internal/exec"
	"acqp/internal/fault"
	"acqp/internal/model"
	"acqp/internal/opt"
	"acqp/internal/plan"
	"acqp/internal/query"
	"acqp/internal/schema"
	"acqp/internal/table"
)

// faultSeed makes the whole study reproducible: the same seed drives
// every injector, so reruns print identical tables.
const faultSeed = 2005

// FaultRow is one (failure rate, fallback policy) cell of the study.
type FaultRow struct {
	Rate         float64 // per-acquisition transient-failure probability
	Policy       string
	MeanCost     float64 // mean acquisition cost per tuple, retries included
	RetryShare   float64 // fraction of total cost charged to retries/backoff
	AnsweredFrac float64 // tuples answered (not abstained) / tuples
	Accuracy     float64 // correct answers / answered tuples
	Retries      int
	Failures     int
	Imputed      int
	Replans      int
	WrongAnswers int // fault-induced false positives + false negatives
}

// FaultStudyResult is the robustness study: mean cost and answer quality
// versus failure rate under the three fallback policies. Expected shape:
// Abstain keeps accuracy at 1 but answers ever fewer tuples as the rate
// climbs; Impute and Replan answer every tuple at a bounded extra cost,
// trading a small accuracy loss (Impute leans on the Chow-Liu
// correlations, Replan on the residual predicates).
type FaultStudyResult struct {
	Queries int
	Tuples  int
	Rows    []FaultRow
}

// FaultStudy runs the fault-injection sweep on the lab dataset. Beyond
// producing the table it enforces the study's invariants — rate-zero runs
// match the fault-free executor exactly, costs stay non-negative, plans
// never mismatch ground truth on untouched tuples, fallback policies
// answer strictly more than Abstain once faults flow, and a repeated
// seeded run reproduces bit-identical results — returning an error on any
// violation so CI can gate on it.
func FaultStudy(e *Env) (FaultStudyResult, error) {
	queries := 5
	rates := []float64{0, 0.05, 0.1, 0.2, 0.4}
	if e.Scale == Full {
		queries = 20
		rates = []float64{0, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4}
	}
	w := e.labWorld(queries)
	s := w.train.Schema()
	imputeModel, err := model.Fit(model.NameChowLiu, w.train, model.Opts{})
	if err != nil {
		return FaultStudyResult{}, err
	}
	heur := heuristicPlanner(s, 5)
	replanner := func(failed []bool, residual query.Query) (*plan.Node, error) {
		if len(residual.Preds) == 0 {
			return plan.NewLeaf(true), nil
		}
		node, _, err := opt.CorrSeqPlanner{Alg: opt.SeqGreedy}.Plan(e.ctx(), w.dist, residual)
		return node, err
	}

	plans := make([]*plan.Node, len(w.queries))
	for qi, q := range w.queries {
		node, _, err := heur.Plan(e.ctx(), w.dist, q)
		if err != nil {
			return FaultStudyResult{}, err
		}
		plans[qi] = node
	}

	res := FaultStudyResult{Queries: len(w.queries), Tuples: w.test.NumRows() * len(w.queries)}
	policies := []exec.FallbackPolicy{exec.Abstain, exec.Impute, exec.Replan}
	for _, rate := range rates {
		answered := map[exec.FallbackPolicy]int{}
		costs := map[exec.FallbackPolicy]float64{}
		for _, policy := range policies {
			agg := FaultRow{Rate: rate, Policy: policy.String(), Accuracy: 1}
			var totalCost, retryCost float64
			var answeredSum, correctSum, tuples int
			for qi, q := range w.queries {
				inj := fault.NewInjector(s.NumAttrs(), faultSeed)
				if err := inj.SetAll(fault.AttrFault{PTransient: rate}); err != nil {
					return res, err
				}
				cfg := exec.FaultConfig{Injector: inj, Retrier: fault.DefaultRetrier(), Policy: policy}
				switch policy {
				case exec.Impute:
					cfg.Model = imputeModel
				case exec.Replan:
					cfg.Replanner = replanner
				}
				fr, err := runFaulty(e.ctx(), s, plans[qi], q, w.test, cfg)
				if err != nil {
					return res, err
				}
				if err := checkFaultRun(e.ctx(), plans[qi], q, w, rate, cfg, fr); err != nil {
					return res, err
				}
				totalCost += fr.TotalCost
				retryCost += fr.Fault.RetryCost
				tuples += fr.Tuples
				answeredSum += fr.Answered()
				correctSum += fr.Answered() - fr.Fault.FalsePositives - fr.Fault.FalseNegatives
				agg.Retries += fr.Fault.Retries
				agg.Failures += fr.Fault.Failures
				agg.Imputed += fr.Fault.Imputed
				agg.Replans += fr.Fault.Replans
				agg.WrongAnswers += fr.Fault.FalsePositives + fr.Fault.FalseNegatives
			}
			agg.MeanCost = totalCost / float64(tuples)
			if totalCost > 0 {
				agg.RetryShare = retryCost / totalCost
			}
			agg.AnsweredFrac = float64(answeredSum) / float64(tuples)
			if answeredSum > 0 {
				agg.Accuracy = float64(correctSum) / float64(answeredSum)
			}
			answered[policy] = answeredSum
			costs[policy] = totalCost
			res.Rows = append(res.Rows, agg)
		}
		if rate > 0 {
			// The point of imputation and replanning: strictly more answers
			// than abstention, at a bounded cost overhead.
			for _, p := range []exec.FallbackPolicy{exec.Impute, exec.Replan} {
				if answered[p] <= answered[exec.Abstain] {
					return res, fmt.Errorf("experiments: faults: %v answered %d tuples at rate %g, abstain answered %d",
						p, answered[p], rate, answered[exec.Abstain])
				}
				if costs[p] > 3*costs[exec.Abstain] {
					return res, fmt.Errorf("experiments: faults: %v cost %.1f at rate %g exceeds 3x abstain cost %.1f",
						p, costs[p], rate, costs[exec.Abstain])
				}
			}
		}
	}
	return res, nil
}

// runFaulty executes one fault-injected run; its accounting lands in
// Result.Fault.
func runFaulty(ctx context.Context, s *schema.Schema, node *plan.Node, q query.Query, test *table.Table, cfg exec.FaultConfig) (exec.Result, error) {
	return exec.Execute(ctx, exec.Request{
		Schema: s, Plan: node, Query: q,
		Options: exec.Options{Source: exec.NewTableSource(test, 0), Faults: &cfg, Profile: cfg.Profile},
	})
}

// checkFaultRun enforces the per-run invariants the study gates on.
func checkFaultRun(ctx context.Context, node *plan.Node, q query.Query, w labWorld, rate float64, cfg exec.FaultConfig, fr exec.Result) error {
	if fr.TotalCost < 0 || fr.Fault.RetryCost < 0 || fr.MaxCost < 0 {
		return fmt.Errorf("experiments: faults: negative cost at rate %g policy %v: %+v", rate, cfg.Policy, fr)
	}
	if fr.Mismatches != 0 {
		// Untouched tuples answered wrongly would be a planner bug, not a
		// fault artifact; the executor reports those separately from FP/FN.
		return fmt.Errorf("experiments: faults: %d plan mismatches at rate %g policy %v", fr.Mismatches, rate, cfg.Policy)
	}
	if rate == 0 {
		pristine, err := exec.Execute(ctx, exec.Request{
			Schema: w.train.Schema(), Plan: node, Query: q,
			Options: exec.Options{Source: exec.NewTableSource(w.test, 0)},
		})
		if err != nil {
			return err
		}
		plain := fr
		plain.Fault = nil
		if !reflect.DeepEqual(plain, pristine) {
			return fmt.Errorf("experiments: faults: rate-zero run diverges from fault-free executor for policy %v", cfg.Policy)
		}
	}
	again, err := runFaulty(ctx, w.train.Schema(), node, q, w.test, cfg)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(fr, again) {
		return fmt.Errorf("experiments: faults: seeded rerun not reproducible at rate %g policy %v", rate, cfg.Policy)
	}
	return nil
}

// WriteTable renders the study.
func (r FaultStudyResult) WriteTable(w io.Writer) error {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			f2(row.Rate), row.Policy, f1(row.MeanCost), f3(row.RetryShare),
			f3(row.AnsweredFrac), f3(row.Accuracy),
			fmt.Sprintf("%d", row.Retries), fmt.Sprintf("%d", row.Failures),
			fmt.Sprintf("%d", row.Imputed), fmt.Sprintf("%d", row.Replans),
			fmt.Sprintf("%d", row.WrongAnswers),
		}
	}
	return WriteTable(w,
		fmt.Sprintf("Fault study: cost and answer quality vs failure rate — lab dataset (%d queries, %d tuple-runs)", r.Queries, r.Tuples),
		[]string{"p_fail", "policy", "mean cost", "retry share", "answered", "accuracy", "retries", "failures", "imputed", "replans", "wrong"},
		rows)
}
