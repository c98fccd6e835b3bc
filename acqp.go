// Package acqp is a query planner and execution framework for
// acquisitional query processing — environments such as sensor networks
// and wide-area data sources where reading an attribute has a high,
// per-attribute cost (energy, latency, money) and tuples must be actively
// acquired rather than loaded from disk.
//
// It implements the system described in:
//
//	A. Deshpande, C. Guestrin, W. Hong, S. Madden.
//	"Exploiting Correlated Attributes in Acquisitional Query Processing."
//	ICDE 2005.
//
// Given a conjunctive multi-predicate range query and historical data,
// the planners exploit correlations between cheap attributes (time of
// day, node id, battery voltage) and expensive ones (sensor transducers,
// remote fetches) to build conditional plans: binary decision trees that
// observe cheap attributes first and choose, per tuple, the cheapest
// order in which to evaluate the expensive predicates.
//
// # Quick start
//
//	s := acqp.NewSchema(
//		acqp.Attribute{Name: "hour", K: 24, Cost: 1},
//		acqp.Attribute{Name: "light", K: 32, Cost: 100},
//		acqp.Attribute{Name: "temp", K: 32, Cost: 100},
//	)
//	historical := loadTable(s)                     // *acqp.Table
//	q, _ := acqp.NewQuery(s,
//		acqp.Pred{Attr: s.MustIndex("light"), R: acqp.Range{Lo: 0, Hi: 3}},
//		acqp.Pred{Attr: s.MustIndex("temp"), R: acqp.Range{Lo: 20, Hi: 31}},
//	)
//	d := acqp.NewEmpirical(historical)
//	p, cost, _ := acqp.Optimize(context.Background(), d, q, acqp.Options{MaxSplits: 5})
//	fmt.Println(acqp.Render(p, s), cost)
//	res, _ := acqp.Execute(context.Background(), s, p, q, liveData, acqp.ExecOptions{})
//
// The package is a facade over the internal implementation; everything a
// downstream user needs is exported here.
package acqp

import (
	"context"
	"fmt"

	"acqp/internal/boolq"
	"acqp/internal/datagen"
	"acqp/internal/exec"
	"acqp/internal/model"
	"acqp/internal/opt"
	"acqp/internal/plan"
	"acqp/internal/query"
	"acqp/internal/schema"
	"acqp/internal/sensornet"
	"acqp/internal/sql"
	"acqp/internal/stats"
	"acqp/internal/stream"
	"acqp/internal/table"
	"acqp/internal/trace"
)

// Core data-model types.
type (
	// Value is a discretized attribute value in [0, K).
	Value = schema.Value
	// Attribute describes one column: name, domain size K, acquisition
	// cost, and optional continuous-value discretizer.
	Attribute = schema.Attribute
	// Schema is an ordered attribute collection.
	Schema = schema.Schema
	// Discretizer maps continuous readings to discrete bins.
	Discretizer = schema.Discretizer
	// Table is a column-major dataset bound to a schema.
	Table = table.Table
	// Range is an inclusive interval of discretized values.
	Range = query.Range
	// Pred is a unary (optionally negated) range predicate.
	Pred = query.Pred
	// Query is a conjunction of range predicates.
	Query = query.Query
	// Plan is a query plan node: a conditioning split tree with
	// sequential plans or constant leaves at the bottom.
	Plan = plan.Node
	// Dist is a joint distribution over the schema's attributes used to
	// estimate the conditional probabilities planners need.
	Dist = stats.Dist
	// Cond is a distribution conditioned on evidence along a plan branch.
	Cond = stats.Cond
	// Planner is the common interface of all planning algorithms.
	Planner = opt.Planner
	// SPSF restricts the candidate conditioning split points
	// (Section 4.3 of the paper).
	SPSF = opt.SPSF
	// Result summarizes a metered plan execution.
	Result = exec.Result
)

// Schema and data construction.
var (
	// NewSchema builds a schema from attributes, panicking on invalid
	// input.
	NewSchema = schema.New
	// NewDiscretizer builds an equal-width discretizer over [min, max]
	// with k bins.
	NewDiscretizer = schema.NewDiscretizer
	// NewTable creates an empty table with a row-capacity hint.
	NewTable = table.New
	// ReadCSV loads a table from CSV (header row of attribute names).
	ReadCSV = table.ReadCSV
	// NewQuery validates and builds a conjunctive query.
	NewQuery = query.NewQuery
	// FullRange returns the range covering a domain of size k.
	FullRange = query.FullRange
	// FullSPSF allows every split point of every attribute.
	FullSPSF = opt.FullSPSF
	// UniformSPSF builds an equal-width candidate grid with r split
	// points per attribute.
	UniformSPSF = opt.UniformSPSFSame
)

// Probability oracles.
var (
	// NewEmpirical wraps a historical table as a distribution
	// (Section 5 of the paper: probabilities from counts).
	NewEmpirical = stats.NewEmpirical
	// Compress deduplicates a table into a weighted distribution — the
	// compact multi-dimensional histogram of Figure 4.
	Compress = stats.Compress
	// FitChowLiu learns a tree-shaped Bayesian network, the Section 7
	// graphical-model alternative to raw counts.
	FitChowLiu = model.FitChowLiu
	// FitIndependent learns a fully-independent model (ablation
	// baseline).
	FitIndependent = model.FitIndependent
	// FitBN learns a general bounded-in-degree Bayesian network by greedy
	// BIC search; it captures interactions (XOR-like dependencies) no
	// tree can.
	FitBN = model.FitBN
	// Fit builds a model by registry name ("empirical", "independent",
	// "chowliu", "bn") with typed errors for unknown names and empty
	// tables.
	Fit = model.Fit
	// ModelNames lists the registry names Fit accepts, in deterministic
	// order.
	ModelNames = model.Names
)

// ModelOpts carries Fit's optional fitting parameters; the zero value
// selects the documented defaults.
type ModelOpts = model.Opts

// Model-registry errors, matched with errors.Is.
var (
	// ErrUnknownModel reports a Fit name outside ModelNames().
	ErrUnknownModel = model.ErrUnknownModel
	// ErrEmptyTable reports a Fit call on a nil or zero-row table.
	ErrEmptyTable = model.ErrEmptyTable
	// ErrBadOpts reports negative fitting options.
	ErrBadOpts = model.ErrBadOpts
)

// Plan inspection and transport.
var (
	// Render pretty-prints a plan (Figure 9 style).
	Render = plan.Render
	// Simplify canonicalizes a plan: decided splits, proven predicates,
	// and identical branches are removed without changing any output or
	// increasing any tuple's cost.
	Simplify = plan.Simplify
	// Dot emits a Graphviz rendering.
	Dot = plan.Dot
	// Encode serializes a plan to its compact wire format.
	Encode = plan.Encode
	// Decode parses and validates a wire-format plan.
	Decode = plan.Decode
	// PlanSize returns zeta(P), the wire size in bytes (Section 2.4).
	PlanSize = plan.Size
	// ExpectedCost evaluates Equation 3: the expected acquisition cost
	// of a plan under a distribution.
	ExpectedCost = plan.ExpectedCostRoot
)

// Execution.
type (
	// ExecSource produces tuples in bounded batches for Execute; tables,
	// CSV readers, and stream windows adapt to it.
	ExecSource = exec.RowSource
	// ExecProfile accumulates per-plan-node and per-attribute cost
	// attribution during a profiled execution.
	ExecProfile = trace.ExecProfile
	// FaultConfig configures fault-injected execution (injector, retry
	// policy, fallback).
	FaultConfig = exec.FaultConfig
	// FaultStats is the fault-path accounting attached to a Result.
	FaultStats = exec.FaultStats
)

var (
	// NewTableSource streams a table in batches (batchSize <= 0 selects
	// the executor default).
	NewTableSource = exec.NewTableSource
	// NewFuncSource wraps a row-producer callback as a bounded-memory
	// source for inputs larger than memory.
	NewFuncSource = exec.NewFuncSource
	// NewExecProfile allocates a profile sized for a plan's node count
	// and the schema's attribute count.
	NewExecProfile = trace.NewExecProfile
	// RankByCheapEvidence orders candidate tuples by descending
	// P(query satisfied | cheap attributes), the Section 7 existential
	// optimization; feed the order to ExecOptions.Order with
	// ExecOptions.Exists.
	RankByCheapEvidence = exec.RankByCheapEvidence
)

// ExecOptions configures Execute. The zero value executes the plan over
// every tuple with ground-truth verification.
type ExecOptions struct {
	// Source overrides the table argument as the tuple supply; when set,
	// tbl may be nil. Use it for stream windows (StreamWindow.Source) or
	// larger-than-memory inputs (NewFuncSource over a table.RowReader).
	Source ExecSource
	// Profile, when non-nil, receives per-node cost attribution.
	Profile *ExecProfile
	// Faults, when non-nil, executes under fault injection; the
	// accounting lands in Result.Fault.
	Faults *FaultConfig
	// Limit stops after this many satisfying tuples (collected in
	// Result.Rows); Exists stops at the first (Result.Found/FoundRow).
	Limit  int
	Exists bool
	// Order visits rows in this explicit order; requires a random-access
	// source (tables are).
	Order []int
	// BatchSize tunes the rows pulled per batch; zero selects the
	// executor default.
	BatchSize int
	// SkipVerify disables the ground-truth mismatch check.
	SkipVerify bool
}

// Execute runs a plan over a table (or ExecOptions.Source) with
// acquisition metering, verifying outputs against ground truth. It
// mirrors Optimize: context-first, options-struct, typed errors
// (ErrInvalidRequest for malformed requests, matched with errors.Is).
// ctx cancellation interrupts execution between batches, returning the
// partial Result alongside the wrapped context error.
func Execute(ctx context.Context, s *Schema, p *Plan, q Query, tbl *Table, o ExecOptions) (Result, error) {
	src := o.Source
	if src == nil && tbl != nil {
		src = exec.NewTableSource(tbl, o.BatchSize)
	}
	res, err := exec.Execute(ctx, exec.Request{
		Schema: s, Plan: p, Query: q,
		Options: exec.Options{
			Source: src, Profile: o.Profile, Faults: o.Faults,
			Limit: o.Limit, Exists: o.Exists, Order: o.Order,
			BatchSize: o.BatchSize, SkipVerify: o.SkipVerify,
		},
	})
	if err != nil {
		return res, convertExecError(err)
	}
	return res, nil
}

// Algorithm selects the planning algorithm Optimize runs. The zero value
// is AlgorithmGreedy, so an Options zero value keeps its historical
// greedy behavior.
type Algorithm int

const (
	// AlgorithmGreedy is the paper's Heuristic-k conditional planner
	// (Section 4.2): anytime, polynomial, the default.
	AlgorithmGreedy Algorithm = iota
	// AlgorithmExhaustive is the optimal dynamic-programming search of
	// Section 3.2, exponential in the SPSF; bound it with Budget.
	AlgorithmExhaustive
	// AlgorithmCorrSeq is the correlation-aware sequential baseline
	// (CorrSeq in the paper's evaluation): no conditioning splits.
	AlgorithmCorrSeq
	// AlgorithmNaive is the traditional optimizer baseline: predicates
	// ordered by cost over marginal selectivity, ignoring correlations.
	AlgorithmNaive
)

// String returns the algorithm's canonical lowercase name, matching the
// planning service's "planner" request field.
func (a Algorithm) String() string {
	switch a {
	case AlgorithmGreedy:
		return "greedy"
	case AlgorithmExhaustive:
		return "exhaustive"
	case AlgorithmCorrSeq:
		return "corrseq"
	case AlgorithmNaive:
		return "naive"
	default:
		return fmt.Sprintf("algorithm(%d)", int(a))
	}
}

// ParseAlgorithm maps a canonical name back to its Algorithm.
func ParseAlgorithm(name string) (Algorithm, error) {
	switch name {
	case "greedy":
		return AlgorithmGreedy, nil
	case "exhaustive":
		return AlgorithmExhaustive, nil
	case "corrseq":
		return AlgorithmCorrSeq, nil
	case "naive":
		return AlgorithmNaive, nil
	default:
		return 0, fmt.Errorf("acqp: unknown algorithm %q (want greedy, exhaustive, corrseq, or naive)", name)
	}
}

// Options configures Optimize. The zero value selects the documented
// defaults (greedy planning, 5 splits, 8 split points, sequential search),
// so existing callers passing Options{} keep their behavior; new callers
// should start from DefaultOptions.
type Options struct {
	// Algorithm selects the planner. The zero value is AlgorithmGreedy.
	Algorithm Algorithm
	// MaxSplits bounds the number of conditioning splits (the paper's
	// Heuristic-k). Zero means the default of 5; a negative value
	// requests a purely sequential plan (Heuristic-0). Ignored by the
	// non-greedy algorithms.
	MaxSplits int
	// SplitPoints is the per-attribute SPSF candidate count. Default 8.
	SplitPoints int
	// UseGreedyBase forces the 4-approximate greedy sequential planner
	// for leaf plans; by default the optimal sequential planner is used
	// for small queries and greedy for large ones.
	UseGreedyBase bool
	// DisseminationAlpha, when positive, optimizes the joint objective
	// of Section 2.4, C(P) + alpha*zeta(P): each conditioning split is
	// charged alpha cost units per extra wire byte, so plan size is
	// traded off against acquisition savings instead of being hard-capped.
	DisseminationAlpha float64
	// Parallelism bounds the goroutines the planner may use to evaluate
	// candidate splits and frontier leaves concurrently. Zero or one
	// plans sequentially. Plans are deterministic regardless of
	// Parallelism: identical cost bits and plan shape at any setting.
	Parallelism int
	// Budget caps exhaustive-search subproblem expansions; 0 means no
	// cap. When exceeded, Optimize returns ErrBudgetExceeded. Ignored by
	// the other algorithms.
	Budget int
}

// DefaultOptions returns the documented defaults with every knob explicit.
func DefaultOptions() Options {
	return Options{
		Algorithm:   AlgorithmGreedy,
		MaxSplits:   5,
		SplitPoints: 8,
		Parallelism: 1,
	}
}

// Validate reports whether the options are well-formed: a known algorithm
// and non-negative knobs. withDefaults-style zero values are valid.
func (o Options) Validate() error {
	switch o.Algorithm {
	case AlgorithmGreedy, AlgorithmExhaustive, AlgorithmCorrSeq, AlgorithmNaive:
	default:
		return fmt.Errorf("acqp: unknown algorithm %d", int(o.Algorithm))
	}
	if o.SplitPoints < 0 {
		return fmt.Errorf("acqp: negative SplitPoints %d", o.SplitPoints)
	}
	if o.Parallelism < 0 {
		return fmt.Errorf("acqp: negative Parallelism %d", o.Parallelism)
	}
	if o.Budget < 0 {
		return fmt.Errorf("acqp: negative Budget %d", o.Budget)
	}
	if o.DisseminationAlpha < 0 {
		return fmt.Errorf("acqp: negative DisseminationAlpha %g", o.DisseminationAlpha)
	}
	return nil
}

func (o Options) withDefaults() Options {
	switch {
	case o.MaxSplits == 0:
		o.MaxSplits = 5
	case o.MaxSplits < 0:
		o.MaxSplits = 0
	}
	if o.SplitPoints == 0 {
		o.SplitPoints = 8
	}
	if o.Parallelism <= 0 {
		o.Parallelism = 1
	}
	return o
}

// Optimize builds a conditional plan for the query with the selected
// algorithm and returns it with its expected acquisition cost under the
// distribution.
//
// Greedy planning (the default) is anytime: if ctx is cancelled or its
// deadline expires mid-search, Optimize stops expanding and returns the
// best complete plan found so far (at worst a purely sequential plan)
// rather than an error. The exhaustive search cannot degrade: cancelling
// ctx aborts it with ctx.Err(), and exceeding Budget aborts it with
// ErrBudgetExceeded.
func Optimize(ctx context.Context, d Dist, q Query, o Options) (*Plan, float64, error) {
	if err := o.Validate(); err != nil {
		return nil, 0, err
	}
	if n := q.NumPreds(); n > stats.MaxJointPreds {
		// The sequential optimizers build a dense joint over 2^m predicate
		// patterns; past this bound they would panic deep in the stats
		// layer. Reject up front with the typed invalid-request error.
		return nil, 0, fmt.Errorf("%w: query has %d predicates, planning supports at most %d",
			ErrInvalidRequest, n, stats.MaxJointPreds)
	}
	o = o.withDefaults()
	switch o.Algorithm {
	case AlgorithmExhaustive:
		e := opt.Exhaustive{
			SPSF:        opt.UniformSPSFSame(d.Schema(), o.SplitPoints),
			Budget:      o.Budget,
			Parallelism: o.Parallelism,
		}
		node, cost, err := e.Plan(ctx, d, q)
		if err != nil {
			return nil, 0, convertPlannerError(err)
		}
		return node, cost, nil
	case AlgorithmCorrSeq:
		node, cost, err := opt.CorrSeqPlanner{Alg: opt.SeqOpt}.Plan(ctx, d, q)
		return node, cost, err
	case AlgorithmNaive:
		node, cost, err := opt.NaivePlanner{}.Plan(ctx, d, q)
		return node, cost, err
	default: // AlgorithmGreedy
		base := opt.SeqOpt
		if o.UseGreedyBase {
			base = opt.SeqGreedy
		}
		g := opt.Greedy{
			SPSF:        opt.UniformSPSFSame(d.Schema(), o.SplitPoints),
			MaxSplits:   o.MaxSplits,
			Base:        base,
			Alpha:       o.DisseminationAlpha,
			Parallelism: o.Parallelism,
		}
		node, cost := g.Plan(ctx, d, q)
		return node, cost, nil
	}
}

// NaivePlan builds the traditional optimizer baseline: predicates ordered
// by cost over marginal failure probability, ignoring correlations.
func NaivePlan(d Dist, q Query) (*Plan, float64) {
	//acqlint:ignore errdrop sequential baseline under a background context and fixed valid options cannot fail
	node, cost, _ := Optimize(context.Background(), d, q, Options{Algorithm: AlgorithmNaive}) //acqlint:ignore ctxbg exported convenience wrapper with no ctx parameter; Optimize is the context-threading API
	return node, cost
}

// CorrSeqPlan builds the correlation-aware sequential baseline (CorrSeq
// in the paper's evaluation).
func CorrSeqPlan(d Dist, q Query) (*Plan, float64) {
	//acqlint:ignore errdrop sequential baseline under a background context and fixed valid options cannot fail
	node, cost, _ := Optimize(context.Background(), d, q, Options{Algorithm: AlgorithmCorrSeq}) //acqlint:ignore ctxbg exported convenience wrapper with no ctx parameter; Optimize is the context-threading API
	return node, cost
}

// SQL-style parsing (TinyDB lineage).
type (
	// Statement is a parsed "SELECT ... WHERE ..." acquisitional query.
	Statement = sql.Statement
)

var (
	// ParseSQL parses a TinyDB-style statement, e.g.
	// "SELECT light, temp WHERE 100 <= light <= 900 AND temp >= 25".
	// Thresholds use raw units for attributes with discretizers.
	ParseSQL = sql.Parse
	// ParseWhere parses a bare boolean clause into a BoolExpr.
	ParseWhere = sql.ParseWhere
)

// Arbitrary boolean WHERE clauses (the general MRSP setting of
// Theorem 3.1; conjunctive queries should use Query and Optimize, which
// are faster).
type (
	// BoolExpr is a boolean expression tree over range predicates
	// (AND/OR/NOT).
	BoolExpr = boolq.Expr
	// BoolExhaustive is the optimal conditional planner for arbitrary
	// boolean expressions.
	BoolExhaustive = boolq.Exhaustive
	// BoolGreedy is the bounded-split heuristic planner for arbitrary
	// boolean expressions.
	BoolGreedy = boolq.Greedy
)

// Boolean expression constructors.
var (
	// BoolPred wraps a predicate as an expression leaf.
	BoolPred = boolq.Leaf
	// BoolAnd conjoins expressions.
	BoolAnd = boolq.And
	// BoolOr disjoins expressions.
	BoolOr = boolq.Or
	// BoolNot negates an expression.
	BoolNot = boolq.Not
)

// Streaming adaptation (Section 7 "Queries over data streams").
type (
	// AdaptiveExecutor runs a continuous query over a stream, maintaining
	// statistics over a sliding window and replacing its conditional plan
	// when a freshly planned candidate is materially cheaper under the
	// current window.
	AdaptiveExecutor = stream.Adaptive
	// StreamConfig tunes the adaptive executor.
	StreamConfig = stream.Config
	// StreamWindow is the sliding statistics window.
	StreamWindow = stream.Window
)

// NewAdaptive creates an adaptive stream executor seeded with historical
// data.
var NewAdaptive = stream.NewAdaptive

// Sensor-network simulation (Figure 4 architecture).
type (
	// Network is a simulated mote deployment executing one continuous
	// query.
	Network = sensornet.Network
	// RadioModel prices radio traffic.
	RadioModel = sensornet.RadioModel
	// Topology places motes in a routing tree.
	Topology = sensornet.Topology
	// NetworkStats summarizes a simulation run.
	NetworkStats = sensornet.Stats
)

var (
	// NewNetwork builds a simulated deployment.
	NewNetwork = sensornet.New
	// LineTopology chains motes: mote m is m+1 hops out.
	LineTopology = sensornet.LineTopology
	// StarTopology puts all motes one hop from the basestation.
	StarTopology = sensornet.StarTopology
	// DefaultRadio is a radio costing well under one acquisition per
	// plan byte.
	DefaultRadio = sensornet.DefaultRadio
)

// Dataset simulators (stand-ins for the paper's Lab and Garden traces and
// the Babu et al. synthetic generator; see DESIGN.md for the
// substitutions).
type (
	// LabConfig parameterizes the simulated lab deployment.
	LabConfig = datagen.LabConfig
	// GardenConfig parameterizes the simulated forest deployment.
	GardenConfig = datagen.GardenConfig
	// SynthConfig parameterizes the Babu-et-al synthetic generator.
	SynthConfig = datagen.SynthConfig
)

var (
	// GenerateLab produces the simulated lab dataset.
	GenerateLab = datagen.Lab
	// LabSchema returns the lab schema for a configuration.
	LabSchema = datagen.LabSchema
	// GenerateGarden produces the simulated forest dataset.
	GenerateGarden = datagen.Garden
	// GardenSchema returns the garden schema for a configuration.
	GardenSchema = datagen.GardenSchema
	// GenerateSynthetic produces the synthetic dataset.
	GenerateSynthetic = datagen.Synthetic
	// SynthSchema returns the synthetic schema for a configuration.
	SynthSchema = datagen.SynthSchema
	// SynthQuery returns the all-expensive-attributes query the paper
	// uses with the synthetic dataset.
	SynthQuery = datagen.SynthQuery
)

// Lab attribute indexes (for the schema returned by LabSchema).
const (
	LabHour     = datagen.LabHour
	LabNodeID   = datagen.LabNodeID
	LabVoltage  = datagen.LabVoltage
	LabLight    = datagen.LabLight
	LabTemp     = datagen.LabTemp
	LabHumidity = datagen.LabHumidity
)
