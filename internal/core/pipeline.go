package core

import (
	"context"
	"fmt"
	"time"

	"starmagic/internal/datum"
	"starmagic/internal/obs"
	"starmagic/internal/opt"
	"starmagic/internal/plan"
	"starmagic/internal/qgm"
	"starmagic/internal/rewrite"
)

// Options configures the optimization pipeline.
type Options struct {
	// SkipEMST runs only phase-1 rewrite plus plan optimization (the
	// "Original" strategy of Table 1).
	SkipEMST bool
	// Snapshots records a dump of the graph after each phase (qgmviz and
	// the Figure 1/4 tests read them).
	Snapshots bool
	// Validate runs Graph.Check after every rule application.
	Validate bool
	// Trace receives one line per rule application when non-nil.
	Trace func(rule string, box *qgm.Box)
	// Ctx, when non-nil, is polled at stage boundaries so a cancelled or
	// timed-out query stops optimizing early.
	Ctx context.Context
	// Tracer, when non-nil, receives one span per pipeline stage (the
	// boxes of Figures 2 and 3): phase1, plan-opt1, phase2, phase3,
	// plan-opt2.
	Tracer obs.Tracer

	// Est configures the estimators used by both plan-optimization passes
	// and by lowering: execution-feedback cardinality hints (box name →
	// observed rows) and the flat-statistics mode that ignores histograms.
	Est EstimatorConfig
	// ForceEMST executes the post-EMST plan even when the cost comparison
	// favors the pre-EMST one. A/B benchmarks and the skewed-plan oracle use
	// it to measure the runtime of the strategy the optimizer rejected.
	ForceEMST bool

	// Ablations disable individual design choices for the ablation study
	// (cmd/table1 -ablation); all false in normal operation.
	Ablations Ablations
}

// EstimatorConfig selects how the pipeline's estimators are constructed.
// Each optimization pass gets a fresh estimator (memoized cardinalities must
// not survive graph rewrites) built from this shared configuration.
type EstimatorConfig struct {
	// Hints maps qgm box names to observed output cardinalities; see
	// opt.Estimator.Hints.
	Hints map[string]float64
	// NoHist disables histogram probes (flat-default selectivities).
	NoHist bool
	// Params are peeked bindings of the query's `?` placeholders, read by
	// estimates only; see opt.Estimator.Params.
	Params datum.Row
}

func (c EstimatorConfig) new() *opt.Estimator {
	e := opt.NewEstimatorWith(c.Hints, c.NoHist)
	e.Params = c.Params
	return e
}

// Ablations switches off individual EMST design decisions so their
// contribution can be measured.
type Ablations struct {
	// NoSupplementary: magic boxes re-join the eligible prefix instead of
	// sharing it through a supplementary-magic-box.
	NoSupplementary bool
	// NoDistinctPullup: magic tables keep their enforced DISTINCT, which
	// also blocks the phase-3 merges that depend on the inference.
	NoDistinctPullup bool
	// NoPhase3: deliver the raw phase-2 magic graph without simplification
	// (how deductive-database implementations left it, §1).
	NoPhase3 bool
	// DeclarationOrderSIPS: ignore the plan optimizer's join orders and
	// adorn in declaration order (what systems without cost-based sips do,
	// §2: "deductive database systems don't do any cost-based optimization
	// to determine the join orders needed for magic").
	DeclarationOrderSIPS bool
}

// Snapshot is the state of the graph after one pipeline stage.
type Snapshot struct {
	Name  string
	Stats qgm.Stats
	Dump  string
	// DOT is the Graphviz rendering of the same graph (cmd/qgmviz -dot).
	DOT string
}

// Result reports what the pipeline did.
type Result struct {
	// Graph is the graph to execute (the transformed graph, or the
	// pre-EMST graph when the cost comparison favored it).
	Graph *qgm.Graph
	// Physical is Graph lowered into the physical operator tree the
	// streaming executor runs (the "lower" stage).
	Physical *plan.Plan
	// UsedEMST reports whether the executed plan is the EMST-transformed
	// one.
	UsedEMST bool
	// CostBefore/CostAfter are the optimizer's estimates for the pre- and
	// post-EMST plans (§3.2 step 5).
	CostBefore, CostAfter float64
	// PlansConsidered sums join orders examined across both plan-
	// optimization invocations.
	PlansConsidered int
	// Snapshots, when requested, holds the graph after each phase.
	Snapshots []Snapshot
	// Phases records wall-clock per pipeline stage in execution order
	// (phase1, plan-opt1, phase2, phase3, plan-opt2, lower).
	Phases []PhaseTiming
	// RuleStats tallies rewrite-rule attempts and fires across all rewrite
	// phases of this optimization.
	RuleStats []rewrite.RuleStat
}

// PhaseTiming is the wall-clock of one pipeline stage.
type PhaseTiming struct {
	Name     string
	Duration time.Duration
}

// Optimize runs the paper's optimization architecture (Figures 2 and 3):
//
//	phase-1 query rewrite (no EMST; rules that need no join orders)
//	plan optimization            → join orders + cost of the no-EMST plan
//	phase-2 query rewrite        → the EMST rule, using those join orders
//	phase-3 query rewrite        → simplify the magic graph (EMST disabled)
//	plan optimization            → cost of the EMST plan
//	cost comparison              → execute the cheaper plan
//
// The back edge from plan optimization to query rewrite in Figure 2 is the
// call sequence here. The guarantee (§3.2): usage of the EMST rule cannot
// degrade the query plan produced without it.
func Optimize(g *qgm.Graph, o Options) (*Result, error) {
	res := &Result{}
	stats := &rewrite.Stats{}
	defer func() { res.RuleStats = stats.Snapshot() }()
	snap := func(name string) {
		if o.Snapshots {
			res.Snapshots = append(res.Snapshots, Snapshot{
				Name:  name,
				Stats: g.Stats(),
				Dump:  g.Dump(),
				DOT:   g.DumpDOT(name),
			})
		}
	}
	// stage wraps one pipeline box of Figure 2/3 in a span and a timing
	// entry, checking for cancellation before starting the work.
	stage := func(name string, f func() error) error {
		if o.Ctx != nil {
			if err := o.Ctx.Err(); err != nil {
				return err
			}
		}
		sp := obs.Start(o.Tracer, name)
		start := time.Now()
		err := f()
		sp.End()
		res.Phases = append(res.Phases, PhaseTiming{Name: name, Duration: time.Since(start)})
		return err
	}
	snap("initial")

	// Phase 1: rewrite rules that do not depend on join orders.
	if err := stage("phase1", func() error {
		return runPhase(g, o, stats, Phase1Rules()...)
	}); err != nil {
		return res, fmt.Errorf("phase 1: %w", err)
	}
	snap("phase1")

	// Plan optimization #1: join orders for EMST, and the no-EMST cost.
	var r1 opt.Result
	if err := stage("plan-opt1", func() error {
		r1 = opt.OptimizeEst(g, o.Est.new())
		return nil
	}); err != nil {
		return res, err
	}
	res.CostBefore = r1.Cost
	res.PlansConsidered += r1.PlansConsidered

	if o.SkipEMST {
		res.Graph = g
		res.CostAfter = r1.Cost
		err := stage("lower", func() error {
			res.Physical = plan.LowerWith(res.Graph, o.Est.new())
			return nil
		})
		return res, err
	}

	// Keep the pre-EMST plan for the cost comparison.
	fallback := g.CloneGraph()

	if o.Ablations.DeclarationOrderSIPS {
		for _, b := range g.Reachable() {
			b.JoinOrder = nil
		}
	}

	// Phase 2: EMST plus the join-order-independent rules (the paper keeps
	// graph-simplifying merges for phase 3).
	if err := stage("phase2", func() error {
		emst := NewEMSTRule()
		emst.NoSupplementary = o.Ablations.NoSupplementary
		phase2 := []rewrite.Rule{emst, rewrite.LocalPushdownRule{}}
		if !o.Ablations.NoDistinctPullup {
			phase2 = append(phase2, rewrite.DistinctPullupRule{})
		}
		return runPhase(g, o, stats, phase2...)
	}); err != nil {
		return res, fmt.Errorf("phase 2: %w", err)
	}
	clearMagicLinks(g)
	snap("phase2")

	// Phase 3: simplify the magic graph; EMST disabled.
	if err := stage("phase3", func() error {
		if o.Ablations.NoPhase3 {
			return nil
		}
		phase3 := Phase3Rules()
		if o.Ablations.NoDistinctPullup {
			phase3 = withoutRule(phase3, rewrite.DistinctPullupRule{}.Name())
		}
		return runPhase(g, o, stats, phase3...)
	}); err != nil {
		return res, fmt.Errorf("phase 3: %w", err)
	}
	snap("phase3")

	// Plan optimization #2 and the cost comparison.
	var r2 opt.Result
	if err := stage("plan-opt2", func() error {
		r2 = opt.OptimizeEst(g, o.Est.new())
		return nil
	}); err != nil {
		return res, err
	}
	res.CostAfter = r2.Cost
	res.PlansConsidered += r2.PlansConsidered
	if o.ForceEMST || r2.Cost <= r1.Cost {
		res.Graph = g
		res.UsedEMST = true
	} else {
		res.Graph = fallback
	}

	// Lowering: the winning graph plus its chosen join orders become the
	// physical operator tree the streaming executor runs.
	if err := stage("lower", func() error {
		res.Physical = plan.LowerWith(res.Graph, o.Est.new())
		return nil
	}); err != nil {
		return res, err
	}
	return res, nil
}

// Phase1Rules are the join-order-independent rewrite rules (§3.3): local
// predicate pushdown (the paper's "local magic" rule), duplicate-
// elimination pull-up, redundant join elimination, the merge rule, plus
// projection pruning and trivial-select cleanup.
func Phase1Rules() []rewrite.Rule {
	return []rewrite.Rule{
		rewrite.MergeRule{},
		rewrite.LocalPushdownRule{},
		rewrite.ProjectionPruneRule{},
		rewrite.DistinctPullupRule{},
		rewrite.RedundantJoinRule{},
		rewrite.TrivialSelectRule{},
	}
}

// Phase2Rules activate EMST alongside the rules it cooperates with; the
// merge rule stays disabled so the magic structure remains visible until
// phase 3 (Figure 3).
func Phase2Rules() []rewrite.Rule {
	return []rewrite.Rule{
		NewEMSTRule(),
		rewrite.LocalPushdownRule{},
		rewrite.DistinctPullupRule{},
	}
}

// Phase3Rules simplify the transformed graph with EMST disabled.
func Phase3Rules() []rewrite.Rule {
	return Phase1Rules()
}

func withoutRule(rules []rewrite.Rule, name string) []rewrite.Rule {
	var out []rewrite.Rule
	for _, r := range rules {
		if r.Name() != name {
			out = append(out, r)
		}
	}
	return out
}

func runPhase(g *qgm.Graph, o Options, stats *rewrite.Stats, rules ...rewrite.Rule) error {
	engine := rewrite.NewEngine(rules...)
	ctx := &rewrite.Context{G: g, Validate: o.Validate, Trace: o.Trace, Stats: stats}
	return engine.Run(ctx)
}

// clearMagicLinks drops the MagicBox/MagicCols bookkeeping once phase 2 is
// complete: the restrictions have been materialized as magic quantifiers
// and predicates; the links would otherwise pin boxes and block phase-3
// merges.
func clearMagicLinks(g *qgm.Graph) {
	for _, b := range g.Reachable() {
		b.MagicBox = nil
		b.MagicCols = nil
	}
	g.GC()
}
