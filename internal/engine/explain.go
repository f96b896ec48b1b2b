package engine

import (
	"fmt"
	"strings"
	"time"

	"starmagic/internal/core"
	"starmagic/internal/plan"
	"starmagic/internal/qgm"
	"starmagic/internal/rewrite"
)

// ExplainInfo is the structured account of one query's trip through the
// paper's Figure 2/3 pipeline: a timed entry per phase (parse, bind, the
// three rewrite phases, both plan-optimization passes, and — after
// execution — the run itself), per-rule attempt/fire counts, the §3.2 cost
// comparison and its winner, and the plan optimizer's join orders. QGM
// snapshots (the Figure 4 panels) are attached to the rewrite phases when
// captured (ExplainContext always captures them; WithSnapshots opts a
// QueryContext call in). String renders the whole thing as text.
type ExplainInfo struct {
	Query    string
	Strategy Strategy
	// Phases in pipeline order. Entries with HasSnapshot carry the QGM
	// graph as it stood after that phase.
	Phases []PhaseInfo
	// Rules tallies rewrite-rule activity across all rewrite phases.
	Rules []rewrite.RuleStat
	// CostBefore/CostAfter are the §3.2 plan-cost estimates around EMST,
	// and UsedEMST is the comparison's winner. For strategies that skip the
	// comparison both costs describe the only plan produced.
	CostBefore, CostAfter float64
	UsedEMST              bool
	// PlansConsidered sums join orders examined across plan optimizations.
	PlansConsidered int
	// JoinOrders lists the chosen quantifier order per multi-quantifier
	// select box of the executed plan.
	JoinOrders []JoinOrder
	// PlanDOT is the Graphviz rendering of the executed plan (captured with
	// the snapshots).
	PlanDOT string
	// Params is the number of `?` placeholders the query declares. Their
	// values are unknown at plan time, so predicates over them use the
	// optimizer's default selectivities.
	Params int
	// CacheStatus reports how the plan cache served this prepare: "hit",
	// "miss" (optimized cold and stored), "reopt" (execution feedback
	// re-optimized a cached plan with observed cardinalities injected), or
	// "bypass" (cache disabled or a tracer was attached). CacheEpoch is the
	// catalog epoch the plan is valid for.
	CacheStatus string
	CacheEpoch  uint64

	// phys is the lowered physical plan, kept raw so that Physical and
	// Operators render only when read; a cached plan holds no text.
	phys *plan.Plan
}

// Physical renders the lowered physical operator tree with cardinality
// estimates only (per-operator execution counters appear on
// Result.Plan.Physical() after a run). The text is built on each call.
func (e *ExplainInfo) Physical() string {
	if e.phys == nil {
		return ""
	}
	return e.phys.String()
}

// Operators is the structured form of Physical, built on each call.
func (e *ExplainInfo) Operators() []plan.OpReport {
	if e.phys == nil {
		return nil
	}
	return e.phys.Report(nil)
}

// PhaseInfo is one pipeline phase: its wall-clock and, for rewrite phases
// with snapshots captured, the QGM graph after it.
type PhaseInfo struct {
	Name     string
	Duration time.Duration
	// HasSnapshot marks phases whose Boxes/Dump/DOT fields are populated.
	HasSnapshot bool
	Boxes       qgm.Stats
	Dump        string
	DOT         string
}

// JoinOrder is the plan optimizer's chosen quantifier order in one box.
type JoinOrder struct {
	Box   string
	Order []string
}

// Phase returns the first phase with the given name, if any.
func (e *ExplainInfo) Phase(name string) (PhaseInfo, bool) {
	for _, p := range e.Phases {
		if p.Name == name {
			return p, true
		}
	}
	return PhaseInfo{}, false
}

// RuleFires returns the fire count of one rewrite rule (0 if it never ran).
func (e *ExplainInfo) RuleFires(rule string) int64 {
	for _, r := range e.Rules {
		if r.Rule == rule {
			return r.Fires
		}
	}
	return 0
}

// String renders the explain output: the QGM graph after each captured
// phase (the paper's Figure 4 panels), per-phase timings, rule-fire counts,
// the cost comparison, and the executed plan's join orders.
func (e *ExplainInfo) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "strategy: %s\n", e.Strategy)
	if e.CacheStatus != "" {
		fmt.Fprintf(&sb, "cache: %s (epoch %d)\n", e.CacheStatus, e.CacheEpoch)
	}
	if e.Params > 0 {
		fmt.Fprintf(&sb, "parameters: %d (planned with default selectivities)\n", e.Params)
	}
	for _, p := range e.Phases {
		if !p.HasSnapshot {
			continue
		}
		fmt.Fprintf(&sb, "-- %s -- (%s)\n%s\n", p.Name, p.Boxes, p.Dump)
	}
	if len(e.Phases) > 0 {
		sb.WriteString("phases:\n")
		for _, p := range e.Phases {
			if p.Name == "initial" {
				continue // a snapshot, not work
			}
			fmt.Fprintf(&sb, "  %-10s %v\n", p.Name, p.Duration)
		}
	}
	if len(e.Rules) > 0 {
		sb.WriteString("rules:\n")
		for _, r := range e.Rules {
			fmt.Fprintf(&sb, "  %-22s fires=%-4d attempts=%d\n", r.Rule, r.Fires, r.Attempts)
		}
	}
	if e.Strategy != Correlated {
		fmt.Fprintf(&sb, "cost before EMST: %.1f\ncost after EMST:  %.1f\nexecuting: ", e.CostBefore, e.CostAfter)
		if e.UsedEMST {
			sb.WriteString("EMST plan\n")
		} else {
			sb.WriteString("pre-EMST plan\n")
		}
	}
	if len(e.JoinOrders) > 0 {
		sb.WriteString("join orders:\n")
		for _, jo := range e.JoinOrders {
			fmt.Fprintf(&sb, "  %s: %s\n", jo.Box, strings.Join(jo.Order, " "))
		}
	}
	if phys := e.Physical(); phys != "" {
		sb.WriteString("physical plan:\n")
		for _, line := range strings.Split(strings.TrimRight(phys, "\n"), "\n") {
			sb.WriteString("  " + line + "\n")
		}
	}
	return sb.String()
}

// addPipelinePhases merges a pipeline result's stage timings and snapshots
// into phase entries, appended after any already present (parse, bind).
func (e *ExplainInfo) addPipelinePhases(res *core.Result) {
	snaps := map[string]core.Snapshot{}
	for _, s := range res.Snapshots {
		snaps[s.Name] = s
	}
	attach := func(p PhaseInfo) PhaseInfo {
		if s, ok := snaps[p.Name]; ok {
			p.HasSnapshot = true
			p.Boxes = s.Stats
			p.Dump = s.Dump
			p.DOT = s.DOT
		}
		return p
	}
	if _, ok := snaps["initial"]; ok {
		e.Phases = append(e.Phases, attach(PhaseInfo{Name: "initial"}))
	}
	for _, t := range res.Phases {
		e.Phases = append(e.Phases, attach(PhaseInfo{Name: t.Name, Duration: t.Duration}))
	}
	e.Rules = res.RuleStats
}

// joinOrders extracts the plan optimizer's chosen quantifier order per
// multi-quantifier select box.
func joinOrders(g *qgm.Graph) []JoinOrder {
	var out []JoinOrder
	for _, b := range g.Reachable() {
		if b.Kind != qgm.KindSelect || len(b.Quantifiers) < 2 {
			continue
		}
		jo := JoinOrder{Box: b.Name}
		for _, q := range b.OrderedQuantifiers() {
			jo.Order = append(jo.Order, q.Name)
		}
		out = append(out, jo)
	}
	return out
}
