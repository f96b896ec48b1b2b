package engine

import (
	"context"

	"starmagic/internal/plan"
)

// VariantCount reports how many bind-aware plan variants p's statement
// holds (0 when it has no variant set).
func VariantCount(p *Prepared) int {
	vs := p.variants
	if vs == nil {
		return 0
	}
	vs.mu.RLock()
	defer vs.mu.RUnlock()
	return len(vs.m)
}

// HasVariantSet reports whether p's statement takes the plan-variant path
// at all.
func HasVariantSet(p *Prepared) bool { return p.variants != nil }

// ExecutedPlan returns the physical plan an execution of p with args runs:
// the plan variant its bindings select, or p's own plan.
func ExecutedPlan(ctx context.Context, p *Prepared, args ...any) (*plan.Plan, error) {
	bound, err := toDatumRow(args)
	if err != nil {
		return nil, err
	}
	if p.variants != nil && !p.cfg.materialized {
		if v := p.variants.pick(ctx, p.db, bound); v != nil {
			return v.phys, nil
		}
	}
	return p.phys, nil
}

// WithSpoolsBridged returns a copy of p that executes pl with every spool
// node turned back into a bridge into the box-at-a-time evaluator: the plan
// shared boxes lowered to before the spool operator. Node IDs are kept, so
// per-node counters of the two executions line up.
func WithSpoolsBridged(p *Prepared, pl *plan.Plan) *Prepared {
	cp := &plan.Plan{Graph: pl.Graph, Nodes: make([]*plan.Node, len(pl.Nodes))}
	for i, n := range pl.Nodes {
		c := *n
		cp.Nodes[i] = &c
	}
	remap := func(n *plan.Node) *plan.Node {
		if n == nil {
			return nil
		}
		return cp.Nodes[n.ID]
	}
	for _, c := range cp.Nodes {
		if c.Kind == plan.OpSpool {
			c.Kind, c.Children = plan.OpBoxEval, nil
		}
		kids := make([]*plan.Node, len(c.Children))
		for i, k := range c.Children {
			kids[i] = remap(k)
		}
		c.Children = kids
		c.Stages = append([]plan.Stage(nil), c.Stages...)
		for i := range c.Stages {
			c.Stages[i].Child = remap(c.Stages[i].Child)
		}
		c.Subqs = append([]plan.Subquery(nil), c.Subqs...)
		for i := range c.Subqs {
			c.Subqs[i].Child = remap(c.Subqs[i].Child)
		}
		c.Fixpoint = remap(c.Fixpoint)
	}
	cp.Root = remap(pl.Root)
	out := *p
	out.phys, out.variants, out.fb = cp, nil, nil
	return &out
}
