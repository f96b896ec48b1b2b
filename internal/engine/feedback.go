package engine

// Execution feedback: after each fully-drained execution of a cached plan,
// the per-operator actual row counts are folded into an EMA attached to the
// plan-cache entry. When the worst estimate-vs-actual q-error crosses
// qErrorThreshold, the entry is marked and the next prepare of the same
// statement re-optimizes it with the observed cardinalities injected as
// estimates (opt.Estimator.Hints, keyed by opt.HintKey: the QGM box name —
// deterministic across re-plans of the same SQL — plus the adornment of an
// EMST copy). This is the adaptive half of the paper's
// §3.2 cost comparison: the magic-vs-no-magic choice hinges on selectivities,
// and where histograms still mis-estimate (cross-column correlation,
// parameter-dependent skew) the observed cardinalities correct the model.

import (
	"sync"

	"starmagic/internal/opt"
	"starmagic/internal/plan"
)

const (
	// emaKeep/emaObserve smooth observed cardinalities:
	// new = 0.7*old + 0.3*observed. One outlier run (a mid-load execution)
	// cannot swing the learned value; a real shift converges in a few runs.
	emaKeep    = 0.7
	emaObserve = 0.3
	// qErrorThreshold marks a plan for re-optimization when any operator's
	// smoothed actual diverges from its estimate by more than 8x in either
	// direction.
	qErrorThreshold = 8.0
)

// feedbackState is the execution-feedback record shared by every per-call
// copy of one cached Prepared (withConfig copies the pointer).
type feedbackState struct {
	mu sync.Mutex
	// ema holds the smoothed actual output rows per plan node ID; NaN-free,
	// <0 means no observation yet.
	ema []float64
	// inherited carries box-name hints from the plan this one re-optimized
	// away from, so successive re-optimizations accumulate knowledge instead
	// of forgetting it.
	inherited map[string]float64
	// execs counts observed (fully drained) executions; maxQ is the worst
	// smoothed q-error as of the last observation.
	execs int64
	maxQ  float64
	// reopt marks the entry for re-optimization at its next prepare.
	reopt bool
}

func newFeedbackState(p *plan.Plan, inherited map[string]float64) *feedbackState {
	if p == nil {
		return nil
	}
	fb := &feedbackState{ema: make([]float64, len(p.Nodes)), inherited: inherited}
	for i := range fb.ema {
		fb.ema[i] = -1
	}
	return fb
}

// observe folds one fully-drained execution's per-operator actuals into the
// EMA and recomputes the worst smoothed q-error, marking the plan for
// re-optimization when it crosses the threshold. It returns that q-error and
// whether this call newly marked the plan.
func (fb *feedbackState) observe(p *plan.Plan, stats []plan.OpStats) (maxQ float64, marked bool) {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	fb.execs++
	for _, n := range p.Nodes {
		if n.ID >= len(stats) || n.ID >= len(fb.ema) || stats[n.ID].Opens == 0 {
			continue
		}
		observed := float64(stats[n.ID].Rows)
		if fb.ema[n.ID] < 0 {
			fb.ema[n.ID] = observed
		} else {
			fb.ema[n.ID] = emaKeep*fb.ema[n.ID] + emaObserve*observed
		}
		if n.EstRows <= 0 {
			continue
		}
		if q := qError(n.EstRows, fb.ema[n.ID]); q > maxQ {
			maxQ = q
		}
	}
	fb.maxQ = maxQ
	if maxQ > qErrorThreshold && !fb.reopt {
		fb.reopt = true
		marked = true
	}
	return maxQ, marked
}

// qError is max(est/actual, actual/est) with both sides floored at one row.
func qError(est, actual float64) float64 {
	if est < 1 {
		est = 1
	}
	if actual < 1 {
		actual = 1
	}
	if est > actual {
		return est / actual
	}
	return actual / est
}

// takeReopt consumes the re-optimization mark: exactly one caller observes
// true and becomes the re-prepare leader.
func (fb *feedbackState) takeReopt() bool {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	if !fb.reopt {
		return false
	}
	fb.reopt = false
	return true
}

// hints renders the learned cardinalities as box key → rows for estimator
// injection: the smoothed actual of each named box's root operator, layered
// over the hints inherited from earlier re-optimizations (fresh observations
// win). Box names are assigned deterministically during binding and rewrite,
// so they address the same logical boxes in the re-built graph; names that
// do not reappear (a different EMST outcome) are simply unused there.
func (fb *feedbackState) hints(p *plan.Plan) map[string]float64 {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	out := make(map[string]float64, len(fb.inherited)+8)
	for name, v := range fb.inherited {
		out[name] = v
	}
	for _, n := range p.Nodes {
		// Members of a fixpoint's seed and delta trees run once per round;
		// their summed rows are no box's cardinality.
		if !n.BoxRoot || n.Box == nil || n.Box.Name == "" || n.Fixpoint != nil {
			continue
		}
		if n.ID < len(fb.ema) && fb.ema[n.ID] >= 0 {
			out[opt.HintKey(n.Box)] = fb.ema[n.ID]
		}
	}
	return out
}

// snapshot returns the state for tooling (`.feedback stats`).
func (fb *feedbackState) snapshot() (execs int64, maxQ float64, pending bool) {
	if fb == nil {
		return 0, 0, false
	}
	fb.mu.Lock()
	defer fb.mu.Unlock()
	return fb.execs, fb.maxQ, fb.reopt
}
