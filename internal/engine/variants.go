package engine

// Bind-aware plan variants. A prepared statement is optimized once, before
// any binding is known, so every comparison between a column and a `?` is
// costed at a flat default — and the paper's §3.2 choice between the
// pre- and post-EMST plans is made blind to how selective the binding will
// be. A statement with such comparisons therefore keeps a small set of
// variants: each execution classes its bindings by ⌊log2 selectivity⌋ of
// every comparison, read from the column statistics, and runs the plan
// optimized for that class. A class seen for the first time is optimized
// cold through the full pipeline (single-flight), with the execution's
// bindings peeked by the estimator, so the §3.2 comparison runs again for
// it. Peeked values feed estimates only: every variant keeps its `?`
// nodes, so it is correct for any binding and only its cost depends on
// the class. The set holds at most maxVariants plans; once it is full,
// new classes run the generic plan.

import (
	"context"
	"errors"
	"math"
	"strconv"
	"strings"
	"sync"

	"starmagic/internal/datum"
	"starmagic/internal/opt"
	"starmagic/internal/plan"
)

// maxVariants bounds the plans one statement stores besides its generic
// plan.
const maxVariants = 8

// maxVariantCmps bounds the comparisons a signature classes: each takes
// selClassBits of a uint64.
const (
	selClassBits   = 5
	maxVariantCmps = 64 / selClassBits
	// selUnknown is the class of a comparison whose selectivity the
	// statistics cannot answer for the binding (NULL, no histogram): the
	// estimator then uses a flat default that ignores the value.
	selUnknown = 1<<selClassBits - 1
)

// variantSet is a statement's bind-aware plans. It hangs off Prepared by
// pointer, so the plan cache's per-call copies and wire statements that
// share one cached plan share one set.
type variantSet struct {
	query     string
	strategy  Strategy
	forceEMST bool
	cmps      []opt.ParamCmp
	// epoch is the catalog epoch the generic plan was bound under. DDL and
	// ANALYZE advance it; after that, a cold prepare of the query text
	// could bind to a different schema than the generic plan did, so no
	// new variant is built.
	epoch uint64

	mu sync.RWMutex
	m  map[uint64]*variant
}

// variant is one optimized plan, published before it exists: ready closes
// once the fields are set, and concurrent executions of the same class
// wait on it.
type variant struct {
	ready chan struct{}
	phys  *plan.Plan
	info  PlanInfo
	err   error
}

// newVariantSet returns the variant set of a plan prepared with cfg, or
// nil when its graph has no comparison a binding can move.
func newVariantSet(query string, cfg queryConfig, cmps []opt.ParamCmp, epoch uint64) *variantSet {
	if len(cmps) == 0 {
		return nil
	}
	return &variantSet{
		query:     query,
		strategy:  cfg.strategy,
		forceEMST: cfg.forceEMST,
		cmps:      cmps,
		epoch:     epoch,
		m:         make(map[uint64]*variant, maxVariants),
	}
}

// signature classes each comparison under bound: selectivity s becomes
// -⌊log2 s⌋, packed selClassBits per comparison.
func (vs *variantSet) signature(bound datum.Row, noHist bool) uint64 {
	var sig uint64
	for _, c := range vs.cmps {
		sig = sig<<selClassBits | selClass(c.Sel(bound[c.Param], noHist))
	}
	return sig
}

func selClass(sel float64, ok bool) uint64 {
	if !ok {
		return selUnknown
	}
	// Selectivities lie in [0, 1]; 0 (a value no bucket holds) reads +Inf.
	k := -math.Floor(math.Log2(sel))
	if !(k < selUnknown) {
		return selUnknown - 1
	}
	return uint64(k)
}

// variantName renders a signature as its log2 selectivity classes, one
// per comparison ("?" where the statistics could not answer).
func (vs *variantSet) variantName(sig uint64) string {
	parts := make([]string, len(vs.cmps))
	for i := len(parts) - 1; i >= 0; i-- {
		if c := sig & selUnknown; c == selUnknown {
			parts[i] = "?"
		} else {
			parts[i] = strconv.Itoa(-int(c))
		}
		sig >>= selClassBits
	}
	return "log2sel=" + strings.Join(parts, ",")
}

// pick returns the variant for bound's class, optimizing it on first use.
// It returns nil — run the generic plan — when the set can take no new
// variant (it is full, or the catalog epoch moved) or the variant could
// not be optimized.
func (vs *variantSet) pick(ctx context.Context, db *Database, bound datum.Row) *variant {
	sig := vs.signature(bound, db.noHist.Load())
	vs.mu.RLock()
	v, ok := vs.m[sig]
	vs.mu.RUnlock()
	if !ok {
		vs.mu.Lock()
		if v, ok = vs.m[sig]; !ok {
			if len(vs.m) >= maxVariants || db.epoch.Load() != vs.epoch {
				vs.mu.Unlock()
				db.metrics.RecordVariantOverflow()
				return nil
			}
			v = &variant{ready: make(chan struct{})}
			vs.m[sig] = v
		}
		vs.mu.Unlock()
		if !ok {
			db.metrics.RecordVariantMiss()
			vs.build(ctx, db, v, sig, bound)
			if v.err != nil {
				return nil
			}
			return v
		}
	}
	select {
	case <-v.ready:
	case <-ctx.Done():
		return nil // the execution fails on ctx itself
	}
	if v.err != nil {
		return nil
	}
	db.metrics.RecordVariantHit()
	return v
}

// build optimizes the variant for sig cold, with bound peeked by the
// estimator, and publishes it. A build cut short by ctx is dropped from the
// set so a later execution may retry; any other failure stays in the set
// and its class runs the generic plan.
func (vs *variantSet) build(ctx context.Context, db *Database, v *variant, sig uint64, bound datum.Row) {
	cfg := queryConfig{strategy: vs.strategy, forceEMST: vs.forceEMST, peek: bound}
	p, err := db.prepareCold(ctx, vs.query, cfg)
	// The epoch only grows and DDL advances it before releasing the lock
	// prepareCold binds under, so an unchanged epoch means the variant
	// bound to the generic plan's catalog.
	if err == nil && db.epoch.Load() != vs.epoch {
		err = errVariantStale
	}
	if err == nil {
		v.phys, v.info = p.phys, p.info
		v.info.Variant = vs.variantName(sig)
	}
	v.err = err
	close(v.ready)
	if err != nil && ctx.Err() != nil {
		vs.mu.Lock()
		if vs.m[sig] == v {
			delete(vs.m, sig)
		}
		vs.mu.Unlock()
	}
}

var errVariantStale = errors.New("plan variant: catalog changed since prepare")
