// Intra-query parallelism: bounded worker pools that (a) materialize
// independent closed quantifier subtrees of a box concurrently and (b) build
// transient join hash tables over row ranges. Both are behind
// Evaluator.Parallelism and preserve serial semantics exactly — workers use
// private caches, buffers, and Counters merged deterministically at join
// points, and hash buckets keep the serial row order.
package exec

import (
	"runtime"
	"sync"

	"starmagic/internal/datum"
	"starmagic/internal/qgm"
)

// parallelBuildMinRows is the minimum build side for a parallel hash build;
// below it the partition/merge overhead dominates.
const parallelBuildMinRows = 2048

// workerCount resolves Parallelism: 0/1 serial, negative = GOMAXPROCS.
func (ev *Evaluator) workerCount() int {
	switch {
	case ev.Parallelism < 0:
		return runtime.GOMAXPROCS(0)
	case ev.Parallelism == 0:
		return 1
	}
	return ev.Parallelism
}

// child returns a worker evaluator sharing the store and the snapshot view
// but nothing else; its caches and Counters are private until merged by the
// spawner. Children run serially so the pool size bounds total goroutines.
func (ev *Evaluator) child() *Evaluator {
	c := New(ev.store)
	c.view = ev.view // same snapshot: workers must agree on visibility
	c.MaxRows = ev.MaxRows
	c.MaxRecursion = ev.MaxRecursion
	c.Parallelism = 1
	c.Params = ev.Params
	// Children charge the same per-query budget; reservation is atomic, so
	// concurrent workers compose safely (their private Accounts do not).
	c.Mem = ev.Mem
	// Children poll the same context (with private tick counters), so a
	// cancelled query aborts its prefetch workers too.
	c.ctx, c.ctxDone = ev.ctx, ev.ctxDone
	return c
}

// prefetchClosed materializes the distinct closed, non-recursive quantifier
// subtrees of b concurrently, one child evaluator per subtree, and merges the
// children's memo tables and Counters into ev in subtree order. After it
// returns, the serial join machinery finds every prefetched box memoized, so
// row order and results are identical to serial evaluation. Each subtree gets
// its own child (rather than sharing one per worker) so the work done — and
// therefore the merged counter totals — do not depend on goroutine
// scheduling.
func (ev *Evaluator) prefetchClosed(b *qgm.Box) error {
	boxes := make([]*qgm.Box, 0, len(b.Quantifiers))
	for _, q := range b.Quantifiers {
		boxes = append(boxes, q.Ranges)
	}
	return ev.prefetchBoxes(boxes)
}

// prefetchBoxes materializes the prefetchable members of boxes concurrently:
// distinct, closed, non-recursive, non-base, not already memoized. The
// streaming executor passes the subtrees its join stages will materialize
// anyway (hash build sides, nested-loop inners) — never the streamed driving
// stage, which would defeat early exit.
func (ev *Evaluator) prefetchBoxes(boxes []*qgm.Box) error {
	workers := ev.workerCount()
	if workers <= 1 || ev.NoSubqueryCache || len(ev.recActive) > 0 {
		return nil
	}
	var cands []*qgm.Box
	seen := map[*qgm.Box]bool{}
	for _, box := range boxes {
		if box == nil || seen[box] {
			continue
		}
		seen[box] = true
		if box.Recursive || box.Kind == qgm.KindBaseTable {
			continue
		}
		if _, ok := ev.memo[box]; ok {
			continue
		}
		if ev.inProgress[box] {
			continue // up-stack; the serial path will report the cycle
		}
		if len(ev.freeRefs(box)) != 0 {
			continue // correlated: must evaluate per binding
		}
		cands = append(cands, box)
	}
	if len(cands) < 2 {
		return nil // nothing to overlap
	}

	children := make([]*Evaluator, len(cands))
	errs := make([]error, len(cands))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, box := range cands {
		children[i] = ev.child()
		wg.Add(1)
		go func(i int, box *qgm.Box) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			_, errs[i] = children[i].EvalBox(box, children[i].rootEnv())
		}(i, box)
	}
	wg.Wait()

	for i, c := range children {
		if errs[i] != nil {
			return errs[i]
		}
		ev.Counters.Add(c.Counters)
		// Adopt everything the child materialized, nested shared boxes
		// included. Closedness is a static graph property, so any box the
		// child memoized is closed for ev too; first writer wins (identical
		// content either way, since evaluation is deterministic).
		for bx, rows := range c.memo {
			if _, ok := ev.memo[bx]; !ok {
				ev.memoInsert(bx, rows)
			}
		}
		// The parent now owns (and has re-charged) the adopted entries;
		// release the worker's reservations.
		c.clearCacheCharges()
	}
	if ev.MaxRows > 0 && ev.Counters.OutputRows > ev.MaxRows {
		return errRowBudget(ev.Counters.OutputRows)
	}
	return nil
}

// hashBuilder accumulates join hash buckets with interned key strings: bucket
// lookup is allocation-free (map index with string(buf)); a key string is
// allocated once per distinct key, not per row.
type hashBuilder struct {
	idx     map[string]int
	buckets [][]datum.Row
}

func newHashBuilder(hint int) *hashBuilder {
	return &hashBuilder{idx: make(map[string]int, hint)}
}

func (hb *hashBuilder) add(key []byte, row datum.Row) {
	if i, ok := hb.idx[string(key)]; ok {
		hb.buckets[i] = append(hb.buckets[i], row)
		return
	}
	hb.idx[string(key)] = len(hb.buckets)
	hb.buckets = append(hb.buckets, []datum.Row{row})
}

// table returns the builder's buckets as a join hash table sized by the
// distinct-key count. The buckets move into the table without a copy.
func (hb *hashBuilder) table() map[string][]datum.Row {
	ht := make(map[string][]datum.Row, len(hb.buckets))
	for k, i := range hb.idx {
		ht[k] = hb.buckets[i]
	}
	return ht
}

// mergeInto appends the builder's buckets into dst. Called per builder in
// partition order, it reproduces exactly the bucket row order of a serial
// build.
func (hb *hashBuilder) mergeInto(dst map[string][]datum.Row) {
	for k, i := range hb.idx {
		dst[k] = append(dst[k], hb.buckets[i]...)
	}
}

// buildHashRange fills hb with the rows of one partition, keyed by keyExprs
// evaluated with q bound to each row. env must be private to the caller.
func buildHashRange(hb *hashBuilder, q *qgm.Quantifier, keyExprs []qgm.Expr, rows []datum.Row, env Env) error {
	buf := make([]byte, 0, 64)
	for _, row := range rows {
		env[q] = row
		buf = buf[:0]
		null := false
		for _, e := range keyExprs {
			v, err := EvalExpr(e, env)
			if err != nil {
				return err
			}
			if v.IsNull() {
				null = true
				break
			}
			buf = v.AppendKey(buf)
		}
		if null {
			continue // equality never matches NULL
		}
		hb.add(buf, row)
	}
	return nil
}

// buildHashTable builds the transient join hash table for quantifier q over
// rows. Large builds are partitioned into contiguous row ranges built by
// concurrent workers and merged in range order, so the result is
// byte-identical to a serial build.
func (ev *Evaluator) buildHashTable(q *qgm.Quantifier, keyExprs []qgm.Expr, rows []datum.Row, cur Env) (map[string][]datum.Row, error) {
	workers := ev.workerCount()
	if n := len(rows) / parallelBuildMinRows; workers > n {
		workers = n // at least parallelBuildMinRows rows per worker
	}
	if workers <= 1 {
		// The key count is unknown up front and usually far below the row
		// count, so the index grows as keys arrive instead of being sized
		// by rows.
		hb := newHashBuilder(0)
		if err := buildHashRange(hb, q, keyExprs, rows, cur.clone()); err != nil {
			return nil, err
		}
		return hb.table(), nil
	}

	parts := make([]*hashBuilder, workers)
	errs := make([]error, workers)
	chunk := (len(rows) + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(rows) {
			hi = len(rows)
		}
		parts[w] = newHashBuilder(hi - lo)
		wg.Add(1)
		go func(w int, rows []datum.Row) {
			defer wg.Done()
			errs[w] = buildHashRange(parts[w], q, keyExprs, rows, cur.clone())
		}(w, rows[lo:hi])
	}
	wg.Wait()
	ht := make(map[string][]datum.Row, len(rows))
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			return nil, errs[w]
		}
		parts[w].mergeInto(ht)
	}
	return ht, nil
}
