// Streaming (Volcano-style) execution of physical plans: every operator
// implements an open/next/close iterator protocol over small row batches, so
// a consumer that stops pulling (LIMIT, a satisfied EXISTS) stops the whole
// spine, and memory is bounded by pipeline-breaker state (hash tables,
// group-by state, sort buffers, fixpoint deltas) rather than by
// intermediate-result size.
//
// The operators reuse the classic evaluator's machinery — expression
// evaluation, subquery memoization, partitioned parallel hash build, closed
// -subtree prefetch, the shared box memo — so a plan mixing streamed
// operators with box-eval bridges (correlated subtrees, extension
// kinds, non-linear recursion) stays consistent with box-at-a-time results.
// Shared boxes are spooled: drained once per execution into the same memo
// the bridges read, and replayed to every consumer.
package exec

import (
	"fmt"
	"sort"
	"time"

	"starmagic/internal/datum"
	"starmagic/internal/plan"
	"starmagic/internal/qgm"
	"starmagic/internal/storage"
	"starmagic/internal/vec"
)

// streamBatch is the row-batch granularity of the iterator protocol: big
// enough to amortize per-batch bookkeeping, small enough that early exit
// wastes little work.
const streamBatch = 64

// operator is the iterator protocol. next returns an empty batch at end of
// stream; returned batches are only valid until the following next call.
type operator interface {
	open() error
	next() ([]datum.Row, error)
	close() error
}

// rowStream streams a materialized row slice in batches.
type rowStream struct {
	rows []datum.Row
	pos  int
}

func (s *rowStream) reset(rows []datum.Row) { s.rows, s.pos = rows, 0 }

func (s *rowStream) nextBatch() []datum.Row {
	if s.pos >= len(s.rows) {
		return nil
	}
	end := min(s.pos+streamBatch, len(s.rows))
	batch := s.rows[s.pos:end]
	s.pos = end
	return batch
}

// EvalPlan executes a physical plan and returns the result rows plus
// per-operator statistics indexed by plan node ID. It is the materializing
// form of OpenPlan: the whole result is drained into one slice. Counters
// accounting matches the box-at-a-time evaluator's shape (BoxEvals and
// OutputRows once per box, BaseRows for rows actually read — which streaming
// makes smaller under early exit), and MaxRows/context cancellation are
// enforced at batch granularity.
func (ev *Evaluator) EvalPlan(p *plan.Plan) ([]datum.Row, []plan.OpStats, error) {
	it, err := ev.OpenPlan(p)
	if err != nil {
		if it != nil {
			return nil, it.Stats(), err
		}
		return nil, nil, err
	}
	var out []datum.Row
	for {
		batch, err := it.Next()
		if err != nil {
			_ = it.Close()
			return nil, it.Stats(), err
		}
		if len(batch) == 0 {
			break
		}
		out = append(out, batch...)
	}
	if err := it.Close(); err != nil {
		return nil, it.Stats(), err
	}
	return out, it.Stats(), nil
}

// PlanIter is one streaming execution of a physical plan: a pull cursor over
// the root operator's batches. It is the executor's half of the engine's Rows
// API — batches flow from here into result cursors and wire-protocol packets
// without the full result ever materializing.
//
// A PlanIter must be Closed exactly once (Close is idempotent); closing
// before the stream is drained stops the whole operator spine early, which is
// what client-side early exit (a dropped connection, a cursor closed after
// the first page) relies on to not pay for rows never read.
type PlanIter struct {
	run    *planRun
	root   operator
	done   bool
	closed bool
}

// OpenPlan builds the plan's operator tree and opens it. On an open failure
// the partially opened tree is closed and the returned iterator is nil except
// for its statistics, which the caller may still inspect via a non-nil it.
func (ev *Evaluator) OpenPlan(p *plan.Plan) (*PlanIter, error) {
	if err := ev.ctxErr(); err != nil {
		return nil, err
	}
	run := &planRun{ev: ev, stats: make([]plan.OpStats, len(p.Nodes))}
	it := &PlanIter{run: run, root: run.build(p.Root)}
	if err := it.root.open(); err != nil {
		_ = it.Close()
		return it, err
	}
	return it, nil
}

// Next returns the next batch of result rows, or an empty batch at end of
// stream. The returned slice is only valid until the following Next call; the
// rows it holds are stable. After an error or end of stream every further
// call returns the same terminal state.
func (it *PlanIter) Next() ([]datum.Row, error) {
	if it.done || it.closed {
		return nil, nil
	}
	batch, err := it.root.next()
	if err != nil {
		it.done = true
		return nil, err
	}
	if len(batch) == 0 {
		it.done = true
	}
	return batch, nil
}

// Close releases the operator tree (hash tables, spill files, bridged box
// state). It is idempotent and safe to call mid-stream.
func (it *PlanIter) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	it.done = true
	return it.root.close()
}

// Stats returns the per-node operator statistics accumulated so far, indexed
// by plan node ID. The slice is live until Close; callers wanting a final
// snapshot read it after Close.
func (it *PlanIter) Stats() []plan.OpStats { return it.run.stats }

// addOutput accounts rows produced by a box-root operator and enforces the
// row budget, mirroring evalBoxNow's accounting.
func (ev *Evaluator) addOutput(n int) error {
	ev.Counters.OutputRows += int64(n)
	if ev.MaxRows > 0 && ev.Counters.OutputRows > ev.MaxRows {
		return errRowBudget(ev.Counters.OutputRows)
	}
	return nil
}

// planRun is one execution of a plan: the operator instances and their
// per-node statistics (plans are shared across concurrent executions; all
// mutable state lives here and in the evaluator).
type planRun struct {
	ev    *Evaluator
	stats []plan.OpStats
	// fix holds the state of each semi-naive fixpoint while it runs, keyed
	// by its OpFixpoint node (see fixpoint.go).
	fix map[*plan.Node]*fixState
}

// spillNote returns the spill-event callback for node n, attributing spill
// counts and bytes to its OpStats (surfaced in EXPLAIN and obs OpSamples).
func (r *planRun) spillNote(n *plan.Node) func(int64) {
	st := &r.stats[n.ID]
	return func(b int64) {
		st.Spills++
		st.SpillBytes += b
	}
}

// build constructs the operator for a node, wrapped with instrumentation.
func (r *planRun) build(n *plan.Node) operator {
	var op operator
	switch n.Kind {
	case plan.OpScan:
		op = &scanOp{r: r, n: n}
	case plan.OpSelect:
		if v := r.tryVecSelect(n); v != nil {
			op = v
		} else {
			op = &selectPipeOp{r: r, n: n}
		}
	case plan.OpGroupBy:
		op = &groupByOp{r: r, n: n}
	case plan.OpUnion:
		op = &unionOp{r: r, n: n}
	case plan.OpIntersect, plan.OpExcept:
		op = &setOpOp{r: r, n: n}
	case plan.OpDistinct:
		op = &distinctOp{r: r, n: n, child: r.build(n.Children[0])}
	case plan.OpSort:
		op = &sortOp{r: r, n: n, child: r.build(n.Children[0])}
	case plan.OpLimit:
		op = &limitOp{r: r, n: n, child: r.build(n.Children[0])}
	case plan.OpTrim:
		op = &trimOp{r: r, n: n, child: r.build(n.Children[0])}
	case plan.OpFixpoint:
		if len(n.Children) > 0 {
			op = &fixpointOp{r: r, n: n}
		} else {
			op = &boxEvalOp{r: r, n: n}
		}
	case plan.OpDelta:
		op = &deltaOp{r: r, n: n}
	case plan.OpSpool:
		op = &spoolOp{r: r, n: n}
	default:
		op = &boxEvalOp{r: r, n: n}
	}
	return &instrumented{op: op, st: &r.stats[n.ID]}
}

// materialize fully evaluates a subtree (for hash build sides, nested-loop
// inners, and set-operation right inputs). Closed box-rooted subtrees go
// through — and populate — the evaluator's box memo, so shared work between
// streamed and bridged parts of a plan is still done once.
func (r *planRun) materialize(n *plan.Node) ([]datum.Row, error) {
	ev := r.ev
	if n.Kind == plan.OpBoxEval || n.Kind == plan.OpSpool || (n.Kind == plan.OpFixpoint && len(n.Children) == 0) {
		var rows []datum.Row
		var err error
		if n.Kind == plan.OpSpool {
			rows, err = r.materialize(n.Children[0])
		} else {
			rows, err = ev.EvalBox(n.Box, ev.rootEnv())
		}
		if err != nil {
			return nil, err
		}
		st := &r.stats[n.ID]
		st.Opens++
		st.Batches++
		st.Rows += int64(len(rows))
		return rows, nil
	}
	if n.Box != nil && !ev.NoSubqueryCache {
		if rows, ok := ev.memo[n.Box]; ok {
			return rows, nil
		}
	}
	// A bare scan materializes to the stored rows themselves — callers
	// treat the result as read-only, so skip the batch-append copy and
	// charge the same counters the streamed scan would.
	if n.Kind == plan.OpScan {
		rel, ok := ev.view.Relation(n.Box.Table.Name)
		if !ok {
			return nil, fmt.Errorf("exec: no storage for table %q", n.Box.Table.Name)
		}
		rows := rel.Rows()
		ev.Counters.BoxEvals++
		ev.Counters.BaseRows += int64(len(rows))
		if err := ev.addOutput(len(rows)); err != nil {
			return nil, err
		}
		st := &r.stats[n.ID]
		st.Opens++
		if len(rows) > 0 {
			st.Batches++
			st.Rows += int64(len(rows))
		}
		return rows, nil
	}
	var rows []datum.Row
	if err := r.drain(n, func(batch []datum.Row) error {
		rows = append(rows, batch...)
		return nil
	}); err != nil {
		return nil, err
	}
	// Streamed subtrees are closed by construction (lowering bridges
	// correlated boxes), so the result is safe to memoize. A fixpoint has
	// memoized its set itself.
	if n.Box != nil && !ev.NoSubqueryCache && n.Kind != plan.OpFixpoint {
		ev.memoInsert(n.Box, rows)
	}
	return rows, nil
}

// drain builds the operator tree at n, opens it, passes every batch to
// sink, and closes it.
func (r *planRun) drain(n *plan.Node, sink func([]datum.Row) error) error {
	op := r.build(n)
	err := op.open()
	for err == nil {
		var batch []datum.Row
		batch, err = op.next()
		if err != nil || len(batch) == 0 {
			break
		}
		err = sink(batch)
	}
	if cerr := op.close(); err == nil {
		err = cerr
	}
	return err
}

// instrumented wraps an operator with per-node counters: opens, batches,
// rows, and inclusive wall-clock time. It also makes close idempotent, so
// early closes (LIMIT) compose with the final tree close.
type instrumented struct {
	op     operator
	st     *plan.OpStats
	closed bool
}

func (w *instrumented) open() error {
	t := time.Now()
	err := w.op.open()
	w.st.Opens++
	w.st.Nanos += time.Since(t).Nanoseconds()
	return err
}

func (w *instrumented) next() ([]datum.Row, error) {
	t := time.Now()
	batch, err := w.op.next()
	w.st.Nanos += time.Since(t).Nanoseconds()
	if len(batch) > 0 {
		w.st.Batches++
		w.st.Rows += int64(len(batch))
	}
	return batch, err
}

func (w *instrumented) close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	t := time.Now()
	err := w.op.close()
	w.st.Nanos += time.Since(t).Nanoseconds()
	return err
}

// scanOp streams a base table in batches. BaseRows counts rows actually
// pulled, so early exit is visible in the counters.
type scanOp struct {
	r   *planRun
	n   *plan.Node
	out rowStream
}

func (s *scanOp) open() error {
	ev := s.r.ev
	rel, ok := ev.view.Relation(s.n.Box.Table.Name)
	if !ok {
		return fmt.Errorf("exec: no storage for table %q", s.n.Box.Table.Name)
	}
	s.out.reset(rel.Rows())
	ev.Counters.BoxEvals++
	return nil
}

func (s *scanOp) next() ([]datum.Row, error) {
	ev := s.r.ev
	if err := ev.ctxErr(); err != nil {
		return nil, err
	}
	batch := s.out.nextBatch()
	if len(batch) == 0 {
		return nil, nil
	}
	ev.Counters.BaseRows += int64(len(batch))
	if err := ev.addOutput(len(batch)); err != nil {
		return nil, err
	}
	return batch, nil
}

func (s *scanOp) close() error {
	s.out.reset(nil)
	return nil
}

// spoolOp reads a shared box. The first open in an execution drains the
// body through the streaming executor (materialize: the vectorized path
// where the body qualifies) into the evaluator's box memo, which charges it
// to the memory budget; every open replays the memoized rows. As with the
// bridge it replaces, a charge the budget denies leaves the rows unmemoized
// and the next reader drains the body again, and tuple-at-a-time mode
// (NoSubqueryCache) drains it per reader, so Counters match the bridge's.
type spoolOp struct {
	r   *planRun
	n   *plan.Node
	out rowStream
}

func (s *spoolOp) open() error {
	rows, err := s.r.materialize(s.n.Children[0])
	if err != nil {
		return err
	}
	s.out.reset(rows)
	return nil
}

func (s *spoolOp) next() ([]datum.Row, error) { return s.out.nextBatch(), nil }

func (s *spoolOp) close() error {
	s.out.reset(nil)
	return nil
}

// boxEvalOp bridges to the classic evaluator: OpBoxEval (correlated,
// extension) and childless OpFixpoint (non-linear recursion) nodes
// materialize through EvalBox — which handles memoization and naive
// fixpoint iteration — and stream the result out in batches. All Counters
// accounting happens inside EvalBox.
type boxEvalOp struct {
	r   *planRun
	n   *plan.Node
	out rowStream
}

func (o *boxEvalOp) open() error {
	rows, err := o.r.ev.EvalBox(o.n.Box, o.r.ev.rootEnv())
	if err != nil {
		return err
	}
	o.out.reset(rows)
	return nil
}

func (o *boxEvalOp) next() ([]datum.Row, error) { return o.out.nextBatch(), nil }

func (o *boxEvalOp) close() error {
	o.out.reset(nil)
	return nil
}

// stageState is the runtime state of one join-pipeline stage.
type stageState struct {
	st     *plan.Stage
	access plan.AccessKind // may be downgraded at runtime (missing index)
	// filters are the predicates applied with the stage quantifier bound
	// (residual; plus reconstructed key equalities after an index or
	// nested-loop downgrade).
	filters []qgm.Expr

	child     operator         // AccessStream
	rel       *storage.RelView // AccessIndex: snapshot-filtered probes
	probe     datum.Row        // AccessIndex probe buffer
	childRows []datum.Row      // materialized child (hash/scan)
	built     bool
	ht        map[string][]datum.Row

	// Budget-mode variants: sht replaces ht (spillable partitioned hash
	// table), buf replaces childRows (spillable nested-loop inner, replayed
	// through cur once per outer binding).
	sht *spillJoin
	buf *rowBuffer
	cur *rowCursor

	rows []datum.Row // current candidate rows for the outer binding
	idx  int
}

// subqState caches a first-match subquery verdict for the pipe's lifetime
// (the check is provably constant across outer bindings).
type subqState struct {
	valid bool
	val   bool
}

// selectPipeOp executes a select box's join pipeline: an odometer over the
// stages, binding each stage's quantifier to qualifying rows, then scalar
// subqueries, post-predicates, semi/anti-join checks, and projection.
type selectPipeOp struct {
	r *planRun
	n *plan.Node

	env    Env
	stages []stageState
	subqs  []subqState
	depth  int
	done   bool
	// fix is the enclosing fixpoint's state when the box is a member of a
	// recursive component: the operator is rebuilt every round, and stage
	// builds and first-match verdicts persist there between rounds.
	fix *fixState
	// oneShot handles a stage-less box (no ForEach quantifiers): exactly one
	// candidate binding is finished.
	oneShot bool
	// grace, when set, replaces the odometer: the pipeline switched to a
	// partition-wise grace join (see grace.go) and next() emits its merge.
	grace *graceJoin
}

func (p *selectPipeOp) open() error {
	ev := p.r.ev
	if p.n.BoxRoot {
		ev.Counters.BoxEvals++
	}
	p.env = ev.rootEnv()
	p.done = false
	p.grace = nil
	p.oneShot = len(p.n.Stages) == 0

	// Constant predicates: any non-TRUE empties the box.
	for _, pred := range p.n.ConstPreds {
		tv, err := EvalPred(pred, p.env)
		if err != nil {
			return err
		}
		if tv != datum.True {
			p.done = true
			return nil
		}
	}

	// Under parallelism, prefetch the closed subtrees the stages will
	// materialize anyway (hash build sides and nested-loop inners) — never
	// the streamed driving stage, which must stay pull-driven for early
	// exit. Skipped under a memory budget: prefetch materializes whole
	// subtrees into the (ungoverned) memo, defeating the bound; budget mode
	// streams build sides into governed spillable state instead.
	if ev.Mem == nil {
		var pre []*qgm.Box
		for i := range p.n.Stages {
			st := &p.n.Stages[i]
			if st.Access == plan.AccessHash || st.Access == plan.AccessScan {
				pre = append(pre, st.Quant.Ranges)
			}
		}
		if err := ev.prefetchBoxes(pre); err != nil {
			return err
		}
	}

	if p.n.Fixpoint != nil {
		p.fix = p.r.fix[p.n.Fixpoint]
	}
	p.stages = make([]stageState, len(p.n.Stages))
	for i := range p.n.Stages {
		st := &p.n.Stages[i]
		ss := &p.stages[i]
		if k := p.fix.keptStage(st.Quant); k != nil {
			*ss = *k
			continue
		}
		ss.st = st
		ss.access = st.Access
		ss.filters = st.Residual
		switch st.Access {
		case plan.AccessStream:
			ss.child = p.r.build(st.Child)
			if err := ss.child.open(); err != nil {
				return err
			}
		case plan.AccessIndex:
			rel, ok := ev.view.Relation(st.Quant.Ranges.Table.Name)
			if !ok {
				return fmt.Errorf("exec: no storage for table %q", st.Quant.Ranges.Table.Name)
			}
			ss.rel = rel
			ss.probe = make(datum.Row, len(st.KeyOther))
		}
	}
	p.subqs = make([]subqState, len(p.n.Subqs))
	if p.fix != nil {
		for i := range p.n.Subqs {
			p.subqs[i] = p.fix.verdicts[p.n.Subqs[i].Quant]
		}
	}
	p.depth = 0
	if len(p.stages) > 0 {
		return p.resetStage(0)
	}
	return nil
}

// buildSpillStage streams a hash stage's build side into a spillable
// partitioned hash table, charging the stage's rows to the query budget
// instead of materializing them unaccounted. Counter accounting matches the
// materializing build: the child subtree charges its own counters as it
// streams, and the build itself charges one HashBuilds.
func (p *selectPipeOp) buildSpillStage(ss *stageState) error {
	ev := p.r.ev
	ev.Counters.HashBuilds++
	sht := ev.newSpillJoin(p.r.spillNote(p.n))
	child := p.r.build(ss.st.Child)
	if err := child.open(); err != nil {
		child.close()
		sht.close()
		return err
	}
	q := ss.st.Quant
	buf := make([]byte, 0, 64)
	err := func() error {
		for {
			batch, err := child.next()
			if err != nil {
				return err
			}
			if len(batch) == 0 {
				return nil
			}
			for _, row := range batch {
				p.env[q] = row
				buf = buf[:0]
				null := false
				for _, e := range ss.st.KeyMine {
					v, err := EvalExpr(e, p.env)
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
				if err := sht.add(buf, row); err != nil {
					return err
				}
			}
		}
	}()
	delete(p.env, q)
	if cerr := child.close(); err == nil {
		err = cerr
	}
	if err != nil {
		sht.close()
		return err
	}
	ss.sht = sht
	return nil
}

// buildSpillScan streams a nested-loop inner into a spillable replayable
// row buffer.
func (p *selectPipeOp) buildSpillScan(ss *stageState) error {
	rb := p.r.ev.newRowBuffer("nl-inner", p.r.spillNote(p.n))
	child := p.r.build(ss.st.Child)
	if err := child.open(); err != nil {
		child.close()
		rb.close()
		return err
	}
	err := func() error {
		for {
			batch, err := child.next()
			if err != nil {
				return err
			}
			if len(batch) == 0 {
				return nil
			}
			for _, row := range batch {
				if err := rb.add(row); err != nil {
					return err
				}
			}
		}
	}()
	if cerr := child.close(); err == nil {
		err = cerr
	}
	if err != nil {
		rb.close()
		return err
	}
	ss.buf = rb
	return nil
}

// downgrade switches a stage whose index probe found no usable index to a
// hash join (build side big enough) or a nested loop with the key
// equalities as filters. The choice depends only on the store, so plans
// stay deterministic.
func (p *selectPipeOp) downgrade(ss *stageState) error {
	ev := p.r.ev
	if ev.Mem != nil {
		return p.downgradeSpill(ss)
	}
	rows, err := p.r.materialize(ss.st.Child)
	if err != nil {
		return err
	}
	if len(rows) > 4 {
		ss.access = plan.AccessHash
		ss.childRows = rows
		ev.Counters.HashBuilds++
		ss.ht, err = ev.buildHashTable(ss.st.Quant, ss.st.KeyMine, rows, p.env)
		if err != nil {
			return err
		}
		ss.built = true
		return nil
	}
	ss.access = plan.AccessScan
	ss.childRows = rows
	ss.built = true
	ss.filters = p.downgradeFilters(ss)
	return nil
}

// downgradeFilters reconstructs the key equalities as residual filters for
// a nested-loop downgrade.
func (p *selectPipeOp) downgradeFilters(ss *stageState) []qgm.Expr {
	filters := make([]qgm.Expr, 0, len(ss.st.Residual)+len(ss.st.KeyMine))
	filters = append(filters, ss.st.Residual...)
	for j := range ss.st.KeyMine {
		filters = append(filters, &qgm.Cmp{Op: datum.EQ, L: ss.st.KeyMine[j], R: ss.st.KeyOther[j]})
	}
	return filters
}

// downgradeSpill is downgrade under a memory budget: the child streams into
// a governed row buffer to learn its cardinality (never into the ungoverned
// memo), then either replays into a spillable hash table or stays a nested
// loop over the buffer.
func (p *selectPipeOp) downgradeSpill(ss *stageState) error {
	ev := p.r.ev
	if err := p.buildSpillScan(ss); err != nil {
		return err
	}
	if ss.buf.count <= 4 {
		ss.access = plan.AccessScan
		cur, err := ss.buf.cursor()
		if err != nil {
			return err
		}
		rows, err := cur.nextBatch(8)
		if err != nil {
			return err
		}
		ss.buf.close()
		ss.buf = nil
		ss.childRows = rows
		ss.built = true
		ss.filters = p.downgradeFilters(ss)
		return nil
	}
	ss.access = plan.AccessHash
	ev.Counters.HashBuilds++
	// Free the buffer's reservation before the build: the replay streams
	// from disk, so the hash table gets the whole remaining budget instead
	// of competing with the buffer's resident suffix.
	if err := ss.buf.freeze(); err != nil {
		return err
	}
	sht := ev.newSpillJoin(p.r.spillNote(p.n))
	cur, err := ss.buf.cursor()
	if err != nil {
		sht.close()
		return err
	}
	q := ss.st.Quant
	buf := make([]byte, 0, 64)
	err = func() error {
		for {
			batch, err := cur.nextBatch(streamBatch)
			if err != nil {
				return err
			}
			if len(batch) == 0 {
				return nil
			}
			for _, row := range batch {
				p.env[q] = row
				buf = buf[:0]
				null := false
				for _, e := range ss.st.KeyMine {
					v, err := EvalExpr(e, p.env)
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
				if err := sht.add(buf, row); err != nil {
					return err
				}
			}
		}
	}()
	delete(p.env, q)
	ss.buf.close()
	ss.buf = nil
	if err != nil {
		sht.close()
		return err
	}
	ss.sht = sht
	ss.built = true
	return nil
}

// resetStage prepares stage i's candidate rows for the current outer
// binding.
func (p *selectPipeOp) resetStage(i int) error {
	ev := p.r.ev
	ss := &p.stages[i]
	ss.idx = 0
	switch ss.access {
	case plan.AccessStream:
		// advanceStage pulls batches from the child.
		ss.rows = nil
	case plan.AccessIndex:
		for j, e := range ss.st.KeyOther {
			v, err := EvalExpr(e, p.env)
			if err != nil {
				return err
			}
			ss.probe[j] = v
		}
		if rows, used := ss.rel.Lookup(ss.st.IndexCols, ss.probe); used {
			ev.Counters.IndexLookups++
			ss.rows = rows
			return nil
		}
		if err := p.downgrade(ss); err != nil {
			return err
		}
		return p.resetStage(i)
	case plan.AccessHash:
		if !ss.built {
			if ev.Mem != nil {
				if err := p.buildSpillStage(ss); err != nil {
					return err
				}
				ss.built = true
				if p.graceShape(i) && ss.sht.spilled() {
					// The build spilled: per-probe lookups would fault
					// partitions in and out once per outer row. Switch to
					// the partition-wise grace join; next() notices p.grace
					// and emits its merge.
					return p.graceRun(ss)
				}
			} else {
				rows, err := p.r.materialize(ss.st.Child)
				if err != nil {
					return err
				}
				ss.childRows = rows
				ev.Counters.HashBuilds++
				ss.ht, err = ev.buildHashTable(ss.st.Quant, ss.st.KeyMine, rows, p.env)
				if err != nil {
					return err
				}
				ss.built = true
			}
		}
		ev.keyBuf = ev.keyBuf[:0]
		for _, e := range ss.st.KeyOther {
			v, err := EvalExpr(e, p.env)
			if err != nil {
				return err
			}
			if v.IsNull() {
				ss.rows = nil // equality never matches NULL
				return nil
			}
			ev.keyBuf = v.AppendKey(ev.keyBuf)
		}
		ev.Counters.HashProbes++
		if ss.sht != nil {
			rows, err := ss.sht.probe(ev.keyBuf)
			if err != nil {
				return err
			}
			ss.rows = rows
		} else {
			ss.rows = ss.ht[string(ev.keyBuf)]
		}
	case plan.AccessScan:
		if !ss.built {
			if ev.Mem != nil {
				if err := p.buildSpillScan(ss); err != nil {
					return err
				}
			} else {
				rows, err := p.r.materialize(ss.st.Child)
				if err != nil {
					return err
				}
				ss.childRows = rows
			}
			ss.built = true
		}
		if ss.buf != nil {
			cur, err := ss.buf.cursor()
			if err != nil {
				return err
			}
			ss.cur = cur
			ss.rows = nil
		} else {
			ss.rows = ss.childRows
		}
	case plan.AccessCorr:
		rows, err := ev.EvalBox(ss.st.Quant.Ranges, p.env)
		if err != nil {
			return err
		}
		ss.rows = rows
		st := &p.r.stats[ss.st.Child.ID]
		st.Opens++
		st.Rows += int64(len(rows))
	}
	return nil
}

// advanceStage moves stage i to its next qualifying row, binding the stage
// quantifier. Returns false when the stage is exhausted for the current
// outer binding.
func (p *selectPipeOp) advanceStage(i int) (bool, error) {
	ev := p.r.ev
	ss := &p.stages[i]
	q := ss.st.Quant
	for {
		if ss.idx >= len(ss.rows) {
			if ss.access == plan.AccessStream {
				batch, err := ss.child.next()
				if err != nil {
					return false, err
				}
				if len(batch) > 0 {
					ss.rows = batch
					ss.idx = 0
					continue
				}
			}
			if ss.cur != nil {
				batch, err := ss.cur.nextBatch(streamBatch)
				if err != nil {
					return false, err
				}
				if len(batch) > 0 {
					ss.rows = batch
					ss.idx = 0
					continue
				}
			}
			delete(p.env, q)
			return false, nil
		}
		row := ss.rows[ss.idx]
		ss.idx++
		if err := ev.tick(); err != nil {
			return false, err
		}
		p.env[q] = row
		pass := true
		for _, pred := range ss.filters {
			tv, err := EvalPred(pred, p.env)
			if err != nil {
				return false, err
			}
			if tv != datum.True {
				pass = false
				break
			}
		}
		if pass {
			return true, nil
		}
	}
}

// finishRow completes the current full binding: scalar subqueries,
// post-predicates, and semi/anti-join checks. Scalar bindings stay live for
// the projection; the caller clears them.
func (p *selectPipeOp) finishRow() (bool, error) {
	ev := p.r.ev
	for _, q := range p.n.Scalars {
		rows, err := ev.evalSubquery(q, p.env)
		if err != nil {
			return false, err
		}
		switch {
		case len(rows) == 0:
			null := make(datum.Row, len(q.Ranges.Output))
			for i := range null {
				null[i] = datum.NullOf(q.Ranges.Output[i].Type)
			}
			p.env[q] = null
		case len(rows) == 1:
			p.env[q] = rows[0]
		default:
			return false, fmt.Errorf("exec: scalar subquery returned %d rows", len(rows))
		}
	}
	for _, pred := range p.n.PostPreds {
		tv, err := EvalPred(pred, p.env)
		if err != nil {
			return false, err
		}
		if tv != datum.True {
			return false, nil
		}
	}
	for i := range p.n.Subqs {
		pass, err := p.checkSubq(i)
		if err != nil {
			return false, err
		}
		if !pass {
			return false, nil
		}
	}
	return true, nil
}

func (p *selectPipeOp) checkSubq(i int) (bool, error) {
	ev := p.r.ev
	sq := &p.n.Subqs[i]
	if sq.Mode == plan.SubqBridge {
		rows, err := ev.evalSubquery(sq.Quant, p.env)
		if err != nil {
			return false, err
		}
		return ev.checkQuantifier(sq.Quant, sq.Match, rows, p.env)
	}
	// First-match: the verdict is independent of the outer bindings, so it
	// is computed once per open — except in tuple-at-a-time mode, which
	// re-streams per outer row (still early-exiting).
	c := &p.subqs[i]
	if c.valid && !ev.NoSubqueryCache {
		return c.val, nil
	}
	ev.Counters.SubqueryEvals++
	val, err := p.firstMatch(sq)
	if err != nil {
		return false, err
	}
	c.valid, c.val = true, val
	if p.fix != nil {
		if p.fix.verdicts == nil {
			p.fix.verdicts = map[*qgm.Quantifier]subqState{}
		}
		p.fix.verdicts[sq.Quant] = *c
	}
	return val, nil
}

// firstMatch streams the subquery tree and stops pulling at the first
// decisive row: a witness for Exists (semi-join), a violation for ForAll
// (anti-join). This is the true early exit the materializing evaluator
// cannot do — the build side stops producing as soon as the verdict is
// known.
func (p *selectPipeOp) firstMatch(sq *plan.Subquery) (bool, error) {
	ev := p.r.ev
	q := sq.Quant
	child := p.r.build(sq.Child)
	if err := child.open(); err != nil {
		child.close()
		return false, err
	}
	defer child.close()
	for {
		batch, err := child.next()
		if err != nil {
			return false, err
		}
		if len(batch) == 0 {
			// Exhausted without a decisive row: no witness / no violation.
			return q.Type == qgm.ForAll, nil
		}
		for _, row := range batch {
			if err := ev.tick(); err != nil {
				return false, err
			}
			p.env[q] = row
			all := true
			for _, m := range sq.Match {
				tv, err := EvalPred(m, p.env)
				if err != nil {
					delete(p.env, q)
					return false, err
				}
				if tv != datum.True {
					all = false
					break
				}
			}
			delete(p.env, q)
			if q.Type == qgm.Exists && all {
				return true, nil
			}
			if q.Type == qgm.ForAll && !all {
				return false, nil
			}
		}
	}
}

func (p *selectPipeOp) next() ([]datum.Row, error) {
	ev := p.r.ev
	if p.done {
		return nil, nil
	}
	if p.grace != nil {
		return p.graceNext()
	}
	if p.oneShot {
		p.done = true
		pass, err := p.finishRow()
		if err != nil {
			return nil, err
		}
		var out []datum.Row
		if pass {
			row, err := ev.projectRow(p.n.Box, p.env)
			if err != nil {
				return nil, err
			}
			out = append(out, row)
		}
		for _, q := range p.n.Scalars {
			delete(p.env, q)
		}
		if p.n.BoxRoot && len(out) > 0 {
			if err := ev.addOutput(len(out)); err != nil {
				return nil, err
			}
		}
		return out, nil
	}

	var out []datum.Row
	i := p.depth
	last := len(p.stages) - 1
	for {
		if i < 0 {
			p.done = true
			break
		}
		ok, err := p.advanceStage(i)
		if err != nil {
			return nil, err
		}
		if !ok {
			i--
			continue
		}
		if i < last {
			i++
			if err := p.resetStage(i); err != nil {
				return nil, err
			}
			if p.grace != nil {
				// The stage's spilled build switched the pipeline to grace
				// mode; no binding has completed yet, so nothing is lost.
				return p.graceNext()
			}
			continue
		}
		pass, err := p.finishRow()
		if err != nil {
			return nil, err
		}
		var row datum.Row
		if pass {
			row, err = ev.projectRow(p.n.Box, p.env)
		}
		for _, q := range p.n.Scalars {
			delete(p.env, q)
		}
		if err != nil {
			return nil, err
		}
		if pass {
			out = append(out, row)
			if len(out) >= streamBatch {
				break
			}
		}
	}
	p.depth = i
	if p.n.BoxRoot && len(out) > 0 {
		if err := ev.addOutput(len(out)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (p *selectPipeOp) close() error {
	var err error
	for i := range p.stages {
		ss := &p.stages[i]
		if ss.child != nil {
			if e := ss.child.close(); e != nil && err == nil {
				err = e
			}
		}
		if p.fix != nil && ss.built {
			p.fix.keep(ss) // the fixpoint releases it when done
			continue
		}
		if ss.sht != nil {
			ss.sht.close()
		}
		if ss.buf != nil {
			ss.buf.close()
		}
	}
	if p.grace != nil {
		p.grace.close()
		p.grace = nil
	}
	p.stages = nil
	p.env = nil
	return err
}

// groupByOp is a pipeline breaker: open drains the input into grouped
// aggregate state (insertion order preserved), next streams the groups.
type groupByOp struct {
	r   *planRun
	n   *plan.Node
	out rowStream
}

func (g *groupByOp) open() error {
	ev := g.r.ev
	b := g.n.Box
	if g.n.BoxRoot {
		ev.Counters.BoxEvals++
	}
	inQ := b.Quantifiers[0]
	child := g.r.build(g.n.Children[0])
	if err := child.open(); err != nil {
		child.close()
		return err
	}

	gt := ev.newGroupTable("group-by", g.r.spillNote(g.n))
	defer gt.close()
	env := ev.rootEnv()
	var gkBuf []byte
	// Without a budget the table is map-backed and entry pointers are
	// stable, so a fixed-width RowKey cache can front the byte-keyed map.
	var keyer *vec.RowKeyer
	var fast map[vec.RowKey]*groupEntry
	if ev.Mem == nil && !ev.NoVec {
		keyer = vec.NewRowKeyer()
		fast = map[vec.RowKey]*groupEntry{}
	}

	err := func() error {
		for {
			batch, err := child.next()
			if err != nil {
				return err
			}
			if len(batch) == 0 {
				return nil
			}
			for _, row := range batch {
				if err := ev.tick(); err != nil {
					return err
				}
				env[inQ] = row
				if keyer != nil {
					gkBuf, err = ev.accumulateGroupFast(gt, b, env, keyer, fast, gkBuf)
				} else {
					gkBuf, err = ev.accumulateGroup(gt, b, env, gkBuf)
				}
				if err != nil {
					return err
				}
			}
		}
	}()
	if cerr := child.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	rows, err := emitGroups(gt, b)
	g.out.reset(rows)
	return err
}

func (g *groupByOp) next() ([]datum.Row, error) {
	batch := g.out.nextBatch()
	if g.n.BoxRoot && len(batch) > 0 {
		if err := g.r.ev.addOutput(len(batch)); err != nil {
			return nil, err
		}
	}
	return batch, nil
}

func (g *groupByOp) close() error {
	g.out.reset(nil)
	return nil
}

// unionOp streams its inputs in order, opening each child only when
// reached and closing it as soon as it is exhausted.
type unionOp struct {
	r        *planRun
	n        *plan.Node
	children []operator
	cur      int
}

func (u *unionOp) open() error {
	if u.n.BoxRoot {
		u.r.ev.Counters.BoxEvals++
	}
	u.children = make([]operator, len(u.n.Children))
	for i, c := range u.n.Children {
		u.children[i] = u.r.build(c)
	}
	u.cur = 0
	if len(u.children) > 0 {
		return u.children[0].open()
	}
	return nil
}

func (u *unionOp) next() ([]datum.Row, error) {
	for u.cur < len(u.children) {
		batch, err := u.children[u.cur].next()
		if err != nil {
			return nil, err
		}
		if len(batch) > 0 {
			if u.n.BoxRoot {
				if err := u.r.ev.addOutput(len(batch)); err != nil {
					return nil, err
				}
			}
			return batch, nil
		}
		if err := u.children[u.cur].close(); err != nil {
			return nil, err
		}
		u.cur++
		if u.cur < len(u.children) {
			if err := u.children[u.cur].open(); err != nil {
				return nil, err
			}
		}
	}
	return nil, nil
}

func (u *unionOp) close() error {
	var err error
	for _, c := range u.children {
		if c == nil {
			continue
		}
		if e := c.close(); e != nil && err == nil {
			err = e
		}
	}
	u.children = nil
	return err
}

// setOpOp implements INTERSECT/EXCEPT (ALL and DISTINCT): the right input
// is materialized into multiplicity counts, the left input streams through
// the multiset filter.
type setOpOp struct {
	r      *planRun
	n      *plan.Node
	left   operator
	counts *countTable
	seen   *seenSet
	out    []datum.Row
}

func (s *setOpOp) open() error {
	ev := s.r.ev
	if s.n.BoxRoot {
		ev.Counters.BoxEvals++
	}
	s.counts = ev.newCountTable("setop", s.r.spillNote(s.n))
	if ev.Mem != nil {
		// Budget mode streams the right input straight into the governed
		// count table instead of materializing it into the memo.
		right := s.r.build(s.n.Children[1])
		if err := right.open(); err != nil {
			right.close()
			return err
		}
		err := func() error {
			for {
				batch, err := right.next()
				if err != nil {
					return err
				}
				if len(batch) == 0 {
					return nil
				}
				for _, row := range batch {
					ev.keyBuf = datum.AppendKey(ev.keyBuf[:0], row)
					if err := s.counts.inc(ev.keyBuf); err != nil {
						return err
					}
				}
			}
		}()
		if cerr := right.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	} else {
		right, err := s.r.materialize(s.n.Children[1])
		if err != nil {
			return err
		}
		for _, row := range right {
			ev.keyBuf = datum.AppendKey(ev.keyBuf[:0], row)
			if err := s.counts.inc(ev.keyBuf); err != nil {
				return err
			}
		}
	}
	s.seen = ev.newSeenSet("setop-seen", s.r.spillNote(s.n))
	s.left = s.r.build(s.n.Children[0])
	return s.left.open()
}

func (s *setOpOp) next() ([]datum.Row, error) {
	ev := s.r.ev
	distinct := s.n.Box.Distinct != qgm.DistinctPreserve
	for {
		batch, err := s.left.next()
		if err != nil {
			return nil, err
		}
		if len(batch) == 0 {
			return nil, nil
		}
		s.out = s.out[:0]
		for _, row := range batch {
			if err := ev.tick(); err != nil {
				return nil, err
			}
			ev.keyBuf = datum.AppendKey(ev.keyBuf[:0], row)
			c, err := s.counts.count(ev.keyBuf)
			if err != nil {
				return nil, err
			}
			inRight := c > 0
			switch s.n.Box.Kind {
			case qgm.KindIntersect:
				if !inRight {
					continue
				}
				if distinct {
					dup, err := s.seen.checkAndAdd(ev.keyBuf)
					if err != nil {
						return nil, err
					}
					if dup {
						continue
					}
				} else {
					// INTERSECT ALL: min of multiplicities.
					if err := s.counts.dec(ev.keyBuf); err != nil {
						return nil, err
					}
				}
				s.out = append(s.out, row)
			case qgm.KindExcept:
				if distinct {
					if inRight {
						continue
					}
					dup, err := s.seen.checkAndAdd(ev.keyBuf)
					if err != nil {
						return nil, err
					}
					if dup {
						continue
					}
					s.out = append(s.out, row)
				} else {
					if inRight {
						// EXCEPT ALL: subtract multiplicities.
						if err := s.counts.dec(ev.keyBuf); err != nil {
							return nil, err
						}
						continue
					}
					s.out = append(s.out, row)
				}
			}
		}
		if len(s.out) == 0 {
			continue
		}
		if s.n.BoxRoot {
			if err := ev.addOutput(len(s.out)); err != nil {
				return nil, err
			}
		}
		return s.out, nil
	}
}

func (s *setOpOp) close() error {
	var err error
	if s.left != nil {
		err = s.left.close()
	}
	if s.counts != nil {
		s.counts.close()
	}
	if s.seen != nil {
		s.seen.close()
	}
	s.counts, s.seen, s.out = nil, nil, nil
	return err
}

// distinctOp filters duplicates with a streaming seen-set, keeping the
// first occurrence — matching the materializing evaluator's dedupe order.
type distinctOp struct {
	r     *planRun
	n     *plan.Node
	child operator
	seen  *seenSet
	keyer *vec.RowKeyer
	fast  map[vec.RowKey]struct{}
	out   []datum.Row
}

func (d *distinctOp) open() error {
	ev := d.r.ev
	if d.n.BoxRoot {
		ev.Counters.BoxEvals++
	}
	d.seen = ev.newSeenSet("distinct", d.r.spillNote(d.n))
	// Keyable rows dedupe through a fixed-width RowKey set instead of
	// byte-encoded keys; wide or non-encodable rows keep the byte path.
	// Equal rows always classify the same way, so the two sets agree.
	if ev.Mem == nil && !ev.NoVec {
		d.keyer = vec.NewRowKeyer()
		d.fast = map[vec.RowKey]struct{}{}
	}
	return d.child.open()
}

func (d *distinctOp) next() ([]datum.Row, error) {
	ev := d.r.ev
	for {
		batch, err := d.child.next()
		if err != nil {
			return nil, err
		}
		if len(batch) == 0 {
			return nil, nil
		}
		d.out = d.out[:0]
		for _, row := range batch {
			if d.keyer != nil {
				if rk, ok := d.keyer.Key(row); ok {
					if _, dup := d.fast[rk]; dup {
						continue
					}
					d.fast[rk] = struct{}{}
					d.out = append(d.out, row)
					continue
				}
			}
			ev.keyBuf = datum.AppendKey(ev.keyBuf[:0], row)
			dup, err := d.seen.checkAndAdd(ev.keyBuf)
			if err != nil {
				return nil, err
			}
			if dup {
				continue
			}
			d.out = append(d.out, row)
		}
		if len(d.out) == 0 {
			continue
		}
		if d.n.BoxRoot {
			if err := ev.addOutput(len(d.out)); err != nil {
				return nil, err
			}
		}
		return d.out, nil
	}
}

func (d *distinctOp) close() error {
	err := d.child.close()
	if d.seen != nil {
		d.seen.close()
	}
	d.seen, d.out = nil, nil
	return err
}

// sortOp is a pipeline breaker implementing top-level ORDER BY with the
// same stable comparator as the materializing evaluator. Under a memory
// budget it runs as an external merge sort (extSorter): when Lower's EstMem
// estimate already exceeds the budget, run flushing is eager (bounded-size
// runs) rather than waiting for the first denial.
type sortOp struct {
	r      *planRun
	n      *plan.Node
	child  operator
	out    rowStream
	sorter *extSorter
}

func (s *sortOp) open() error {
	ev := s.r.ev
	if ev.Mem != nil {
		s.sorter = ev.newExtSorter(s.n.OrderBy, s.r.spillNote(s.n))
		if lim := ev.Mem.Limit(); lim > 0 && s.n.EstMem > float64(lim) {
			eager := lim / 4
			if q := ev.Mem.Quantum(); eager < q {
				eager = q
			}
			s.sorter.eager = eager
		}
	}
	if err := s.child.open(); err != nil {
		s.child.close()
		return err
	}
	var rows []datum.Row
	err := func() error {
		for {
			batch, err := s.child.next()
			if err != nil {
				return err
			}
			if len(batch) == 0 {
				return nil
			}
			if s.sorter != nil {
				for _, row := range batch {
					if err := s.sorter.add(row); err != nil {
						return err
					}
				}
				continue
			}
			rows = append(rows, batch...)
		}
	}()
	if cerr := s.child.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if s.sorter != nil {
		return s.sorter.finish()
	}
	specs := s.n.OrderBy
	sort.SliceStable(rows, func(i, j int) bool {
		for _, spec := range specs {
			c := datum.SortCompare(rows[i][spec.Ord], rows[j][spec.Ord])
			if spec.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	s.out.reset(rows)
	return nil
}

func (s *sortOp) next() ([]datum.Row, error) {
	if s.sorter != nil {
		return s.sorter.next(streamBatch)
	}
	return s.out.nextBatch(), nil
}

func (s *sortOp) close() error {
	if s.sorter != nil {
		s.sorter.close()
		s.sorter = nil
	}
	s.out.reset(nil)
	return nil
}

// limitOp delivers at most N rows, then stops pulling and eagerly closes
// its child — the stop signal that makes LIMIT a true early exit.
type limitOp struct {
	r         *planRun
	n         *plan.Node
	child     operator
	remaining int64
	done      bool
}

func (l *limitOp) open() error {
	l.remaining = l.n.N
	l.done = l.remaining <= 0
	if l.done {
		return nil
	}
	return l.child.open()
}

func (l *limitOp) next() ([]datum.Row, error) {
	if l.done {
		return nil, nil
	}
	batch, err := l.child.next()
	if err != nil {
		return nil, err
	}
	if len(batch) == 0 {
		l.done = true
		return nil, nil
	}
	if int64(len(batch)) > l.remaining {
		batch = batch[:l.remaining]
	}
	l.remaining -= int64(len(batch))
	if l.remaining <= 0 {
		l.done = true
		if err := l.child.close(); err != nil {
			return nil, err
		}
	}
	return batch, nil
}

func (l *limitOp) close() error {
	return l.child.close()
}

// trimOp drops trailing hidden ORDER BY support columns.
type trimOp struct {
	r     *planRun
	n     *plan.Node
	child operator
	out   []datum.Row
}

func (t *trimOp) open() error { return t.child.open() }

func (t *trimOp) next() ([]datum.Row, error) {
	batch, err := t.child.next()
	if err != nil || len(batch) == 0 {
		return nil, err
	}
	t.out = t.out[:0]
	for _, r := range batch {
		t.out = append(t.out, r[:len(r)-t.n.Hidden])
	}
	return t.out, nil
}

func (t *trimOp) close() error {
	err := t.child.close()
	t.out = nil
	return err
}
