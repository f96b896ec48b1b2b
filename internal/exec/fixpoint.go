// Semi-naive evaluation of linear recursive views. plan.Lower turns a
// linear recursive component into an OpFixpoint node with two children: the
// seed tree (the view body with the recursive branches dropped) and the
// delta tree (the recursive branches only, each reference to the fixpoint
// root an OpDelta leaf). fixpointOp runs the seed tree once and the delta
// tree once per round, with the OpDelta leaves streaming the rows the
// previous round added, until a round adds nothing. A spillable seen-set
// gives the accumulated set its set semantics.
//
// The member operators of both trees are rebuilt every round, but work over
// inputs outside the component is not repeated: their select stages keep
// hash builds, materialized nested-loop inners and first-match verdicts in
// the fixpoint's fixState until the fixpoint finishes.
//
// Non-linear components keep the bridge into evalRecursive, the naive
// iteration of the box-at-a-time evaluator, which also serves as the
// reference the operator is tested against.
package exec

import (
	"bytes"
	"fmt"
	"sort"

	"starmagic/internal/datum"
	"starmagic/internal/plan"
	"starmagic/internal/qgm"
)

// defaultMaxRecursion bounds fixpoint rounds when Evaluator.MaxRecursion is
// unset.
const defaultMaxRecursion = 1000

// maxRecursion is the round budget of one fixpoint.
func (ev *Evaluator) maxRecursion() int {
	if ev.MaxRecursion > 0 {
		return ev.MaxRecursion
	}
	return defaultMaxRecursion
}

// errNoFixpoint is the error of a recursion that exhausted its round
// budget.
func errNoFixpoint(b *qgm.Box, rounds int) error {
	return fmt.Errorf("exec: recursive view %q did not reach a fixpoint in %d iterations", b.Name, rounds)
}

// sortRound puts one fixpoint round's new rows into a canonical order:
// column by column, values of different kinds by kind (numbers, strings,
// booleans) and alike ones by datum.SortCompare; ties between distinct rows
// fall back to their key bytes. Naive and semi-naive rounds add the same
// rows but derive them in different orders; sorting each round makes a
// recursive view stream the same sequence whichever evaluated it.
func sortRound(rows []datum.Row) {
	kind := func(d datum.D) int {
		switch d.T {
		case datum.TInt, datum.TFloat:
			return 0
		case datum.TString:
			return 1
		}
		return 2
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for c := range a {
			x, y := a[c], b[c]
			if !x.IsNull() && !y.IsNull() && kind(x) != kind(y) {
				return kind(x) < kind(y)
			}
			if d := datum.SortCompare(x, y); d != 0 {
				return d < 0
			}
		}
		return bytes.Compare(datum.AppendKey(nil, a), datum.AppendKey(nil, b)) < 0
	})
}

// fixState is one running fixpoint's state shared with the operators of its
// seed and delta trees.
type fixState struct {
	// delta holds the rows the previous round added; OpDelta leaves stream
	// it.
	delta []datum.Row
	// kept holds the build state of member select stages over inputs
	// outside the component, and verdicts their first-match subquery
	// results. Both are keyed by quantifier: the seed and delta trees lower
	// a member box's stages alike, so either tree's build serves both.
	kept     map[*qgm.Quantifier]*stageState
	verdicts map[*qgm.Quantifier]subqState
}

// keptStage returns the retained build state for stage quantifier q, or
// nil.
func (fs *fixState) keptStage(q *qgm.Quantifier) *stageState {
	if fs == nil {
		return nil
	}
	return fs.kept[q]
}

// keep retains a built stage's state for the following rounds; release
// frees it.
func (fs *fixState) keep(ss *stageState) {
	if fs.kept == nil {
		fs.kept = map[*qgm.Quantifier]*stageState{}
	}
	if fs.kept[ss.st.Quant] != nil {
		return // restored from an earlier round: unchanged since
	}
	fs.kept[ss.st.Quant] = &stageState{
		st: ss.st, access: ss.access, filters: ss.filters,
		childRows: ss.childRows, built: true, ht: ss.ht, sht: ss.sht, buf: ss.buf,
	}
}

func (fs *fixState) release() {
	for _, ss := range fs.kept {
		if ss.sht != nil {
			ss.sht.close()
		}
		if ss.buf != nil {
			ss.buf.close()
		}
	}
	fs.kept, fs.verdicts = nil, nil
}

// fixpointOp evaluates a linear recursive component semi-naively and
// streams the accumulated set. It keeps the bridge's guarantees: the set is
// charged to the memory budget as resident (memoResident) every round, the
// round budget, a cancellation check per round, the row budget applied to
// the accumulated set, and one computation per execution — the set is
// memoized under the root box, so a second reference streams it again.
type fixpointOp struct {
	r   *planRun
	n   *plan.Node
	out rowStream
}

func (f *fixpointOp) open() error {
	if rows, ok := f.r.ev.memo[f.n.Box]; ok {
		f.out.reset(rows)
		return nil
	}
	rows, err := f.run()
	if err != nil {
		f.r.ev.memoDelete(f.n.Box)
		return err
	}
	f.out.reset(rows)
	return nil
}

// run computes the fixpoint: the seed tree, then the delta tree over each
// round's new rows until a round adds none.
func (f *fixpointOp) run() ([]datum.Row, error) {
	ev := f.r.ev
	b := f.n.Box
	fs := &fixState{}
	if f.r.fix == nil {
		f.r.fix = map[*plan.Node]*fixState{}
	}
	f.r.fix[f.n] = fs
	// inProgress pins the set's memo entry against cache reclaim while the
	// rounds still grow it.
	if ev.inProgress == nil {
		ev.inProgress = map[*qgm.Box]bool{}
	}
	ev.inProgress[b] = true
	seen := ev.newSeenSet("fixpoint", f.r.spillNote(f.n))
	defer func() {
		seen.close()
		fs.release()
		delete(f.r.fix, f.n)
		delete(ev.inProgress, b)
	}()

	st := &f.r.stats[f.n.ID]
	maxIter := ev.maxRecursion()
	var acc []datum.Row
	addNew := func(batch []datum.Row) error {
		for _, row := range batch {
			ev.keyBuf = datum.AppendKey(ev.keyBuf[:0], row)
			dup, err := seen.checkAndAdd(ev.keyBuf)
			if err != nil {
				return err
			}
			if !dup {
				acc = append(acc, row)
			}
		}
		return nil
	}
	tree := f.n.Children[0]
	for round := 0; ; round++ {
		if round >= maxIter {
			return nil, errNoFixpoint(b, maxIter)
		}
		if err := ev.ctxErr(); err != nil {
			return nil, err
		}
		prev := len(acc)
		if err := f.r.drain(tree, addNew); err != nil {
			return nil, err
		}
		st.Rounds++
		if len(acc) == prev {
			break
		}
		sortRound(acc[prev:])
		if ev.MaxRows > 0 && int64(len(acc)) > ev.MaxRows {
			return nil, errRowBudget(int64(len(acc)))
		}
		if err := ev.memoResident(b, acc); err != nil {
			return nil, err
		}
		fs.delta = acc[prev:]
		tree = f.n.Children[1]
	}
	if err := ev.memoResident(b, acc); err != nil {
		return nil, err
	}
	return acc, nil
}

func (f *fixpointOp) next() ([]datum.Row, error) { return f.out.nextBatch(), nil }

func (f *fixpointOp) close() error {
	f.out.reset(nil)
	return nil
}

// deltaOp streams the enclosing fixpoint's previous-round rows.
type deltaOp struct {
	r   *planRun
	n   *plan.Node
	out rowStream
}

func (d *deltaOp) open() error {
	fs := d.r.fix[d.n.Fixpoint]
	if fs == nil {
		return fmt.Errorf("exec: delta of %q read outside its fixpoint", d.n.Box.Name)
	}
	d.out.reset(fs.delta)
	return nil
}

func (d *deltaOp) next() ([]datum.Row, error) { return d.out.nextBatch(), nil }

func (d *deltaOp) close() error {
	d.out.reset(nil)
	return nil
}
