package storage

import (
	"fmt"
	"sync"
	"testing"

	"starmagic/internal/catalog"
	"starmagic/internal/datum"
)

// txnID builds an in-flight transaction id for tests.
func txnID(seq uint64) uint64 { return TxnIDBit | seq }

// rowsAt captures the relation under s and gathers the visible rows.
func rowsAt(r *Relation, s Snap) []datum.Row {
	c := r.capture(s, false)
	return c.visibleRows(s)
}

func TestSnapVisibility(t *testing.T) {
	self := txnID(1)
	other := txnID(2)
	cases := []struct {
		name       string
		begin, end uint64
		s          Snap
		want       bool
	}{
		{"committed live, after", 5, Live, Snap{TS: 10}, true},
		{"committed live, before", 5, Live, Snap{TS: 4}, false},
		{"committed live, at", 5, Live, Snap{TS: 5}, true},
		{"own insert", self, Live, Snap{TS: 10, Self: self}, true},
		{"foreign in-flight insert", other, Live, Snap{TS: 10, Self: self}, false},
		{"aborted insert", abortedBegin, Live, Snap{TS: 10, Self: self}, false},
		{"deleted before snapshot", 3, 7, Snap{TS: 8}, false},
		{"deleted after snapshot", 3, 7, Snap{TS: 6}, true},
		{"deleted at snapshot", 3, 7, Snap{TS: 7}, false},
		{"own delete", 3, self, Snap{TS: 10, Self: self}, false},
		{"foreign in-flight delete", 3, other, Snap{TS: 10, Self: self}, true},
		{"read-all sees committed", 5, Live, ReadAll, true},
		{"read-all skips in-flight", other, Live, ReadAll, false},
	}
	for _, c := range cases {
		if got := c.s.Visible(c.begin, c.end); got != c.want {
			t.Errorf("%s: Visible(%#x, %#x) under %+v = %v, want %v",
				c.name, c.begin, c.end, c.s, got, c.want)
		}
	}
}

func TestAppendCommitAbortVisibility(t *testing.T) {
	r := NewRelation(empMeta())
	if err := r.Insert(datum.Row{datum.Int(1), datum.Int(10), datum.Float(100)}); err != nil {
		t.Fatal(err)
	}
	id := txnID(7)
	pos, err := r.Append(datum.Row{datum.Int(2), datum.Int(20), datum.Float(200)}, id)
	if err != nil {
		t.Fatal(err)
	}
	// In flight: invisible to everyone but the writer.
	if n := len(rowsAt(r, Snap{TS: 100})); n != 1 {
		t.Fatalf("in-flight insert visible to reader: %d rows", n)
	}
	if n := len(rowsAt(r, Snap{TS: 100, Self: id})); n != 2 {
		t.Fatalf("in-flight insert invisible to writer: %d rows", n)
	}
	r.FinishAppend(pos, 5)
	if n := len(r.Rows()); n != 2 {
		t.Fatalf("committed insert: %d rows, want 2", n)
	}
	if n := len(rowsAt(r, Snap{TS: 4})); n != 1 {
		t.Fatalf("old snapshot sees new insert: %d rows", n)
	}

	// Aborted appends stay invisible forever.
	pos, err = r.Append(datum.Row{datum.Int(3), datum.Int(30), datum.Float(300)}, txnID(8))
	if err != nil {
		t.Fatal(err)
	}
	r.AbortAppend(pos)
	if n := len(r.Rows()); n != 2 {
		t.Fatalf("aborted insert visible: %d rows, want 2", n)
	}
}

func TestDeleteWhereFirstUpdaterWins(t *testing.T) {
	r := NewRelation(empMeta())
	for i := 1; i <= 4; i++ {
		if err := r.Insert(datum.Row{datum.Int(int64(i)), datum.Int(10), datum.Float(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	all := func(datum.Row) (bool, error) { return true, nil }
	one := func(row datum.Row) (bool, error) { return row[0].I == 2, nil }

	// Transaction A claims row 2.
	a := txnID(1)
	var aPos []int
	n, err := r.DeleteWhere(Snap{TS: 10, Self: a}, a, one, func(pos int, _ datum.Row) { aPos = append(aPos, pos) })
	if err != nil || n != 1 {
		t.Fatalf("first delete: n=%d err=%v", n, err)
	}

	// Transaction B touching the same row loses immediately.
	b := txnID(2)
	var bPos []int
	_, err = r.DeleteWhere(Snap{TS: 10, Self: b}, b, all, func(pos int, _ datum.Row) { bPos = append(bPos, pos) })
	if err != ErrConflict {
		t.Fatalf("overlapping delete: err=%v, want ErrConflict", err)
	}
	// B must release its partial claims for the rows it did win.
	for _, pos := range bPos {
		r.AbortDelete(pos)
	}

	// A commits; its row disappears at ts 11, stays visible at ts 10.
	for _, pos := range aPos {
		r.FinishDelete(pos, 11)
	}
	if n := len(rowsAt(r, Snap{TS: 11})); n != 3 {
		t.Fatalf("after commit: %d rows, want 3", n)
	}
	if n := len(rowsAt(r, Snap{TS: 10})); n != 4 {
		t.Fatalf("old snapshot: %d rows, want 4", n)
	}

	// After B's aborts, a third transaction can claim everything left.
	c := txnID(3)
	n, err = r.DeleteWhere(Snap{TS: 11, Self: c}, c, all, func(int, datum.Row) {})
	if err != nil || n != 3 {
		t.Fatalf("post-abort delete: n=%d err=%v", n, err)
	}
}

func TestVacuumHorizon(t *testing.T) {
	r := NewRelation(empMeta())
	for i := 1; i <= 3; i++ {
		if err := r.Insert(datum.Row{datum.Int(int64(i)), datum.Int(10), datum.Float(1)}); err != nil {
			t.Fatal(err)
		}
	}
	// Delete row 2 at commit ts 5.
	id := txnID(1)
	var marks []int
	if _, err := r.DeleteWhere(Snap{TS: 4, Self: id}, id,
		func(row datum.Row) (bool, error) { return row[0].I == 2, nil },
		func(pos int, _ datum.Row) { marks = append(marks, pos) }); err != nil {
		t.Fatal(err)
	}
	for _, pos := range marks {
		r.FinishDelete(pos, 5)
	}
	if g := r.Garbage(); g != 1 {
		t.Fatalf("garbage = %d, want 1", g)
	}

	// A snapshot at ts 4 still needs the version: horizon 4 reclaims nothing.
	if n := r.Vacuum(4); n != 0 {
		t.Fatalf("vacuum below horizon reclaimed %d", n)
	}
	if rows := rowsAt(r, Snap{TS: 4}); len(rows) != 3 {
		t.Fatalf("snapshot at 4 sees %d rows after early vacuum", len(rows))
	}

	// Horizon 5: the deleted version is invisible to every snapshot >= 5.
	if n := r.Vacuum(5); n != 1 {
		t.Fatalf("vacuum reclaimed %d, want 1", n)
	}
	rows := r.Rows()
	if len(rows) != 2 || rows[0][0].I != 1 || rows[1][0].I != 3 {
		t.Fatalf("post-vacuum rows: %v", rows)
	}
	// Indexes were rebuilt against the compacted positions.
	if got, ok := r.Lookup([]int{0}, datum.Row{datum.Int(3)}); !ok || len(got) != 1 {
		t.Fatalf("post-vacuum index lookup: %v %v", got, ok)
	}
	if got, ok := r.Lookup([]int{0}, datum.Row{datum.Int(2)}); !ok || len(got) != 0 {
		t.Fatalf("post-vacuum index still finds deleted row: %v %v", got, ok)
	}
}

func TestVacuumSkipsInFlight(t *testing.T) {
	r := NewRelation(empMeta())
	if err := r.Insert(datum.Row{datum.Int(1), datum.Int(10), datum.Float(1)}); err != nil {
		t.Fatal(err)
	}
	id := txnID(1)
	pos, err := r.Append(datum.Row{datum.Int(2), datum.Int(20), datum.Float(2)}, id)
	if err != nil {
		t.Fatal(err)
	}
	// A transaction holds uncommitted positions: vacuum must not move rows.
	if n := r.Vacuum(100); n != 0 {
		t.Fatalf("vacuum with in-flight writes reclaimed %d", n)
	}
	r.FinishAppend(pos, 5)
	if n := len(r.Rows()); n != 2 {
		t.Fatalf("rows after commit = %d", n)
	}
}

// TestCompactionPreservesSnapshotStrings is the intern-compaction guard: a
// view captured before a DELETE must keep resolving its string ids even
// after vacuum plus compaction rewrites the intern table, because the
// captured columnar arrays still hold the old ids.
func TestCompactionPreservesSnapshotStrings(t *testing.T) {
	s := NewStore()
	meta := &catalog.Table{
		Name: "words",
		Columns: []catalog.Column{
			{Name: "id", Type: datum.TInt},
			{Name: "w", Type: datum.TString},
		},
	}
	r := s.Create(meta)
	const n = 3000
	for i := 0; i < n; i++ {
		if err := r.Insert(datum.Row{datum.Int(int64(i)), datum.String(fmt.Sprintf("word-%06d", i))}); err != nil {
			t.Fatal(err)
		}
	}

	// Open a snapshot view before the delete.
	view := s.NewView(Snap{TS: 0})
	rv, ok := view.Relation("words")
	if !ok {
		t.Fatal("no relation in view")
	}

	// Delete everything, commit, vacuum, compact: the intern table shrinks.
	id := txnID(1)
	var marks []int
	if _, err := r.DeleteWhere(Snap{TS: 0, Self: id}, id,
		func(datum.Row) (bool, error) { return true, nil },
		func(pos int, _ datum.Row) { marks = append(marks, pos) }); err != nil {
		t.Fatal(err)
	}
	for _, pos := range marks {
		r.FinishDelete(pos, 1)
	}
	before := s.Intern().Stats().Strings
	if got := s.Vacuum(1); got != n {
		t.Fatalf("vacuum reclaimed %d, want %d", got, n)
	}
	s.MaybeCompactIntern()
	if after := s.Intern().Stats().Strings; after >= before/2 {
		t.Fatalf("compaction did not shrink intern table: %d -> %d", before, after)
	}

	// The old view still returns every original string: its capture holds
	// the pre-compaction column arrays and intern table.
	rows := rv.Rows()
	if len(rows) != n {
		t.Fatalf("snapshot rows = %d, want %d", len(rows), n)
	}
	for i, row := range rows {
		if want := fmt.Sprintf("word-%06d", i); row[1].S != want {
			t.Fatalf("row %d string = %q, want %q", i, row[1].S, want)
		}
	}
	// And its vectorized capture resolves ids through its own intern table.
	tbl, _, _, tab := rv.Vec()
	if tbl.N != n || tab == nil {
		t.Fatalf("vec capture: n=%d tab=%v", tbl.N, tab)
	}
}

// TestConcurrentAppendScan runs writers committing appends against readers
// capturing snapshots, under -race: every capture must be a transactionally
// consistent prefix (commit order is the insert order here, so a reader that
// sees row k must see all rows committed before k).
func TestConcurrentAppendScan(t *testing.T) {
	r := NewRelation(empMeta())
	const writers, perWriter = 4, 200
	var ts struct {
		sync.Mutex
		next uint64
	}
	ts.next = 1

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := txnID(uint64(w*perWriter + i + 1))
				pos, err := r.Append(datum.Row{datum.Int(int64(w)), datum.Int(int64(i)), datum.Float(0)}, id)
				if err != nil {
					t.Error(err)
					return
				}
				ts.Lock()
				commit := ts.next
				ts.next++
				r.FinishAppend(pos, commit)
				ts.Unlock()
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	for {
		select {
		case <-done:
			if n := len(r.Rows()); n != writers*perWriter {
				t.Fatalf("final rows = %d, want %d", n, writers*perWriter)
			}
			return
		default:
		}
		ts.Lock()
		now := ts.next - 1
		ts.Unlock()
		got := len(rowsAt(r, Snap{TS: now}))
		// Everything committed at or below `now` must be visible; later
		// commits may or may not be, but never more than have finished.
		if got < int(now) {
			t.Fatalf("snapshot at %d sees only %d rows", now, got)
		}
	}
}

// TestCompactInternConcurrentAppend interns fresh strings while the intern
// table is repeatedly compacted. Appends intern under their relation lock
// alone, so compaction must read the table after taking every relation
// lock; reading it earlier lets a stored id exceed its mark array. Every
// appended string must read back intact afterwards.
func TestCompactInternConcurrentAppend(t *testing.T) {
	s := NewStore()
	meta := func(name string) *catalog.Table {
		return &catalog.Table{Name: name, Columns: []catalog.Column{
			{Name: "id", Type: datum.TInt},
			{Name: "w", Type: datum.TString},
		}}
	}
	live := s.Create(meta("live"))
	junk := s.Create(meta("junk"))
	for i := 0; i < compactMinStrings; i++ {
		if err := live.Insert(datum.Row{datum.Int(int64(i)), datum.String(fmt.Sprintf("base-%06d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	const fresh = 3000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < fresh; i++ {
			if err := live.Insert(datum.Row{datum.Int(int64(compactMinStrings + i)), datum.String(fmt.Sprintf("fresh-%06d", i))}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Alternate idle compaction passes with passes that have garbage to
	// reclaim, so both the mark phase and the rebuild overlap the appends.
	for round := uint64(1); ; round++ {
		select {
		case <-done:
			goto check
		default:
		}
		for i := 0; i < 2*compactMinStrings; i++ {
			if err := junk.Insert(datum.Row{datum.Int(int64(i)), datum.String(fmt.Sprintf("junk-%d-%d", round, i))}); err != nil {
				t.Fatal(err)
			}
		}
		id := txnID(round)
		var marks []int
		if _, err := junk.DeleteWhere(Snap{TS: round, Self: id}, id,
			func(datum.Row) (bool, error) { return true, nil },
			func(pos int, _ datum.Row) { marks = append(marks, pos) }); err != nil {
			t.Fatal(err)
		}
		for _, pos := range marks {
			junk.FinishDelete(pos, round)
		}
		for i := 0; i < 20; i++ {
			s.MaybeCompactIntern()
		}
		s.Vacuum(round)
		s.MaybeCompactIntern()
	}
check:
	rows := live.Rows()
	if len(rows) != compactMinStrings+fresh {
		t.Fatalf("rows = %d, want %d", len(rows), compactMinStrings+fresh)
	}
	for _, row := range rows {
		i := int(row[0].I)
		want := fmt.Sprintf("base-%06d", i)
		if i >= compactMinStrings {
			want = fmt.Sprintf("fresh-%06d", i-compactMinStrings)
		}
		if row[1].S != want {
			t.Fatalf("row %d string = %q, want %q", i, row[1].S, want)
		}
	}
}
