package resource

import (
	"context"
	"errors"
	"os"
	"sync"
	"testing"
	"time"
)

func TestBudgetGrowShrinkLimit(t *testing.T) {
	b := NewBudget(nil, 1000, "")
	if err := b.Grow(600); err != nil {
		t.Fatal(err)
	}
	if err := b.Grow(500); !errors.Is(err, ErrMemoryExceeded) {
		t.Fatalf("over-limit Grow: got %v, want ErrMemoryExceeded", err)
	}
	if got := b.Used(); got != 600 {
		t.Fatalf("failed Grow changed Used to %d, want 600", got)
	}
	b.Shrink(200)
	if err := b.Grow(500); err != nil {
		t.Fatalf("Grow after Shrink: %v", err)
	}
	if got, want := b.Used(), int64(900); got != want {
		t.Fatalf("Used = %d, want %d", got, want)
	}
	if got := b.Peak(); got != 900 {
		t.Fatalf("Peak = %d, want 900", got)
	}
	b.Close()
	if got := b.Used(); got != 0 {
		t.Fatalf("Used after Close = %d, want 0", got)
	}
}

func TestBudgetNilSafe(t *testing.T) {
	var b *Budget
	if err := b.Grow(1 << 40); err != nil {
		t.Fatalf("nil budget Grow: %v", err)
	}
	b.Shrink(5)
	b.NoteSpill(5)
	b.Close()
	if b.Limit() != 0 || b.Used() != 0 || b.Quantum() == 0 {
		t.Fatal("nil budget accessors broken")
	}
	var a *Account
	if err := a.Grow(1 << 40); err != nil {
		t.Fatalf("nil account Grow: %v", err)
	}
	a.Shrink(1)
	a.Clear()
	a.Close()
}

func TestGovernorTotalCapAcrossBudgets(t *testing.T) {
	g := NewGovernor()
	g.SetTotalLimit(1000)
	b1 := NewBudget(g, 0, "")
	b2 := NewBudget(g, 0, "")
	defer b1.Close()
	defer b2.Close()
	if err := b1.Grow(700); err != nil {
		t.Fatal(err)
	}
	if err := b2.Grow(400); !errors.Is(err, ErrMemoryExceeded) {
		t.Fatalf("total-cap Grow: got %v, want ErrMemoryExceeded", err)
	}
	if got := b2.Used(); got != 0 {
		t.Fatalf("failed governor reservation left %d on the budget", got)
	}
	b1.Close()
	if err := b2.Grow(400); err != nil {
		t.Fatalf("Grow after peer Close: %v", err)
	}
	if got := g.Stats().UsedBytes; got != 400 {
		t.Fatalf("governor used %d, want 400", got)
	}
}

func TestAccountQuantum(t *testing.T) {
	b := NewBudget(nil, 1<<20, "")
	defer b.Close()
	a := b.OpenAccount()
	q := b.Quantum()
	if err := a.Grow(1); err != nil {
		t.Fatal(err)
	}
	// One byte charged, one quantum reserved: the budget sees the chunk.
	if got := b.Used(); got != q {
		t.Fatalf("budget used %d after 1-byte Grow, want quantum %d", got, q)
	}
	// Growing within the chunk does not touch the budget.
	if err := a.Grow(q - 1); err != nil {
		t.Fatal(err)
	}
	if got := b.Used(); got != q {
		t.Fatalf("budget used %d, want still %d", got, q)
	}
	a.Shrink(q)
	if got := a.Used(); got != 0 {
		t.Fatalf("account used %d, want 0", got)
	}
	if freed := a.ReleaseIdle(); freed != q {
		t.Fatalf("ReleaseIdle freed %d, want %d", freed, q)
	}
	if got := b.Used(); got != 0 {
		t.Fatalf("budget used %d after ReleaseIdle, want 0", got)
	}
	a.Close()
}

func TestAccountGrowFailureLeavesStateForRetry(t *testing.T) {
	b := NewBudget(nil, 1024, "")
	defer b.Close()
	a := b.OpenAccount()
	if err := a.Grow(900); err != nil {
		t.Fatal(err)
	}
	before := a.Used()
	if err := a.Grow(500); !errors.Is(err, ErrMemoryExceeded) {
		t.Fatalf("got %v, want ErrMemoryExceeded", err)
	}
	if a.Used() != before {
		t.Fatalf("failed Grow mutated account: %d -> %d", before, a.Used())
	}
	// The spill path: clear and retry.
	a.Clear()
	if err := a.Grow(500); err != nil {
		t.Fatalf("Grow after Clear: %v", err)
	}
}

func TestSpillFileLifecycle(t *testing.T) {
	b := NewBudget(nil, 0, t.TempDir())
	sf, err := b.TempFile("test")
	if err != nil {
		t.Fatal(err)
	}
	path := sf.File().Name()
	if _, err := sf.File().WriteString("hello"); err != nil {
		t.Fatal(err)
	}
	sf.Close()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("spill file survives Close: %v", err)
	}
	// Files still registered at Budget.Close are removed with it.
	sf2, err := b.TempFile("leak")
	if err != nil {
		t.Fatal(err)
	}
	path2 := sf2.File().Name()
	b.Close()
	if _, err := os.Stat(path2); !os.IsNotExist(err) {
		t.Fatalf("spill file survives Budget.Close: %v", err)
	}
	if _, err := b.TempFile("late"); err == nil {
		t.Fatal("TempFile on closed budget succeeded")
	}
}

func TestAdmitFIFOAndRejection(t *testing.T) {
	g := NewGovernor()
	g.SetAdmission(1, 1)
	release, waited, err := g.Admit(context.Background())
	if err != nil || waited != 0 {
		t.Fatalf("first Admit: err=%v waited=%v", err, waited)
	}
	// Queue the one allowed waiter.
	got := make(chan error, 1)
	go func() {
		r, w, err := g.Admit(context.Background())
		if err == nil {
			if w <= 0 {
				err = errors.New("queued admit reports zero wait")
			}
			r()
		}
		got <- err
	}()
	// Wait until it is actually queued, then overflow the queue.
	for i := 0; g.Stats().Waiting == 0; i++ {
		if i > 1000 {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if _, _, err := g.Admit(context.Background()); !errors.Is(err, ErrAdmissionRejected) {
		t.Fatalf("overflow Admit: got %v, want ErrAdmissionRejected", err)
	}
	release()
	if err := <-got; err != nil {
		t.Fatalf("queued Admit: %v", err)
	}
	s := g.Stats()
	if s.Admitted != 2 || s.Rejected != 1 || s.Waited != 1 {
		t.Fatalf("stats = %+v, want admitted 2, rejected 1, waited 1", s)
	}
}

// TestAdmissionRejectRace rejects admissions while other goroutines take
// and release slots, so the rejection message's read of the running count
// overlaps their writes. Under -race this fails if the count is read
// outside the governor's mutex.
func TestAdmissionRejectRace(t *testing.T) {
	g := NewGovernor()
	g.SetAdmission(1, 0)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				release, _, err := g.Admit(context.Background())
				if err == nil {
					release()
				} else if !errors.Is(err, ErrAdmissionRejected) {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if s := g.Stats(); s.Admitted+s.Rejected != 2000 {
		t.Fatalf("stats = %+v, want admitted+rejected = 2000", s)
	}
}

func TestAdmitContextCancel(t *testing.T) {
	g := NewGovernor()
	g.SetAdmission(1, 4)
	release, _, err := g.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, _, err := g.Admit(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
	// An already-done context is bounced without queuing.
	done, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	if _, _, err := g.Admit(done); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want Canceled", err)
	}
	s := g.Stats()
	if s.Waiting != 0 {
		t.Fatalf("cancelled waiters still queued: %d", s.Waiting)
	}
}

func TestGovernorCloseDrains(t *testing.T) {
	g := NewGovernor()
	g.SetAdmission(2, 8)
	var releases []func()
	for i := 0; i < 2; i++ {
		r, _, err := g.Admit(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		releases = append(releases, r)
	}
	// A queued waiter sees ErrClosed when Close runs.
	queued := make(chan error, 1)
	go func() {
		_, _, err := g.Admit(context.Background())
		queued <- err
	}()
	for i := 0; g.Stats().Waiting == 0; i++ {
		if i > 1000 {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	closed := make(chan struct{})
	go func() {
		g.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned before running queries drained")
	case <-time.After(30 * time.Millisecond):
	}
	if err := <-queued; !errors.Is(err, ErrClosed) {
		t.Fatalf("queued waiter got %v, want ErrClosed", err)
	}
	for _, r := range releases {
		r()
	}
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not return after drain")
	}
	if _, _, err := g.Admit(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close Admit: got %v, want ErrClosed", err)
	}
	g.Close() // idempotent
}

func TestBudgetConcurrentGrow(t *testing.T) {
	g := NewGovernor()
	g.SetTotalLimit(1 << 20)
	b := NewBudget(g, 1<<20, "")
	defer b.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if err := b.Grow(64); err == nil {
					b.Shrink(64)
				}
			}
		}()
	}
	wg.Wait()
	if got := b.Used(); got != 0 {
		t.Fatalf("budget used %d after balanced grow/shrink, want 0", got)
	}
	if got := g.Stats().UsedBytes; got != 0 {
		t.Fatalf("governor used %d, want 0", got)
	}
}
