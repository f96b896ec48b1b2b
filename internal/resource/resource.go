// Package resource provides memory governance and admission control for
// query execution.
//
// Three layers form a hierarchy:
//
//	Governor — engine-wide. Caps total reserved memory across all running
//	          queries and how many queries run at once (bounded wait queue,
//	          deadline-aware rejection).
//	Budget   — per-query. Atomic reservation against an optional per-query
//	          limit and against the Governor's total cap; owns the query's
//	          spill files and tears them down on Close.
//	Account  — per-operator. A single-goroutine child of a Budget that
//	          reserves in quanta to keep the atomic hot path off the
//	          per-row path.
//
// Operators that can spill call Account.Grow before buffering a row; on
// ErrMemoryExceeded they move state to disk (freeing their reservation) and
// retry. Operators that cannot spill propagate the typed error, which the
// engine surfaces instead of letting the process OOM.
package resource

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// ErrMemoryExceeded is the sentinel wrapped by every memory-budget failure.
// Callers detect it with errors.Is.
var ErrMemoryExceeded = errors.New("memory budget exceeded")

// ErrAdmissionRejected is returned by Governor.Admit when the concurrency
// cap is reached and the bounded wait queue is full.
var ErrAdmissionRejected = errors.New("admission queue full")

// ErrClosed is returned by Governor.Admit after Close.
var ErrClosed = errors.New("resource governor closed")

// GovernorStats is a point-in-time snapshot of a Governor's counters.
type GovernorStats struct {
	// UsedBytes is memory currently reserved across all running queries.
	UsedBytes int64
	// PeakBytes is the high-water mark of UsedBytes.
	PeakBytes int64
	// TotalLimitBytes is the engine-wide cap (0 = unlimited).
	TotalLimitBytes int64
	// SpilledBytes and Spills accumulate over all completed budgets.
	SpilledBytes int64
	Spills       int64
	// Running and Waiting are the current admission occupancy.
	Running int
	Waiting int
	// PeakRunning is the most queries ever running at once.
	PeakRunning int
	// Admitted counts successful Admit calls, Waited those that queued
	// first, Rejected those bounced on a full queue, and WaitNanos the
	// total time spent queued.
	Admitted  int64
	Waited    int64
	Rejected  int64
	WaitNanos int64
}

type waiter struct {
	ch      chan struct{}
	granted bool
}

// Governor enforces engine-wide memory and concurrency caps. The zero value
// is not usable; call NewGovernor. All methods are safe for concurrent use.
type Governor struct {
	totalLimit atomic.Int64
	used       atomic.Int64
	peak       atomic.Int64

	// admissionOn mirrors maxConcurrent > 0 so the engine's per-query fast
	// path can skip Admit (and its mutex) without locking.
	admissionOn atomic.Bool

	spilledBytes atomic.Int64
	spills       atomic.Int64

	mu            sync.Mutex
	maxConcurrent int
	maxQueue      int
	running       int
	queue         list.List // of *waiter, FIFO
	closed        bool
	drained       chan struct{} // closed when running hits 0 after Close

	peakRunning int
	admitted    int64
	waited      int64
	rejected    int64
	waitNanos   int64
}

// NewGovernor returns a Governor with no limits set.
func NewGovernor() *Governor {
	return &Governor{}
}

// SetTotalLimit caps total reserved memory across all queries; 0 removes
// the cap.
func (g *Governor) SetTotalLimit(bytes int64) {
	if bytes < 0 {
		bytes = 0
	}
	g.totalLimit.Store(bytes)
}

// TotalLimit reports the engine-wide memory cap (0 = unlimited).
func (g *Governor) TotalLimit() int64 { return g.totalLimit.Load() }

// SetAdmission configures admission control: at most maxConcurrent queries
// execute at once and at most maxQueue more wait for a slot. maxConcurrent
// <= 0 disables admission control entirely; maxQueue < 0 is treated as 0
// (immediate rejection when saturated).
func (g *Governor) SetAdmission(maxConcurrent, maxQueue int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if maxQueue < 0 {
		maxQueue = 0
	}
	g.maxConcurrent = maxConcurrent
	g.maxQueue = maxQueue
	g.admissionOn.Store(maxConcurrent > 0)
	// A raised cap frees queued waiters immediately.
	g.dispatchLocked()
}

// AdmissionEnabled reports whether a concurrency cap is configured. It is a
// lock-free hint for callers that want to skip Admit entirely when admission
// control is off.
func (g *Governor) AdmissionEnabled() bool { return g.admissionOn.Load() }

// Admit blocks until the query may run, the context is done, or the wait
// queue overflows. On success it returns a release func that MUST be called
// exactly once when the query finishes, plus the time spent queued (0 when a
// slot was free immediately).
func (g *Governor) Admit(ctx context.Context) (func(), time.Duration, error) {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil, 0, ErrClosed
	}
	g.admitted++
	if g.maxConcurrent <= 0 || g.running < g.maxConcurrent {
		g.startLocked()
		g.mu.Unlock()
		return g.releaseFunc(), 0, nil
	}
	// Deadline-aware rejection: a context that is already done never gets
	// a slot, so bounce it without consuming queue capacity.
	if err := ctx.Err(); err != nil {
		g.admitted--
		g.rejected++
		g.mu.Unlock()
		return nil, 0, err
	}
	if g.queue.Len() >= g.maxQueue {
		g.admitted--
		g.rejected++
		running, queued := g.running, g.maxQueue
		g.mu.Unlock()
		return nil, 0, fmt.Errorf("%w (running %d, queued %d)", ErrAdmissionRejected, running, queued)
	}
	w := &waiter{ch: make(chan struct{})}
	elem := g.queue.PushBack(w)
	g.waited++
	g.mu.Unlock()

	start := time.Now()
	select {
	case <-w.ch:
		waited := time.Since(start)
		g.mu.Lock()
		g.waitNanos += waited.Nanoseconds()
		if !w.granted { // woken by Close
			g.mu.Unlock()
			return nil, waited, ErrClosed
		}
		g.mu.Unlock()
		return g.releaseFunc(), waited, nil
	case <-ctx.Done():
		waited := time.Since(start)
		g.mu.Lock()
		g.waitNanos += waited.Nanoseconds()
		select {
		case <-w.ch:
			// Raced with a grant: the slot is ours, give it back.
			if w.granted {
				g.finishLocked()
			}
		default:
			g.queue.Remove(elem)
			g.admitted--
			g.rejected++
		}
		g.mu.Unlock()
		return nil, waited, ctx.Err()
	}
}

func (g *Governor) startLocked() {
	g.running++
	if g.running > g.peakRunning {
		g.peakRunning = g.running
	}
}

func (g *Governor) releaseFunc() func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			g.mu.Lock()
			g.finishLocked()
			g.mu.Unlock()
		})
	}
}

func (g *Governor) finishLocked() {
	g.running--
	g.dispatchLocked()
	if g.closed && g.running == 0 && g.drained != nil {
		close(g.drained)
		g.drained = nil
	}
}

// dispatchLocked hands free slots to queued waiters in FIFO order.
func (g *Governor) dispatchLocked() {
	for g.queue.Len() > 0 && (g.maxConcurrent <= 0 || g.running < g.maxConcurrent) {
		w := g.queue.Remove(g.queue.Front()).(*waiter)
		w.granted = true
		g.startLocked()
		close(w.ch)
	}
}

// Close rejects all queued waiters, causes future Admit calls to fail with
// ErrClosed, and blocks until running queries drain.
func (g *Governor) Close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	for g.queue.Len() > 0 {
		w := g.queue.Remove(g.queue.Front()).(*waiter)
		close(w.ch) // granted stays false → waiter sees ErrClosed
	}
	var drained chan struct{}
	if g.running > 0 {
		drained = make(chan struct{})
		g.drained = drained
	}
	g.mu.Unlock()
	if drained != nil {
		<-drained
	}
}

// Stats returns a snapshot of the governor's counters.
func (g *Governor) Stats() GovernorStats {
	g.mu.Lock()
	s := GovernorStats{
		Running:     g.running,
		Waiting:     g.queue.Len(),
		PeakRunning: g.peakRunning,
		Admitted:    g.admitted,
		Waited:      g.waited,
		Rejected:    g.rejected,
		WaitNanos:   g.waitNanos,
	}
	g.mu.Unlock()
	s.UsedBytes = g.used.Load()
	s.PeakBytes = g.peak.Load()
	s.TotalLimitBytes = g.totalLimit.Load()
	s.SpilledBytes = g.spilledBytes.Load()
	s.Spills = g.spills.Load()
	return s
}

func (g *Governor) reserve(n int64) error {
	limit := g.totalLimit.Load()
	for {
		cur := g.used.Load()
		if limit > 0 && cur+n > limit {
			return fmt.Errorf("%w: engine total %d + %d > limit %d", ErrMemoryExceeded, cur, n, limit)
		}
		if g.used.CompareAndSwap(cur, cur+n) {
			updatePeak(&g.peak, cur+n)
			return nil
		}
	}
}

func (g *Governor) release(n int64) { g.used.Add(-n) }

func (g *Governor) noteSpill(bytes int64) {
	g.spills.Add(1)
	g.spilledBytes.Add(bytes)
}

func updatePeak(peak *atomic.Int64, v int64) {
	for {
		p := peak.Load()
		if v <= p || peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// Budget tracks one query's memory. Grow/Shrink are safe for concurrent use
// (parallel subtree prefetch shares the budget across worker evaluators).
// A nil *Budget is valid and unlimited.
type Budget struct {
	gov   *Governor // optional engine-wide cap
	limit int64     // per-query cap; 0 = unlimited

	used atomic.Int64
	peak atomic.Int64

	spilledBytes atomic.Int64
	spills       atomic.Int64

	quantum int64

	mu     sync.Mutex
	files  map[*SpillFile]struct{}
	dir    string
	closed bool
}

// NewBudget creates a per-query budget. gov may be nil (no engine-wide
// cap); limit 0 means no per-query cap; dir "" spills to os.TempDir().
func NewBudget(gov *Governor, limit int64, dir string) *Budget {
	if limit < 0 {
		limit = 0
	}
	q := int64(32 << 10)
	if limit > 0 && limit/16 < q {
		q = limit / 16
		if q < 256 {
			q = 256
		}
	}
	return &Budget{gov: gov, limit: limit, quantum: q, dir: dir}
}

// Limit reports the per-query cap (0 = unlimited).
func (b *Budget) Limit() int64 {
	if b == nil {
		return 0
	}
	return b.limit
}

// Grow reserves n more bytes, failing with ErrMemoryExceeded if either the
// per-query limit or the governor's total cap would be exceeded.
func (b *Budget) Grow(n int64) error {
	if b == nil || n == 0 {
		return nil
	}
	for {
		cur := b.used.Load()
		if b.limit > 0 && cur+n > b.limit {
			return fmt.Errorf("%w: query %d + %d > limit %d", ErrMemoryExceeded, cur, n, b.limit)
		}
		if b.used.CompareAndSwap(cur, cur+n) {
			break
		}
	}
	if b.gov != nil {
		if err := b.gov.reserve(n); err != nil {
			b.used.Add(-n)
			return err
		}
	}
	updatePeak(&b.peak, b.used.Load())
	return nil
}

// Shrink returns n bytes to the budget (and the governor).
func (b *Budget) Shrink(n int64) {
	if b == nil || n == 0 {
		return
	}
	b.used.Add(-n)
	if b.gov != nil {
		b.gov.release(n)
	}
}

// NoteSpill records that bytes were written to disk in one spill event.
func (b *Budget) NoteSpill(bytes int64) {
	if b == nil {
		return
	}
	b.spills.Add(1)
	b.spilledBytes.Add(bytes)
	if b.gov != nil {
		b.gov.noteSpill(bytes)
	}
}

// Used reports currently reserved bytes.
func (b *Budget) Used() int64 {
	if b == nil {
		return 0
	}
	return b.used.Load()
}

// Peak reports the reservation high-water mark.
func (b *Budget) Peak() int64 {
	if b == nil {
		return 0
	}
	return b.peak.Load()
}

// SpilledBytes reports total bytes written to spill files.
func (b *Budget) SpilledBytes() int64 {
	if b == nil {
		return 0
	}
	return b.spilledBytes.Load()
}

// Spills reports the number of spill events.
func (b *Budget) Spills() int64 {
	if b == nil {
		return 0
	}
	return b.spills.Load()
}

// Quantum is the suggested per-operator reservation chunk, scaled down for
// small budgets so a quantum can never dwarf the whole limit.
func (b *Budget) Quantum() int64 {
	if b == nil {
		return 32 << 10
	}
	return b.quantum
}

// Close releases all outstanding reservations and deletes any spill files
// still registered. Idempotent.
func (b *Budget) Close() {
	if b == nil {
		return
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	files := b.files
	b.files = nil
	b.mu.Unlock()
	for f := range files {
		f.remove()
	}
	if n := b.used.Swap(0); n != 0 && b.gov != nil {
		b.gov.release(n)
	}
}

// TempFile creates a spill file owned by this budget. The file is deleted
// on SpillFile.Close or, at the latest, on Budget.Close.
func (b *Budget) TempFile(pattern string) (*SpillFile, error) {
	if b == nil {
		return nil, errors.New("resource: TempFile on nil budget")
	}
	dir := b.dir
	if dir == "" {
		dir = os.TempDir()
	}
	f, err := os.CreateTemp(dir, "starmagic-"+pattern+"-*.spill")
	if err != nil {
		return nil, fmt.Errorf("resource: create spill file: %w", err)
	}
	sf := &SpillFile{f: f, path: f.Name(), b: b}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		sf.remove()
		return nil, errors.New("resource: TempFile on closed budget")
	}
	if b.files == nil {
		b.files = make(map[*SpillFile]struct{})
	}
	b.files[sf] = struct{}{}
	b.mu.Unlock()
	return sf, nil
}

// SpillFile is a temp file registered with a Budget for cleanup.
type SpillFile struct {
	f    *os.File
	path string
	b    *Budget
	done bool
}

// File exposes the underlying *os.File for reads, writes, and seeks.
func (s *SpillFile) File() *os.File { return s.f }

// Close closes and deletes the file and unregisters it from the budget.
func (s *SpillFile) Close() {
	if s == nil || s.done {
		return
	}
	s.b.mu.Lock()
	delete(s.b.files, s)
	s.b.mu.Unlock()
	s.remove()
}

func (s *SpillFile) remove() {
	if s.done {
		return
	}
	s.done = true
	s.f.Close()
	os.Remove(s.path)
}

// Account is a per-operator child of a Budget. It reserves from the budget
// in quantum-sized chunks so per-row Grow calls stay cheap, and returns its
// whole reservation on Close. Not safe for concurrent use: each operator
// owns its own Account. A nil *Account is valid and unlimited.
type Account struct {
	b        *Budget
	used     int64
	reserved int64
}

// OpenAccount creates an operator-level account. Returns nil (a no-op
// account) when b is nil.
func (b *Budget) OpenAccount() *Account {
	if b == nil {
		return nil
	}
	return &Account{b: b}
}

// Grow charges n bytes to the account, reserving more from the budget when
// the chunk runs out. On failure the account is left unchanged so the
// caller can spill and retry.
func (a *Account) Grow(n int64) error {
	if a == nil || a.b == nil {
		return nil
	}
	if a.used+n <= a.reserved {
		a.used += n
		return nil
	}
	q := a.b.quantum
	need := a.used + n - a.reserved
	need = (need + q - 1) / q * q
	if err := a.b.Grow(need); err != nil {
		return err
	}
	a.reserved += need
	a.used += n
	return nil
}

// Shrink uncharges n bytes. When the idle chunk grows past two quanta the
// excess is returned to the budget so other operators can use it.
func (a *Account) Shrink(n int64) {
	if a == nil || a.b == nil {
		return
	}
	a.used -= n
	if a.used < 0 {
		a.used = 0
	}
	if idle := a.reserved - a.used; idle > 2*a.b.quantum {
		give := idle - a.b.quantum
		a.reserved -= give
		a.b.Shrink(give)
	}
}

// ReleaseIdle returns the account's entire idle reservation (reserved minus
// used) to the budget, reporting how many bytes were released. The next Grow
// re-reserves a fresh quantum chunk. Used when another operator is under
// memory pressure and this account's owner has just paged state out.
func (a *Account) ReleaseIdle() int64 {
	if a == nil || a.b == nil {
		return 0
	}
	idle := a.reserved - a.used
	if idle <= 0 {
		return 0
	}
	a.reserved = a.used
	a.b.Shrink(idle)
	return idle
}

// Clear uncharges everything and returns the full reservation to the
// budget (used when an operator spills its whole state).
func (a *Account) Clear() {
	if a == nil || a.b == nil {
		return
	}
	a.used = 0
	if a.reserved > 0 {
		a.b.Shrink(a.reserved)
		a.reserved = 0
	}
}

// Used reports bytes currently charged to the account.
func (a *Account) Used() int64 {
	if a == nil {
		return 0
	}
	return a.used
}

// Close returns the account's reservation to the budget.
func (a *Account) Close() { a.Clear() }
