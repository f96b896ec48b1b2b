package engine

// Plan cache: prepared plans keyed by normalized SQL text + strategy, so
// parameterized queries amortize the two-pass EMST optimization (phase-1,
// magic transformation, phase-3, and both plan-optimization passes) across
// executions. `?` placeholders are opaque constants in the QGM — they add
// no quantifiers and no correlation — so every plan of a statement is
// correct for every binding. Which plan is cheapest does depend on the
// binding, though: a statement whose placeholders meet columns in
// comparisons carries bind-aware plan variants (variants.go) next to its
// generic plan, and the cache stores them with the entry, so every caller
// of the entry shares them.
//
// The cache is sharded to keep hot prepares from contending on one mutex,
// each shard is a bounded LRU, and misses are single-flighted: concurrent
// callers of the same key wait for one leader's optimization instead of
// repeating it. Entries are validated against the database's catalog epoch
// (bumped by DDL, DML, bulk loads, and ANALYZE); a stale entry is evicted
// and re-prepared on first touch. Errors are never cached.

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"

	"starmagic/internal/sql"
)

// cacheShardCount must be a power of two (shard pick masks the FNV hash).
const cacheShardCount = 16

// defaultCachePerShard bounds each shard's LRU: 16 shards × 64 = 1024 plans.
const defaultCachePerShard = 64

type planCache struct {
	// disabled is inverted so the zero value is an enabled cache.
	disabled atomic.Bool
	perShard int
	shards   [cacheShardCount]cacheShard
}

type cacheShard struct {
	mu  sync.Mutex
	lru *list.List // front = most recently used; values are *cacheEntry
	m   map[string]*list.Element
}

// cacheEntry is published to the shard map before its plan exists: ready
// closes once p/err are set, and waiters block on it (single-flight).
type cacheEntry struct {
	key   string
	ready chan struct{}
	epoch uint64 // catalog epoch the plan was prepared under
	p     *Prepared
	err   error
}

func newPlanCache(perShard int) *planCache {
	if perShard <= 0 {
		perShard = defaultCachePerShard
	}
	c := &planCache{perShard: perShard}
	for i := range c.shards {
		c.shards[i].lru = list.New()
		c.shards[i].m = make(map[string]*list.Element)
	}
	return c
}

func (c *planCache) enabled() bool { return !c.disabled.Load() }

func (c *planCache) len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.lru.Len()
		sh.mu.Unlock()
	}
	return n
}

func (c *planCache) purge() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.lru.Init()
		sh.m = make(map[string]*list.Element)
		sh.mu.Unlock()
	}
}

// removeLocked unlinks el from the LRU and the map; sh.mu must be held.
func (sh *cacheShard) removeLocked(el *list.Element) {
	sh.lru.Remove(el)
	delete(sh.m, el.Value.(*cacheEntry).key)
}

// cacheShardIndex is inline FNV-1a over the key, masked to a shard.
func cacheShardIndex(key string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return h & (cacheShardCount - 1)
}

// cacheKey identifies a plan: normalized SQL (whitespace, case, and comments
// do not fragment the cache) plus everything that changes the *stored* plan —
// strategy and snapshot capture. Per-call state (args, tracer, parallelism,
// row limit, materialized execution) stays out of the key: it is applied to
// a shallow per-call copy on every hit.
func cacheKey(query string, cfg queryConfig) string {
	k := sql.Normalize(query) + "\x00" + cfg.strategy.String()
	if cfg.snapshots {
		k += "\x00snap"
	}
	if cfg.forceEMST {
		k += "\x00force-emst"
	}
	return k
}

// withConfig returns a shallow copy of a cached plan bound to one call's
// per-call options and its own explain header. The graph, physical plan,
// and explain payload are shared read-only across all users of the entry.
func (p *Prepared) withConfig(cfg queryConfig, status string, epoch uint64) *Prepared {
	cp := *p
	cp.cfg = cfg
	ex := *p.explain
	ex.CacheStatus = status
	ex.CacheEpoch = epoch
	cp.explain = &ex
	return &cp
}

// prepareCached serves a prepare through the plan cache: hit, single-flight
// wait, or leader cold-prepare on miss. epoch is the catalog epoch the
// caller validated statistics against (see prepare); entries are stored and
// checked under it so a plan can never be cached under an epoch newer than
// the statistics it was optimized with.
func (db *Database) prepareCached(ctx context.Context, query string, cfg queryConfig, epoch uint64) (*Prepared, error) {
	key := cacheKey(query, cfg)
	sh := &db.plans.shards[cacheShardIndex(key)]
	for {
		sh.mu.Lock()
		if el, ok := sh.m[key]; ok {
			e := el.Value.(*cacheEntry)
			select {
			case <-e.ready:
				if e.err == nil && e.epoch == epoch {
					// Execution feedback marked this entry's estimates as off
					// by more than the q-error threshold: drop it and
					// re-optimize in its place with the observed cardinalities
					// injected as estimates. Exactly one caller consumes the
					// mark (takeReopt); concurrent prepares wait on the
					// replacement entry like any single-flight miss.
					if fb := e.p.fb; fb != nil && db.FeedbackEnabled() && fb.takeReopt() {
						sh.removeLocked(el)
						recfg := cfg
						recfg.hints = fb.hints(e.p.phys)
						db.metrics.RecordReopt()
						return db.leadPrepare(ctx, query, recfg, epoch, key, sh, "reopt")
					}
					sh.lru.MoveToFront(el)
					sh.mu.Unlock()
					db.metrics.RecordCacheHit()
					return e.p.withConfig(cfg, "hit", epoch), nil
				}
				// Stale (the epoch advanced since it was prepared): drop it
				// and take over as the new leader below, still locked.
				sh.removeLocked(el)
			default:
				// Another caller is optimizing this key right now: wait for
				// its result instead of repeating the work.
				sh.mu.Unlock()
				select {
				case <-e.ready:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
				if e.err == nil && e.epoch == epoch {
					db.metrics.RecordCacheShared()
					return e.p.withConfig(cfg, "hit", e.epoch), nil
				}
				continue // leader failed or entry went stale; retry
			}
		}
		// Miss: optimize cold as the leader for this key.
		db.metrics.RecordCacheMiss()
		return db.leadPrepare(ctx, query, cfg, epoch, key, sh, "miss")
	}
}

// leadPrepare makes the caller the single-flight leader for key: it publishes
// an in-flight entry (sh.mu must be held; leadPrepare unlocks it), runs the
// cold optimization outside the lock, and completes the entry so waiters
// unblock. cfg.hints carries injected feedback cardinalities on the "reopt"
// path.
func (db *Database) leadPrepare(ctx context.Context, query string, cfg queryConfig, epoch uint64, key string, sh *cacheShard, status string) (*Prepared, error) {
	e := &cacheEntry{key: key, ready: make(chan struct{}), epoch: epoch}
	el := sh.lru.PushFront(e)
	sh.m[key] = el
	evicted := 0
	for sh.lru.Len() > db.plans.perShard {
		sh.removeLocked(sh.lru.Back())
		evicted++
	}
	sh.mu.Unlock()
	if evicted > 0 {
		db.metrics.RecordCacheEvictions(evicted)
	}
	p, err := db.prepareCold(ctx, query, cfg)
	e.p, e.err = p, err
	close(e.ready)
	if err != nil {
		// Errors are not cached: remove the entry if it is still ours.
		sh.mu.Lock()
		if cur, ok := sh.m[key]; ok && cur.Value.(*cacheEntry) == e {
			sh.removeLocked(cur)
		}
		sh.mu.Unlock()
		return nil, err
	}
	return p.withConfig(cfg, status, epoch), nil
}

// SetPlanCache enables or disables the prepared-plan cache (it starts
// enabled). Disabling also clears it.
func (db *Database) SetPlanCache(enabled bool) {
	db.plans.disabled.Store(!enabled)
	if !enabled {
		db.plans.purge()
	}
}

// PlanCacheEnabled reports whether the plan cache is active.
func (db *Database) PlanCacheEnabled() bool { return db.plans.enabled() }

// PlanCacheStats is a point-in-time view of the plan cache for tooling
// (magicsql's `.cache stats`). Counters come from the metrics sink, so
// ResetMetrics zeroes them.
type PlanCacheStats struct {
	Enabled   bool
	Entries   int
	Hits      int64
	Misses    int64
	Shared    int64 // prepares served by waiting on another caller's miss
	Evictions int64
}

// PlanCacheStats snapshots the cache state and counters.
func (db *Database) PlanCacheStats() PlanCacheStats {
	m := db.metrics.Snapshot()
	return PlanCacheStats{
		Enabled:   db.plans.enabled(),
		Entries:   db.plans.len(),
		Hits:      m.CacheHits,
		Misses:    m.CacheMisses,
		Shared:    m.CacheShared,
		Evictions: m.CacheEvictions,
	}
}
