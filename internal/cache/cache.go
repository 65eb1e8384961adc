// Package cache is the serving-path extraction cache: a sharded,
// content-addressed map from request keys to immutable values, with
// cost-based (byte-budget) LRU eviction, optional TTL expiry, and per-key
// singleflight coalescing so a stampede of identical requests runs the
// underlying computation once and fans the result out.
//
// The cache stores opaque values and never copies or inspects them; callers
// are responsible for only inserting values that are safe to hand to any
// number of concurrent readers (the formext facade freezes extraction
// results before caching them — see Result.Freeze).
//
// Failure containment: a computation that ends in an error — a recovered
// panic, a cancelled context, a degraded-by-deadline result the caller
// marks non-cacheable — is never inserted and never poisons later callers.
// Waiters coalesced onto a flight that resolves without a cacheable value
// retry: they re-check the cache and, if still empty, run the computation
// themselves under their own context. Even a computation that panics
// unwinds cleanly: the flight is resolved before the panic propagates, so
// no waiter is left blocked forever.
package cache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// Key addresses one cache entry. Keys are expected to be cryptographic
// content hashes (the facade derives them with SHA-256 over the page bytes,
// grammar fingerprint and options fingerprint), so they are uniformly
// distributed and shard selection can read raw key bytes.
type Key [32]byte

// Config sizes a Cache.
type Config struct {
	// MaxBytes is the total byte budget across all shards, measured in the
	// caller-supplied cost of each entry. Must be positive.
	MaxBytes int64
	// TTL bounds entry lifetime; 0 means entries live until evicted.
	TTL time.Duration
	// Shards is the shard count, rounded up to a power of two; 0 means
	// DefaultShards. More shards reduce lock contention; each shard owns
	// MaxBytes/Shards of the budget.
	Shards int
	// Now overrides the clock, for TTL tests. Nil means time.Now.
	Now func() time.Time
}

// DefaultShards is the default shard count.
const DefaultShards = 16

// Outcome classifies how one Do call obtained its value.
type Outcome int

const (
	// OutcomeLeader: this caller ran the computation itself.
	OutcomeLeader Outcome = iota
	// OutcomeHit: the value was already cached.
	OutcomeHit
	// OutcomeCoalesced: the caller waited on another caller's in-flight
	// computation and shares its value.
	OutcomeCoalesced
)

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits counts lookups answered from a cached entry.
	Hits uint64
	// Misses counts computations led (every Do that ran its fn).
	Misses uint64
	// Coalesced counts callers that shared another caller's in-flight
	// computation instead of running their own.
	Coalesced uint64
	// Evictions counts entries removed by LRU pressure or TTL expiry.
	Evictions uint64
	// Bytes is the current cost total of all cached entries.
	Bytes int64
	// Entries is the current entry count.
	Entries int
}

// Cache is the sharded cache. Safe for concurrent use.
type Cache struct {
	shards    []shard
	mask      uint64
	perShard  int64 // byte budget per shard
	ttl       time.Duration
	now       func() time.Time
	hits      atomic.Uint64
	misses    atomic.Uint64
	coalesced atomic.Uint64
	evictions atomic.Uint64
	bytes     atomic.Int64
}

// New builds a cache. MaxBytes must be positive — a zero-byte cache is
// "caching disabled", which callers express by not constructing one.
func New(cfg Config) (*Cache, error) {
	if cfg.MaxBytes <= 0 {
		return nil, errors.New("cache: MaxBytes must be positive")
	}
	if cfg.TTL < 0 {
		return nil, errors.New("cache: negative TTL")
	}
	n := cfg.Shards
	if n <= 0 {
		n = DefaultShards
	}
	// Round up to a power of two so shard selection is a mask.
	shards := 1
	for shards < n {
		shards <<= 1
	}
	per := cfg.MaxBytes / int64(shards)
	if per < 1 {
		per = 1
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	c := &Cache{
		shards:   make([]shard, shards),
		mask:     uint64(shards - 1),
		perShard: per,
		ttl:      cfg.TTL,
		now:      now,
	}
	for i := range c.shards {
		c.shards[i].init()
	}
	return c, nil
}

// Stats returns a snapshot of the counters. Entries is summed under the
// shard locks; the atomic counters are read without synchronization, so the
// snapshot is approximate under concurrent traffic (as any snapshot is).
func (c *Cache) Stats() Stats {
	s := Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Evictions: c.evictions.Load(),
		Bytes:     c.bytes.Load(),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		s.Entries += len(sh.items)
		sh.mu.Unlock()
	}
	return s
}

// Lookup returns the cached value for k, bumping it to most-recently-used.
// It counts a hit when found and nothing when not (the caller is expected
// to follow a failed Lookup with Do, which counts the miss), so the fast
// path of a serving layer can check the cache without committing to a
// computation.
func (c *Cache) Lookup(k Key) (any, bool) {
	sh := c.shardOf(k)
	sh.mu.Lock()
	e := c.lookupLocked(sh, k)
	if e == nil {
		sh.mu.Unlock()
		return nil, false
	}
	v := e.val
	sh.mu.Unlock()
	c.hits.Add(1)
	return v, true
}

// Do returns the value for k: from the cache, from another caller's
// in-flight computation, or by running fn. fn returns the value, its
// approximate byte cost, whether the value may be cached and shared, and an
// error. Only cacheable, error-free values are inserted and fanned out to
// coalesced waiters; any other outcome is returned to the leader alone,
// and waiters retry (re-checking the cache, then computing under their own
// ctx). ctx bounds only the caller's wait on someone else's flight — fn is
// responsible for honoring whatever context it captured.
//
// The leader's return value is fn's, verbatim, even on error: formext's
// contract of "partial result alongside the error" passes through.
func (c *Cache) Do(ctx context.Context, k Key, fn func() (val any, cost int64, cacheable bool, err error)) (any, Outcome, error) {
	sh := c.shardOf(k)
	for {
		sh.mu.Lock()
		if e := c.lookupLocked(sh, k); e != nil {
			v := e.val
			sh.mu.Unlock()
			c.hits.Add(1)
			return v, OutcomeHit, nil
		}
		if f, ok := sh.flights[k]; ok {
			sh.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, OutcomeCoalesced, ctx.Err()
			}
			if f.ok {
				c.coalesced.Add(1)
				return f.val, OutcomeCoalesced, nil
			}
			// The flight resolved without a shareable value (an error, a
			// panic, a non-cacheable result). Its failure belongs to its
			// leader; this caller starts over.
			continue
		}
		f := &flight{done: make(chan struct{})}
		sh.flights[k] = f
		sh.mu.Unlock()
		return c.lead(sh, k, f, fn)
	}
}

// lead runs fn as the flight's leader. The deferred resolution runs even
// when fn panics: the flight is removed and its waiters released (with no
// shared value) before the panic continues to the caller's containment
// boundary, so a panicking computation cannot strand waiters or poison the
// key.
func (c *Cache) lead(sh *shard, k Key, f *flight, fn func() (any, int64, bool, error)) (val any, _ Outcome, err error) {
	defer func() {
		sh.mu.Lock()
		if f.ok {
			c.insertLocked(sh, k, f.val, f.cost)
		}
		delete(sh.flights, k)
		sh.mu.Unlock()
		close(f.done)
	}()
	c.misses.Add(1)
	val, cost, cacheable, err := fn()
	if err == nil && cacheable {
		f.val, f.cost, f.ok = val, cost, true
	}
	return val, OutcomeLeader, err
}

// ---- shards ----

// EntryBytes is what the cache itself keeps resident per entry, for callers
// to fold into the cost they charge: the entry struct, its intrusive LRU
// links included, and its slot in the shard's index map (a key, a pointer
// and a control byte, at the map's typical two-thirds load).
const EntryBytes = int64(unsafe.Sizeof(entry{})) + (int64(unsafe.Sizeof(Key{}))+8+1)*3/2

// entry is one cached value on its shard's intrusive LRU ring.
type entry struct {
	key        Key
	val        any
	cost       int64
	expires    time.Time // zero: never
	prev, next *entry
}

// flight is one in-progress computation. done is closed exactly once, after
// the outcome fields are final and the flight is unregistered.
type flight struct {
	done chan struct{}
	val  any
	cost int64
	ok   bool // val is cacheable and may be shared
}

// shard is one lock domain: an LRU ring (root.next is most recent,
// root.prev least recent), the entry index, and the in-flight computations
// keyed here.
type shard struct {
	mu      sync.Mutex
	items   map[Key]*entry
	root    entry // sentinel of the LRU ring
	bytes   int64
	flights map[Key]*flight
}

func (sh *shard) init() {
	sh.items = make(map[Key]*entry)
	sh.flights = make(map[Key]*flight)
	sh.root.prev = &sh.root
	sh.root.next = &sh.root
}

func (c *Cache) shardOf(k Key) *shard {
	// Keys are cryptographic hashes; the low bytes are as good as any.
	i := uint64(k[0]) | uint64(k[1])<<8 | uint64(k[2])<<16 | uint64(k[3])<<24
	return &c.shards[i&c.mask]
}

// lookupLocked finds a live entry, expiring it if its TTL has passed and
// bumping it to most-recently-used otherwise. Caller holds sh.mu.
func (c *Cache) lookupLocked(sh *shard, k Key) *entry {
	e, ok := sh.items[k]
	if !ok {
		return nil
	}
	if !e.expires.IsZero() && !c.now().Before(e.expires) {
		c.removeLocked(sh, e)
		c.evictions.Add(1)
		return nil
	}
	e.unlink()
	e.linkAfter(&sh.root)
	return e
}

// insertLocked adds a value, evicting from the cold end until the shard is
// within budget. A value whose cost exceeds the whole shard budget is not
// cached at all — inserting it would only evict everything and then itself.
// Caller holds sh.mu.
func (c *Cache) insertLocked(sh *shard, k Key, v any, cost int64) {
	if cost > c.perShard {
		return
	}
	if old, ok := sh.items[k]; ok {
		c.removeLocked(sh, old)
	}
	e := &entry{key: k, val: v, cost: cost}
	if c.ttl > 0 {
		e.expires = c.now().Add(c.ttl)
	}
	sh.items[k] = e
	e.linkAfter(&sh.root)
	sh.bytes += cost
	c.bytes.Add(cost)
	for sh.bytes > c.perShard {
		cold := sh.root.prev
		if cold == &sh.root {
			break
		}
		c.removeLocked(sh, cold)
		c.evictions.Add(1)
	}
}

// removeLocked unlinks an entry and returns its budget. Caller holds sh.mu.
func (c *Cache) removeLocked(sh *shard, e *entry) {
	e.unlink()
	delete(sh.items, e.key)
	sh.bytes -= e.cost
	c.bytes.Add(-e.cost)
}

func (e *entry) unlink() {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

func (e *entry) linkAfter(at *entry) {
	e.prev = at
	e.next = at.next
	at.next.prev = e
	at.next = e
}
