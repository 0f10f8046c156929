package driver

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/iloc"
)

// The result cache is content-addressed: a finished allocation is stored
// under the hash of the routine's canonical printed form plus a
// canonicalized rendering of the options that produced it. Two parses of
// the same source, or two Options values that differ only in
// presentation (a machine's Name, an explicit MaxIterations equal to the
// default), therefore share one entry, while anything that can change
// the allocator's output — the strategy spec (which carries the
// splitting scheme, spill metric and ablation switches), register
// counts, the cost model — separates keys. The strategy contributes its
// canonical Spec, so two spellings of one configuration share an entry
// while two configurations never do.

// Key identifies one (routine, options) allocation in the cache.
type Key string

// KeyFor computes the content address of allocating rt under opts. The
// routine contributes its canonical printed form (iloc.Print output
// round-trips, so formatting of the original source is irrelevant); the
// options contribute their semantic fields after defaulting, with the
// machine identified by its register file and cost model rather than its
// display name. The digest is SHA-256 over the options key, a NUL and
// the printed routine, appended into one reused buffer.
func KeyFor(rt *iloc.Routine, opts core.Options) Key {
	bp := keyBufs.Get().(*[]byte)
	buf := appendOptionsKey((*bp)[:0], opts)
	buf = append(buf, 0)
	buf = iloc.AppendPrint(buf, rt)
	sum := sha256.Sum256(buf)
	if cap(buf) <= maxKeyBuf {
		*bp = buf
		keyBufs.Put(bp)
	}
	var hexSum [2 * sha256.Size]byte
	hex.Encode(hexSum[:], sum[:])
	return Key(hexSum[:])
}

// keyBufs holds KeyFor's buffers; one larger than maxKeyBuf, from an
// unusually long routine, is left to the collector.
var keyBufs = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

const maxKeyBuf = 1 << 20

// CanonicalOptionsKey renders the semantic content of opts
// deterministically — the options half of the cache key. The disk
// store records it inside each entry so `ralloc-bundle inspect` can
// say what configuration produced an allocation.
func CanonicalOptionsKey(opts core.Options) string { return string(appendOptionsKey(nil, opts)) }

// appendOptionsKey appends the semantic content of opts, rendered
// deterministically, to dst.
func appendOptionsKey(dst []byte, opts core.Options) []byte {
	o := opts.Canonical()
	m := o.Machine
	dst = append(dst, "strategy="...)
	dst = append(dst, o.Strategy...)
	dst = append(dst, " regs="...)
	dst = strconv.AppendInt(dst, int64(m.Regs[0]), 10)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(m.Regs[1]), 10)
	dst = append(dst, " callersave="...)
	dst = strconv.AppendInt(dst, int64(m.CallerSave), 10)
	dst = append(dst, " mem="...)
	dst = strconv.AppendInt(dst, int64(m.MemCycles), 10)
	dst = append(dst, " other="...)
	dst = strconv.AppendInt(dst, int64(m.OtherCycles), 10)
	dst = append(dst, " maxiter="...)
	dst = strconv.AppendInt(dst, int64(o.MaxIterations), 10)
	dst = append(dst, " verify="...)
	dst = strconv.AppendBool(dst, o.Verify)
	dst = append(dst, " nodegrade="...)
	return strconv.AppendBool(dst, o.DisableDegradation)
}

// ResultCache is what the engine needs from a cache: the in-memory
// LRU below implements it, as does the tiered persistent store
// (internal/store). Implementations must be safe for concurrent use
// and must return results the caller may mutate freely.
type ResultCache interface {
	Get(Key) (*core.Result, bool)
	Put(Key, *core.Result)
}

// TierGetter is optionally implemented by tiered caches: GetTier
// additionally reports which tier satisfied the lookup ("l1", "l2"),
// which the engine records in UnitResult.CacheTier.
type TierGetter interface {
	GetTier(Key) (*core.Result, string, bool)
}

// OptionsPutter is optionally implemented by caches that persist
// entries: PutOptions carries the canonical options key alongside the
// result so the stored entry can describe its own configuration.
type OptionsPutter interface {
	PutOptions(Key, *core.Result, string)
}

// CacheStats is a point-in-time snapshot of a cache's counters.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Cache is a bounded, concurrency-safe, content-addressed store of
// finished allocations with LRU eviction. Stored results are snapshots:
// Get returns a fresh copy whose Routine the caller may mutate freely.
type Cache struct {
	mu        sync.Mutex
	capacity  int        // max entries; 0 means unbounded
	order     *list.List // front = most recently used; values are *cacheEntry
	entries   map[Key]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
}

type cacheEntry struct {
	key Key
	res *core.Result
}

// NewCache returns a cache holding at most capacity entries (0 =
// unbounded).
func NewCache(capacity int) *Cache {
	return &Cache{
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[Key]*list.Element),
	}
}

// Get looks the key up, counting a hit or miss. The returned Result is
// an independent snapshot (cloned routine, copied iteration records).
func (c *Cache) Get(key Key) (*core.Result, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return snapshotResult(el.Value.(*cacheEntry).res), true
}

// Put stores an independent snapshot of res under key, evicting the
// least recently used entry if the cache is full.
func (c *Cache) Put(key Key, res *core.Result) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).res = snapshotResult(res)
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, res: snapshotResult(res)})
	if c.capacity > 0 && c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// Len returns the number of cached allocations.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Entries: c.order.Len()}
}

// snapshotResult copies a Result deeply enough that the caller and the
// cache cannot observe each other's mutations: the routine is cloned and
// the iteration records copied (their contents are never mutated after
// Allocate returns).
func snapshotResult(res *core.Result) *core.Result {
	c := *res
	c.Routine = res.Routine.Clone()
	c.Iterations = append([]core.IterationStats(nil), res.Iterations...)
	return &c
}
