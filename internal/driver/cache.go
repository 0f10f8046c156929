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
	// Bytes is the encoded size of the result snapshots held (in-memory
	// caches only).
	Bytes int64 `json:"bytes"`
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Cache is a bounded, concurrency-safe, content-addressed store of
// finished allocations with LRU eviction. Each entry is one immutable
// core.Snapshot, a few hundred pointer-free bytes: Put encodes before
// it takes the lock, and Get decodes a fresh Result, which the caller
// may mutate freely, after it lets the lock go. A hit carries what the
// allocation determines and a disk entry carries too: its code, frame,
// register counts and statistics, but no CFG edges, loop depths or
// pass wall times, so both cache tiers return the same result.
type Cache struct {
	mu        sync.Mutex
	capacity  int        // max entries; 0 means unbounded
	order     *list.List // front = most recently used; values are *cacheEntry
	entries   map[Key]*list.Element
	bytes     int64 // sum of the entries' snapshot sizes
	hits      uint64
	misses    uint64
	evictions uint64
}

type cacheEntry struct {
	key  Key
	snap core.Snapshot
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

// Get looks the key up, counting a hit or miss, and decodes the entry
// into a fresh Result. A snapshot that fails to decode, which only a
// codec bug could cause, reads as a miss.
func (c *Cache) Get(key Key) (*core.Result, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		c.mu.Unlock()
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	snap := el.Value.(*cacheEntry).snap
	c.mu.Unlock()
	res, err := snap.Result()
	return res, err == nil
}

// Put stores a snapshot of res under key, evicting the least recently
// used entry if the cache is full.
func (c *Cache) Put(key Key, res *core.Result) {
	if c == nil {
		return
	}
	c.PutSnapshot(key, core.NewSnapshot(res))
}

// PutSnapshot stores an already encoded result, for a caller that
// keeps the same snapshot elsewhere too (the disk tier's write queue).
func (c *Cache) PutSnapshot(key Key, snap core.Snapshot) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bytes += int64(snap.Size())
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		c.bytes -= int64(e.snap.Size())
		e.snap = snap
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, snap: snap})
	if c.capacity > 0 && c.order.Len() > c.capacity {
		oldest := c.order.Remove(c.order.Back()).(*cacheEntry)
		delete(c.entries, oldest.key)
		c.bytes -= int64(oldest.snap.Size())
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
	return CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Entries: c.order.Len(), Bytes: c.bytes}
}
