// Package store is the persistent result store behind the allocation
// service: a tiered, content-addressed cache of finished allocations.
// L1 is the in-memory LRU the batch driver has always had
// (driver.Cache); L2 is a disk tier (one self-validating file per
// entry, crash-safe atomic writes, write-behind flushing) that
// survives process restarts. On top of the disk tier sit cache
// bundles: a tar.gz snapshot of L2 that can be exported from a warm
// replica and imported into — or streamed at boot by — a cold one, so
// a fresh rallocd serves cache hits from its first request.
//
// The tier contract mirrors the allocator's determinism: entries are
// keyed by driver.KeyFor's content hash of (canonical options,
// canonical routine text), and the disk entry stores the allocated
// routine's canonical printed form, so a warm hit returns bytes
// identical to the cold allocation that produced it. Corruption is
// detected on read (every entry re-hashes its payload) and corrupt
// files are quarantined, never served.
package store

import (
	"io"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/telemetry"
)

// Tier labels for driver.UnitResult.CacheTier and the stats surfaces.
const (
	TierMemory = "l1"
	TierDisk   = "l2"
)

// Stats is a point-in-time snapshot of both tiers plus the disk tier's
// fault and flush counters.
type Stats struct {
	L1 driver.CacheStats `json:"l1"`
	L2 driver.CacheStats `json:"l2"`
	// L1HitRate and L2HitRate are hits/(hits+misses) per tier. Note an
	// L2 lookup happens only on an L1 miss, so the overall hit rate is
	// not the sum.
	L1HitRate float64 `json:"l1_hit_rate"`
	L2HitRate float64 `json:"l2_hit_rate"`
	// Quarantined counts corrupt disk entries detected on read and
	// moved out of the objects tree.
	Quarantined uint64 `json:"quarantined"`
	// FlushWrites counts entries landed by the background flusher (or
	// its synchronous fallback); FlushSync the subset written in the
	// caller because the queue was full or the tier closed; FlushErrors
	// writes that failed (the entry is absent, not partial).
	FlushWrites uint64 `json:"flush_writes"`
	FlushSync   uint64 `json:"flush_sync"`
	FlushErrors uint64 `json:"flush_errors"`
}

// Tiered is the two-level result store. It implements the driver's
// ResultCache, TierGetter and OptionsPutter interfaces, so it drops
// into driver.Config.Cache (and server.Config) wherever a plain
// driver.Cache fits. A nil *Tiered behaves like no cache at all.
type Tiered struct {
	l1   *driver.Cache
	disk *Disk
}

// NewTiered combines an in-memory L1 with a disk L2. l1 must be
// non-nil; disk may be nil, degrading to memory-only behavior (useful
// for callers that decide the disk tier at runtime).
func NewTiered(l1 *driver.Cache, disk *Disk) *Tiered {
	if l1 == nil {
		l1 = driver.NewCache(0)
	}
	return &Tiered{l1: l1, disk: disk}
}

// Open is the one-call constructor: an L1 bounded to l1Capacity
// entries (0 = unbounded) over a disk tier at dir.
func Open(dir string, l1Capacity int) (*Tiered, error) {
	disk, err := OpenDisk(dir)
	if err != nil {
		return nil, err
	}
	return NewTiered(driver.NewCache(l1Capacity), disk), nil
}

// Disk returns the L2 tier (nil when memory-only).
func (t *Tiered) Disk() *Disk {
	if t == nil {
		return nil
	}
	return t.disk
}

// Get implements driver.ResultCache.
func (t *Tiered) Get(key driver.Key) (*core.Result, bool) {
	res, _, ok := t.GetTier(key)
	return res, ok
}

// GetTier implements driver.TierGetter: an L1 miss falls through to
// the disk tier, and a disk hit is promoted into L1 so the next lookup
// is a memory hit.
func (t *Tiered) GetTier(key driver.Key) (*core.Result, string, bool) {
	if t == nil {
		return nil, "", false
	}
	if t.disk == nil {
		// One tier is no tier: a memory-only store reports hits as a
		// plain driver.Cache does.
		res, ok := t.l1.Get(key)
		return res, "", ok
	}
	if res, ok := t.l1.Get(key); ok {
		return res, TierMemory, true
	}
	res, ok := t.disk.Get(key)
	if !ok {
		return nil, "", false
	}
	t.l1.Put(key, res)
	return res, TierDisk, true
}

// Put implements driver.ResultCache.
func (t *Tiered) Put(key driver.Key, res *core.Result) {
	t.PutOptions(key, res, "")
}

// PutOptions implements driver.OptionsPutter: the engine hands over
// the canonical options key alongside the result so the disk entry
// records what configuration produced it (surfaced by
// `ralloc-bundle inspect`).
func (t *Tiered) PutOptions(key driver.Key, res *core.Result, optionsKey string) {
	if t == nil || res == nil {
		return
	}
	t.l1.Put(key, res)
	if t.disk == nil {
		return
	}
	// Encode before queueing: the bytes are a private snapshot, so the
	// caller may mutate the result freely while the flusher writes.
	data, err := encodeResult(res, optionsKey)
	if err != nil {
		return
	}
	t.disk.Put(key, data)
}

// Flush blocks until queued disk writes have landed.
func (t *Tiered) Flush() {
	if t != nil {
		t.disk.Flush()
	}
}

// Close flushes and stops the disk tier's background flusher.
func (t *Tiered) Close() {
	if t != nil {
		t.disk.Close()
	}
}

// Stats snapshots both tiers.
func (t *Tiered) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	s := Stats{L1: t.l1.Stats()}
	if t.disk != nil {
		s.L2 = t.disk.Stats()
		s.Quarantined = t.disk.Quarantined()
		s.FlushWrites = t.disk.flushWrites.Load()
		s.FlushSync = t.disk.flushSync.Load()
		s.FlushErrors = t.disk.flushErrors.Load()
	}
	s.L1HitRate = s.L1.HitRate()
	s.L2HitRate = s.L2.HitRate()
	return s
}

// PublishMetrics writes the current per-tier stats into a telemetry
// registry as store.* gauges — the server calls it on every /metrics
// scrape, so the registry view is always current at read time. A
// memory-only store publishes the L1 gauges alone.
func (t *Tiered) PublishMetrics(reg *telemetry.Registry) {
	if t == nil || reg == nil {
		return
	}
	s := t.Stats()
	pub := func(tier string, cs driver.CacheStats, rate float64) {
		reg.Gauge("store." + tier + ".hits").Set(int64(cs.Hits))
		reg.Gauge("store." + tier + ".misses").Set(int64(cs.Misses))
		reg.Gauge("store." + tier + ".evictions").Set(int64(cs.Evictions))
		reg.Gauge("store." + tier + ".entries").Set(int64(cs.Entries))
		reg.Gauge("store." + tier + ".hit_rate_pct").Set(int64(100 * rate))
	}
	pub(TierMemory, s.L1, s.L1HitRate)
	if t.disk == nil {
		return
	}
	pub(TierDisk, s.L2, s.L2HitRate)
	reg.Gauge("store.quarantined").Set(int64(s.Quarantined))
	reg.Gauge("store.flush.writes").Set(int64(s.FlushWrites))
	reg.Gauge("store.flush.sync").Set(int64(s.FlushSync))
	reg.Gauge("store.flush.errors").Set(int64(s.FlushErrors))
}

// ExportBundle flushes pending writes and streams a bundle of the disk
// tier to w. It returns the number of entries exported.
func (t *Tiered) ExportBundle(w io.Writer) (int, error) {
	if t == nil || t.disk == nil {
		return 0, errNoDiskTier
	}
	t.disk.Flush()
	return t.disk.ExportBundle(w)
}

// ImportBundle installs a bundle's valid entries into the disk tier.
func (t *Tiered) ImportBundle(r io.Reader) (ImportStats, error) {
	if t == nil || t.disk == nil {
		return ImportStats{}, errNoDiskTier
	}
	return t.disk.ImportBundle(r)
}

// WarmFrom imports a bundle from a file path or an http(s) URL — the
// daemon's boot-time warm-up (-warm-from).
func (t *Tiered) WarmFrom(src string) (ImportStats, error) {
	if t == nil || t.disk == nil {
		return ImportStats{}, errNoDiskTier
	}
	return t.disk.WarmFrom(src)
}
