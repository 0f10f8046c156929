package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/driver"
)

// Disk is the persistent cache tier: one file per entry under a
// sharded content-hash path,
//
//	<dir>/objects/<key[:2]>/<key>
//
// with <dir>/tmp holding in-flight writes and <dir>/quarantine holding
// entries that failed validation. Writes are crash-safe: an entry is
// written to a unique temp file and renamed into place, so a reader
// (or a process killed mid-write) can only ever observe a complete
// entry or none. Puts go through a bounded write-behind queue drained
// by one background flusher; when the queue is full the write happens
// synchronously in the caller instead of being dropped, so a Put is
// never lost short of a crash.
//
// Reads re-validate: a file whose header, length framing or payload
// hash does not check out is moved to quarantine and reported as a
// miss — corruption is detected, never served, and the next Put of the
// same key re-fills the slot.
type Disk struct {
	dir string

	// renameFn seams os.Rename for fault-injection tests (a crash
	// between temp write and rename must never leave a readable entry).
	renameFn func(oldpath, newpath string) error

	hits        atomic.Uint64
	misses      atomic.Uint64
	quarantined atomic.Uint64
	flushWrites atomic.Uint64
	flushSync   atomic.Uint64
	flushErrors atomic.Uint64
	entries     atomic.Int64

	mu     sync.Mutex // guards queue lifecycle (send vs close)
	closed bool
	queue  chan diskWrite
	done   chan struct{}
}

type diskWrite struct {
	key  driver.Key
	snap core.Snapshot
	opt  string // the canonical options key the entry records
	// ack, when non-nil, marks a flush barrier: the flusher closes it
	// once every write queued before it has hit the filesystem.
	ack chan struct{}
}

// flushQueueCap bounds the write-behind queue; beyond it Puts degrade
// to synchronous writes rather than dropping entries.
const flushQueueCap = 256

// OpenDisk opens (creating if needed) a disk tier rooted at dir.
// Leftover temp files from a previous crash are removed; existing
// entries are counted but not validated until read.
func OpenDisk(dir string) (*Disk, error) {
	for _, sub := range []string{"objects", "tmp", "quarantine"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: open %s: %w", dir, err)
		}
	}
	// A crash can strand temp files; they are garbage by construction
	// (never readable as entries) and safe to sweep on open.
	if tmps, err := os.ReadDir(filepath.Join(dir, "tmp")); err == nil {
		for _, t := range tmps {
			_ = os.Remove(filepath.Join(dir, "tmp", t.Name()))
		}
	}
	d := &Disk{
		dir:      dir,
		renameFn: os.Rename,
		queue:    make(chan diskWrite, flushQueueCap),
		done:     make(chan struct{}),
	}
	d.entries.Store(int64(d.countEntries()))
	go d.flusher()
	return d, nil
}

// Dir returns the tier's root directory.
func (d *Disk) Dir() string { return d.dir }

// countEntries walks the objects tree once at open.
func (d *Disk) countEntries() int {
	n := 0
	shards, err := os.ReadDir(filepath.Join(d.dir, "objects"))
	if err != nil {
		return 0
	}
	for _, s := range shards {
		if !s.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(d.dir, "objects", s.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			if !f.IsDir() && validKey(driver.Key(f.Name())) {
				n++
			}
		}
	}
	return n
}

// validKey reports whether k looks like a content hash (64 hex chars),
// the only file names the tier creates or will import.
func validKey(k driver.Key) bool {
	if len(k) != 64 {
		return false
	}
	for _, c := range k {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// entryPath maps a key to its sharded file path.
func (d *Disk) entryPath(key driver.Key) string {
	return filepath.Join(d.dir, "objects", string(key[:2]), string(key))
}

// Get reads, validates and decodes the entry for key. A missing file
// is a plain miss; a file that fails validation or decoding is
// quarantined and also reported as a miss.
func (d *Disk) Get(key driver.Key) (*core.Result, bool) {
	if d == nil || !validKey(key) {
		return nil, false
	}
	path := d.entryPath(key)
	data, err := os.ReadFile(path)
	if err != nil {
		d.misses.Add(1)
		return nil, false
	}
	res, _, err := decodeResultBytes(data)
	if err != nil {
		d.quarantine(key, path)
		d.misses.Add(1)
		return nil, false
	}
	d.hits.Add(1)
	return res, true
}

// decodeResultBytes validates entry bytes end to end: framing, hash,
// metadata, and a successful re-parse of the code section.
func decodeResultBytes(data []byte) (*core.Result, string, error) {
	e, err := decodeEntry(data)
	if err != nil {
		return nil, "", err
	}
	res, err := e.result()
	if err != nil {
		return nil, "", err
	}
	return res, e.OptionsKey, nil
}

// quarantine moves a corrupt entry out of the objects tree so it is
// never read again and the slot can be re-filled by the next Put.
func (d *Disk) quarantine(key driver.Key, path string) {
	dst := filepath.Join(d.dir, "quarantine", string(key))
	if err := os.Rename(path, dst); err != nil {
		// Lost the race with another quarantiner (or the file vanished);
		// either way it is out of the objects tree.
		if os.IsNotExist(err) {
			return
		}
		_ = os.Remove(path)
	}
	d.quarantined.Add(1)
	d.entries.Add(-1)
}

// put queues a result snapshot for the background flusher, which
// encodes and writes its entry, so the caller pays for neither the
// print nor the hash. With the queue full it writes synchronously
// instead of dropping.
func (d *Disk) put(key driver.Key, snap core.Snapshot, optionsKey string) {
	if d == nil || !validKey(key) {
		return
	}
	w := diskWrite{key: key, snap: snap, opt: optionsKey}
	d.mu.Lock()
	if !d.closed {
		select {
		case d.queue <- w:
			d.mu.Unlock()
			return
		default:
		}
	}
	d.mu.Unlock()
	// Queue full or tier closed: write in the caller.
	d.flushSync.Add(1)
	d.land(w)
}

// Flush blocks until every write queued before the call is on disk.
func (d *Disk) Flush() {
	if d == nil {
		return
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	ack := make(chan struct{})
	d.queue <- diskWrite{ack: ack}
	d.mu.Unlock()
	<-ack
}

// Close drains the write-behind queue and stops the flusher. Further
// Puts fall back to synchronous writes.
func (d *Disk) Close() {
	if d == nil {
		return
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	close(d.queue)
	d.mu.Unlock()
	<-d.done
}

// flusher is the single background writer.
func (d *Disk) flusher() {
	defer close(d.done)
	for w := range d.queue {
		if w.ack != nil {
			close(w.ack)
			continue
		}
		d.land(w)
	}
}

// land encodes a queued snapshot's entry and writes it.
func (d *Disk) land(w diskWrite) {
	data, err := encodeResult(w.snap, w.opt)
	if err != nil {
		d.flushErrors.Add(1)
		return
	}
	d.write(w.key, data)
}

// write lands one entry atomically: unique temp file, then rename. A
// failed rename removes the temp file, leaving no readable partial.
func (d *Disk) write(key driver.Key, data []byte) {
	tmp, err := os.CreateTemp(filepath.Join(d.dir, "tmp"), string(key[:8])+".*")
	if err != nil {
		d.flushErrors.Add(1)
		return
	}
	tmpName := tmp.Name()
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		_ = os.Remove(tmpName)
		d.flushErrors.Add(1)
		return
	}
	dst := d.entryPath(key)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		_ = os.Remove(tmpName)
		d.flushErrors.Add(1)
		return
	}
	_, statErr := os.Stat(dst)
	fresh := os.IsNotExist(statErr)
	if err := d.renameFn(tmpName, dst); err != nil {
		_ = os.Remove(tmpName)
		d.flushErrors.Add(1)
		return
	}
	d.flushWrites.Add(1)
	if fresh {
		d.entries.Add(1)
	}
}

// Stats snapshots the tier's counters in the shared per-tier shape.
func (d *Disk) Stats() driver.CacheStats {
	if d == nil {
		return driver.CacheStats{}
	}
	n := d.entries.Load()
	if n < 0 {
		n = 0
	}
	return driver.CacheStats{
		Hits:   d.hits.Load(),
		Misses: d.misses.Load(),
		// The disk tier never evicts for capacity; its only removals are
		// quarantines, reported separately in store.Stats.
		Entries: int(n),
	}
}

// Quarantined returns how many corrupt entries the tier has moved to
// quarantine since open.
func (d *Disk) Quarantined() uint64 {
	if d == nil {
		return 0
	}
	return d.quarantined.Load()
}
