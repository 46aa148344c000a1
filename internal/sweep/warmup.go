package sweep

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"hornet/internal/fsatomic"
	"hornet/internal/lru"
	"hornet/internal/snapshot"
)

// SnapshotCache is the warmup-once/fork-many engine: a single-flight,
// content-addressed cache of opaque snapshot blobs. Sweep items whose
// configurations share a warmup prefix (same config modulo
// measured-phase knobs, same seed) key their warmup by the prefix hash;
// the first run to ask executes the warmup and snapshots the simulator,
// every other run — concurrent or later — restores from the cached blob
// instead of re-simulating the prefix.
//
// Two tiers: blobs always live in memory for the process lifetime; with
// Dir configured they also persist as warmup-<key>.snap files (next to
// the name-hash.json result documents), so a later process skips the
// warmup too. Disk entries are verified by the snapshot container's own
// checksum when restored, so a truncated file degrades to a re-run, not
// a corrupt simulation.
type SnapshotCache struct {
	dir string

	mu       sync.Mutex
	mem      *lru.Cache
	inflight map[string]chan struct{}

	hits   atomic.Uint64
	misses atomic.Uint64
}

// NewSnapshotCache creates a cache; dir may be empty for memory-only.
func NewSnapshotCache(dir string) *SnapshotCache {
	return &SnapshotCache{
		dir:      dir,
		mem:      lru.New(),
		inflight: map[string]chan struct{}{},
	}
}

// SetMaxEntries bounds the in-memory blob count with LRU eviction
// (0 = unbounded). Warmup snapshots are full-system states — far larger
// than result documents — so long-lived daemons should set a bound;
// with a disk tier configured, evicted entries refault on demand.
func (c *SnapshotCache) SetMaxEntries(n int) {
	c.mu.Lock()
	c.mem.SetBounds(n, 0)
	c.mu.Unlock()
}

// Path returns the disk file backing a key ("" without a disk tier).
func (c *SnapshotCache) Path(key string) string {
	if c.dir == "" {
		return ""
	}
	return filepath.Join(c.dir, "warmup-"+key+".snap")
}

// Get returns the blob for key, producing it at most once per process:
// the first caller runs produce while concurrent callers for the same
// key block until it finishes (single-flight). hit reports whether the
// blob came from the cache (memory or disk) rather than this call's own
// produce. A failed produce is not cached; the error is returned to the
// caller that ran it, and waiting callers retry (typically finding the
// next producer's result, or failing the same way).
func (c *SnapshotCache) Get(ctx context.Context, key string, produce func() ([]byte, error)) (blob []byte, hit bool, err error) {
	for {
		c.mu.Lock()
		if b, ok := c.mem.Get(key); ok {
			c.mu.Unlock()
			c.hits.Add(1)
			return b, true, nil
		}
		c.mu.Unlock()
		if c.dir != "" {
			// Disk refault, outside the mutex (snapshots are large; a
			// slow read must not stall concurrent memory hits). An entry
			// is only served if it decodes as a valid snapshot container
			// (checksum, version): a truncated, corrupted or
			// format-skewed file degrades to a re-run instead of
			// poisoning every run in the group.
			if b, err := os.ReadFile(c.Path(key)); err == nil {
				if _, derr := snapshot.DecodeBytes(b); derr == nil {
					c.mu.Lock()
					c.mem.Put(key, b)
					c.mu.Unlock()
					c.hits.Add(1)
					return b, true, nil
				}
				os.Remove(c.Path(key)) // unusable: clear it for the re-run
			}
		}
		c.mu.Lock()
		if _, ok := c.mem.Get(key); ok {
			// A concurrent producer landed between our checks; loop to
			// serve it through the normal hit path.
			c.mu.Unlock()
			continue
		}
		if ch, busy := c.inflight[key]; busy {
			c.mu.Unlock()
			select {
			case <-ch:
				continue // producer finished; re-check the cache
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
		}
		ch := make(chan struct{})
		c.inflight[key] = ch
		c.mu.Unlock()

		c.misses.Add(1)
		blob, err = produce()

		c.mu.Lock()
		delete(c.inflight, key)
		if err == nil {
			c.mem.Put(key, blob)
		}
		close(ch)
		c.mu.Unlock()
		if err != nil {
			return nil, false, err
		}
		if c.dir != "" {
			// Disk persistence is an optimization; losing it only costs
			// a future process one warmup.
			_ = c.persist(key, blob)
		}
		return blob, false, nil
	}
}

// persist writes a blob atomically (temp + rename).
func (c *SnapshotCache) persist(key string, b []byte) error {
	return fsatomic.WriteFile(c.Path(key), b)
}

// Drop purges a key from memory and disk. Callers use it when a cached
// blob turns out to be unusable downstream (e.g. a restore rejected it)
// so the next Get re-produces instead of re-serving the bad bytes.
func (c *SnapshotCache) Drop(key string) {
	c.mu.Lock()
	c.mem.Delete(key)
	c.mu.Unlock()
	if c.dir != "" {
		os.Remove(c.Path(key))
	}
}

// Len reports the number of blobs resident in memory.
func (c *SnapshotCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mem.Len()
}

// Hits and Misses report cache counters: Hits counts restores served
// from the cache, Misses counts warmups actually simulated.
func (c *SnapshotCache) Hits() uint64   { return c.hits.Load() }
func (c *SnapshotCache) Misses() uint64 { return c.misses.Load() }

// String summarizes the cache for logs.
func (c *SnapshotCache) String() string {
	return fmt.Sprintf("warmup-cache{entries=%d hits=%d misses=%d}", c.Len(), c.Hits(), c.Misses())
}
