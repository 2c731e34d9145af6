package experiments

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync/atomic"

	"mpsocsim/internal/platform"
	"mpsocsim/internal/snapshot"
)

// Warm-start sweeps (DESIGN.md §16). Every run of a figure sweep begins with
// the same deterministic warm-up: caches fill, FIFOs reach steady occupancy,
// the DSP loop settles. Re-invoking a sweep re-simulates that prefix for
// every configuration even though nothing about it changed. A SnapCache
// makes the prefix pay once: the first run of each configuration simulates
// the warm-up, checkpoints the complete platform state and stores it on
// disk; later runs restore the checkpoint and simulate only the remainder.
// Checkpoint restore is bit-identical by contract, so cached and uncached
// regenerations produce byte-identical tables.

// DefaultWarmPrefix is the default warm-up prefix length in central cycles.
// It is sized to sit well inside every full-platform figure run at bench
// scale (the shortest is ~13k cycles at scale 0.25); a run that drains
// before the prefix simply never primes the cache and loses nothing.
const DefaultWarmPrefix = 8000

// SnapCache is a content-addressed on-disk cache of warm-up checkpoints.
// The cache key hashes the spec fingerprint (topology, protocol, workload,
// replay-trace identity — everything that shapes the state), the prefix
// length and the snapshot format version, so any change to any of them
// misses cleanly instead of restoring a stale prefix. Entries are written
// atomically (temp file + rename), making the cache safe to share between
// the runner's concurrent workers and between concurrent invocations.
type SnapCache struct {
	dir    string
	prefix int64

	hits   atomic.Int64
	misses atomic.Int64
}

// NewSnapCache opens (creating if needed) a warm-start cache rooted at dir.
// prefixCycles is the warm-up length in central cycles; <= 0 selects
// DefaultWarmPrefix.
func NewSnapCache(dir string, prefixCycles int64) (*SnapCache, error) {
	if prefixCycles <= 0 {
		prefixCycles = DefaultWarmPrefix
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("warm-start cache: %w", err)
	}
	return &SnapCache{dir: dir, prefix: prefixCycles}, nil
}

// Hits returns how many runs restored a cached prefix; Misses how many
// simulated it (and primed the cache for the next invocation).
func (c *SnapCache) Hits() int64   { return c.hits.Load() }
func (c *SnapCache) Misses() int64 { return c.misses.Load() }

// PrefixCycles returns the configured warm-up length.
func (c *SnapCache) PrefixCycles() int64 { return c.prefix }

// entry returns the on-disk path of the checkpoint for one spec.
func (c *SnapCache) entry(spec platform.Spec) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%#x|%d|v%d", spec.Fingerprint(), c.prefix, snapshot.Version)
	return filepath.Join(c.dir, fmt.Sprintf("%016x.snap", h.Sum64()))
}

// run executes one full-platform run, warm-starting from a cached prefix
// checkpoint when one exists and priming the cache when it does not. The
// result is bit-identical either way (modulo Result.ResumedFromCycle, which
// records where the restore happened). attach, when non-nil, is called on
// the platform before the finishing run — the live-telemetry hook-up point
// (collectors are not part of a checkpoint, so a restored run re-attaches).
func (c *SnapCache) run(spec platform.Spec, attach func(*platform.Platform)) (platform.Result, error) {
	path := c.entry(spec)
	if data, err := os.ReadFile(path); err == nil {
		if p, err := platform.Restore(spec, bytes.NewReader(data)); err == nil {
			c.hits.Add(1)
			if attach != nil {
				attach(p)
			}
			return p.Run(Budget), nil
		}
		// A stale or torn entry (format bump mid-hash-collision, partial
		// disk) must never kill the sweep: drop it and run cold.
		os.Remove(path)
	}
	c.misses.Add(1)
	p, err := platform.Build(spec)
	if err != nil {
		return platform.Result{}, err
	}
	if attach != nil {
		attach(p)
	}
	if p.RunToCycle(c.prefix, Budget) {
		var buf bytes.Buffer
		if err := p.Snapshot(&buf); err == nil {
			writeFileAtomic(path, buf.Bytes())
		}
	}
	return p.Run(Budget), nil
}

// writeFileAtomic publishes data at path via a same-directory temp file and
// rename, so a concurrent reader sees either the old entry or the complete
// new one, never a prefix. Cache writes are best-effort: on any error the
// entry is simply not cached and the next invocation runs cold again.
func writeFileAtomic(path string, data []byte) {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".snap-*")
	if err != nil {
		return
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
	}
}
