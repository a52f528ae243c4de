package ctl

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sync"

	"repro/internal/core"
)

// ResultCache is an agent-side cache of finished cell results, keyed by
// cell content identity.  Cells compiled from scenario specs carry a
// content hash (core.Cell.Key) of everything their result depends on, so
// resubmitting an overlapping scenario — same grid points inside a
// different sweep, a different name, a superset of engines — reuses the
// finished cells instead of re-simulating them.  Registry experiments
// without content keys fall back to (experiment, seed, scale, cell ID)
// addressing, which still dedupes exact resubmissions.
//
// Safe for concurrent use; one cache is typically shared by every agent
// worker in a process.
type ResultCache struct {
	mu      sync.Mutex
	max     int
	entries map[string][]byte
	order   []string // insertion order for FIFO eviction
	hits    int64
	misses  int64
}

// NewResultCache returns a cache bounded to max entries (<= 0 means the
// 4096-entry default).
func NewResultCache(max int) *ResultCache {
	if max <= 0 {
		max = 4096
	}
	return &ResultCache{max: max, entries: map[string][]byte{}}
}

// Get returns the cached canonical result for a key.
func (c *ResultCache) Get(key string) ([]byte, bool) {
	if c == nil || key == "" {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.entries[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return v, ok
}

// Put stores a finished cell's canonical result, evicting the oldest
// entry beyond the bound.
func (c *ResultCache) Put(key string, result []byte) {
	if c == nil || key == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// An existing entry is left alone: results are immutable for a key.
	if _, ok := c.entries[key]; ok {
		return
	}
	for len(c.entries) >= c.max && len(c.order) > 0 {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, oldest)
	}
	c.entries[key] = result
	c.order = append(c.order, key)
}

// Stats returns cumulative hit/miss counts and the current size.
func (c *ResultCache) Stats() (hits, misses int64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, len(c.entries)
}

// cellCacheKey derives the cache key for a leased cell: the cell's
// content hash when the experiment provides one, else a hash of the
// spec-level coordinates that pin the result.  Replicate is deliberately
// absent from the fallback: replica cell IDs already carry their seed
// ("seed7961/..."), so replications with different counts share the
// overlapping seeds' results.
func cellCacheKey(task *LeaseTask, cell core.Cell) string {
	if cell.Key != "" {
		return "content/" + cell.Key
	}
	ident := struct {
		Experiment string
		Seed       uint64
		Scale      string
		Cell       string
	}{task.Spec.Experiment, task.Spec.Seed, task.Spec.Scale, task.CellID}
	b, err := json.Marshal(ident)
	if err != nil {
		return ""
	}
	sum := sha256.Sum256(b)
	return "spec/" + hex.EncodeToString(sum[:])
}
