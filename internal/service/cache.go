package service

import (
	"encoding/json"
	"sync"
)

// fifo is a bounded, mutex-guarded map that evicts in insertion order. It
// backs both the plan cache and the submit memo.
//
// The workloads the daemon exists for (fleets re-planning near-identical
// configurations) are dominated by a small hot set, so recency tracking
// buys little over a generous capacity; FIFO keeps the data structure a map
// and a slice.
type fifo[K comparable, V any] struct {
	mu    sync.Mutex
	max   int
	items map[K]V
	order []K
}

// newFIFO returns an empty fifo holding at most maxEntries entries; <= 0
// means 1024.
func newFIFO[K comparable, V any](maxEntries int) *fifo[K, V] {
	if maxEntries <= 0 {
		maxEntries = 1024
	}
	return &fifo[K, V]{max: maxEntries, items: make(map[K]V)}
}

// Get returns the value stored under key, if any.
func (c *fifo[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.items[key]
	return v, ok
}

// Put stores a value, evicting the oldest entries past capacity.
func (c *fifo[K, V]) Put(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.items[key]; ok {
		c.items[key] = val
		return
	}
	c.items[key] = val
	c.order = append(c.order, key)
	for len(c.order) > c.max {
		evict := c.order[0]
		c.order = c.order[1:]
		delete(c.items, evict)
	}
}

// Len returns the number of stored entries.
func (c *fifo[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// planCache is the content-addressed result cache: key → result document.
// Values are immutable JSON blobs, so a cached result can be handed to any
// number of jobs without copying or aliasing concerns.
//
// Put stores a value in the form encoding/json writes for a RawMessage
// field: compact and HTML-escaped. A done job's response is written from
// those bytes verbatim (writeDone), and results replayed from the indented
// store files get the same form as freshly computed ones.
type planCache struct {
	*fifo[string, json.RawMessage]
}

func newPlanCache(maxEntries int) *planCache {
	return &planCache{newFIFO[string, json.RawMessage](maxEntries)}
}

// Put normalizes val, stores it under key, and returns the stored bytes.
// Marshaling a RawMessage yields the form the encoder writes for it.
func (c *planCache) Put(key string, val json.RawMessage) (json.RawMessage, error) {
	norm, err := marshalResult(val)
	if err != nil {
		return nil, err
	}
	c.fifo.Put(key, norm)
	return norm, nil
}

// singleflight coalesces concurrent calls with the same key into one
// execution: the first caller runs fn, later callers with the same key block
// on the same call and share its result. This is the in-flight counterpart
// of the plan cache — the cache dedups across time, singleflight dedups
// within the window one search is running.
//
// This is a from-scratch stdlib implementation (the container image has no
// golang.org/x/sync); it intentionally omits forgotten/panic propagation
// beyond what the daemon needs.
type singleflight struct {
	mu    sync.Mutex
	calls map[string]*sfCall
}

type sfCall struct {
	wg  sync.WaitGroup
	val json.RawMessage
	err error
}

func newSingleflight() *singleflight {
	return &singleflight{calls: make(map[string]*sfCall)}
}

// Do runs fn once per concurrent key, returning fn's result to every caller.
// shared reports whether this caller piggybacked on another caller's run.
// Errors are shared too: if the one search fails, every coalesced job fails
// with the same typed error (a second submit after completion retries,
// because finished calls leave the table immediately).
func (g *singleflight) Do(key string, fn func() (json.RawMessage, error)) (val json.RawMessage, err error, shared bool) {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		c.wg.Wait()
		return c.val, c.err, true
	}
	c := &sfCall{}
	c.wg.Add(1)
	g.calls[key] = c
	g.mu.Unlock()

	c.val, c.err = fn()

	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	c.wg.Done()
	return c.val, c.err, false
}
