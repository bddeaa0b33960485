package engine

import (
	"container/list"
	"sync"

	"ediflow/internal/sqltext"
)

// planCache is a small LRU of parsed statements keyed by statement
// shape (sqltext.Shape): the text with its VALUES-row and WHERE IN-list
// literals lifted to placeholders. Repeated statements — the wire
// protocol's prepared-statement pattern, and bulk loads of one row count
// — skip the lexer and parser entirely, and the cache holds one AST per
// shape rather than every load's data.
//
// Caching parsed ASTs across executions is safe because the engine never
// mutates an AST: parameters are bound positionally at evaluation time
// and all per-execution memoization lives in the binder, keyed by
// expression pointer.
type planCache struct {
	mu  sync.Mutex
	cap int
	m   map[planKey]*list.Element
	lru *list.List // front = most recently used; values are *planEntry
}

// planKey names a cache entry. Scripts are keyed apart from single
// statements: parameter indexes run left to right across a whole script,
// so a script's statements cannot be shared with Exec's.
type planKey struct {
	script bool
	text   string
}

type planEntry struct {
	key planKey
	val any
}

func newPlanCache(capacity int) *planCache {
	return &planCache{cap: capacity, m: map[planKey]*list.Element{}, lru: list.New()}
}

func (c *planCache) get(key planKey) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*planEntry).val, true
}

func (c *planCache) put(key planKey, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		el.Value.(*planEntry).val = val
		c.lru.MoveToFront(el)
		return
	}
	c.m[key] = c.lru.PushFront(&planEntry{key: key, val: val})
	for len(c.m) > c.cap {
		last := c.lru.Back()
		c.lru.Remove(last)
		delete(c.m, last.Value.(*planEntry).key)
	}
}

// purge empties the cache. Every successful DDL statement purges:
// today's cached plans are bare ASTs that resolve names at execution
// time, but evicting on schema change keeps the invalidation contract
// simple and stays correct if richer (name-resolved) plans are cached
// later.
func (c *planCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = map[planKey]*list.Element{}
	c.lru.Init()
}

func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// isDDL reports whether st changes the schema and must purge the cache.
func isDDL(st sqltext.Statement) bool {
	switch st.(type) {
	case *sqltext.CreateTable, *sqltext.DropTable, *sqltext.CreateIndex,
		*sqltext.CreateView, *sqltext.DropView, *sqltext.CreateTrigger:
		return true
	}
	return false
}
