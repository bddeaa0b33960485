package engine

import (
	"container/list"
	"sync"
	"sync/atomic"

	"ediflow/internal/sqltext"
)

// A plan is everything a statement's text and the catalog fix, worked
// out once: the AST and its kind, each FROM entry resolved (resolveRef),
// each join's strategy (analyzeJoin), the layout every expression
// resolves against, every expression compiled (compile.go), the
// projection, fold and sort decisions, and a mutation's target and
// columns. It is immutable once built, so concurrent sessions share it.
// An execution takes (plan, arguments, snapshot): it opens the plan's
// entries against its snapshot and keeps its own state — arguments,
// machines, subquery outcomes — in binders (eval.go). A name that does
// not resolve is held in the plan as its error and raised when an
// execution reaches it, in the phase it is raised in without a plan.
type plan struct {
	stmt    sqltext.Statement
	kind    sqltext.Kind
	gen     uint64   // the plan cache's generation when planning began
	delta   bool     // planned over an aggregate view's delta rows (planner.delta)
	sel     *selPlan // SELECT
	mut     *mutPlan // INSERT, UPDATE, DELETE
	explain *plan    // EXPLAIN: the plan it prints
}

// planner builds one statement's plan: subs holds the plan of every
// subquery in the statement's expressions, nested ones included, by
// node, which is how an executing subquery finds its plan
// (binder.subquery). A delta planner lays base tables out without their
// system columns: an aggregate view's fold runs the view's query over
// delta rows, which have no tid (viewFold).
type planner struct {
	e     *Engine
	subs  map[*sqltext.Select]*selPlan
	delta bool
}

// newPlan plans st against the catalog as it stands; delta plans it over
// delta rows (see planner).
func (e *Engine) newPlan(st sqltext.Statement, delta bool) *plan {
	p := &plan{stmt: st, kind: st.Kind(), gen: e.plans.gen.Load(), delta: delta}
	pl := &planner{e: e, subs: map[*sqltext.Select]*selPlan{}, delta: delta}
	switch s := st.(type) {
	case *sqltext.Select:
		p.sel = pl.selectPlan(s)
	case *sqltext.Insert, *sqltext.Update, *sqltext.Delete:
		p.mut = pl.mutationPlan(s)
	case *sqltext.Explain:
		p.explain = e.newPlan(s.Stmt, false)
	}
	return p
}

// current is p, or p planned again when the cache has been purged since
// p was planned: the catalog it resolved against may have changed. Every
// holder of a plan checks it here: an execution of a cached plan, a
// view's delta query (EvalWith) and its fold (viewFold).
func (e *Engine) current(p *plan) *plan {
	if p.gen == e.plans.gen.Load() {
		return p
	}
	return e.newPlan(p.stmt, p.delta)
}

// planCache is a small LRU of plans keyed by statement shape
// (sqltext.Shape): the text with its VALUES-row and WHERE IN-list
// literals lifted to placeholders. Repeated statements — the wire
// protocol's prepared-statement pattern, and bulk loads of one row count
// — skip the lexer, the parser and the planner entirely, and the cache
// holds one plan per shape rather than every load's data. The lifted
// literals are bound positionally at execution time.
type planCache struct {
	mu  sync.Mutex
	cap int
	m   map[planKey]*list.Element
	lru *list.List    // front = most recently used; values are *planEntry
	gen atomic.Uint64 // moved on by every purge
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
	val any // []*plan: one statement's, or a script's
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

// put caches val, planned in generation gen, unless a purge has happened
// since: the catalog it was planned against may be gone.
func (c *planCache) put(key planKey, val any, gen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gen.Load() != gen {
		return
	}
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

// purge empties the cache and moves its generation on. It is the one
// invalidation: every DDL statement, replicated DDL, snapshot apply,
// RegisterFunc and RegisterVirtual purges, after its last catalog
// change and when it fails too, so no plan made meanwhile stays cached.
func (c *planCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen.Add(1)
	c.m = map[planKey]*list.Element{}
	c.lru.Init()
}

func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
