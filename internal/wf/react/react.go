// Package react compiles the process model's update-propagation (UP)
// actions into DBMS statement-level triggers, exactly as §VI-B describes:
// "EdiFlow compiles the UP statements into statement-level triggers which
// it installs in the underlying DBMS. The trigger calls EdiFlow routines
// implementing the desired behavior."
//
// Delivery is batch-at-a-time: the trigger side registers a batch
// handler, so one dispatch batch produces at most one module.Delta per
// watched relation — the events are coalesced and rows inserted and
// deleted within the batch net out. Each UP subscription owns a bounded
// delta queue drained by a dedicated worker, decoupling handler speed
// from commit speed; when a queue overflows, the UP's declared policy
// decides between merging into the newest queued delta (coalesce, the
// default), dropping the delta (shed) or stalling the dispatcher until
// space frees up (block). All of it is surfaced as react.* metrics.
//
// The Router owns the trigger side; the enactment engine implements
// Target and performs the per-scope routing (invoking running-handlers,
// finished-handlers, or extending future instances' snapshots).
package react

import (
	"fmt"
	"strings"
	"sync"

	"ediflow/internal/database"
	"ediflow/internal/engine"
	"ediflow/internal/ivm"
	"ediflow/internal/metrics"
	"ediflow/internal/module"
	"ediflow/internal/types"
	"ediflow/internal/wf"
)

// DefaultQueueCap is the per-subscription delta-queue bound.
const DefaultQueueCap = 1024

// Target receives deltas routed by UP actions, tagged with the owning
// process name.
type Target interface {
	RouteDelta(process string, up wf.UP, d module.Delta)
}

// Router installs triggers for UP actions and forwards fired events. One
// trigger set (INSERT/UPDATE/DELETE) is installed per watched relation;
// its batch handler coalesces each dispatch batch's events into one
// delta and fans it out to every UP subscription on that relation.
type Router struct {
	db       *database.DB
	queueCap int
	m        routerMetrics
	wg       sync.WaitGroup

	mu        sync.Mutex
	subs      map[string][]*subscription // lower-cased relation → subscriptions
	triggered map[string]bool            // relations whose triggers are installed
	closed    bool
}

type routerMetrics struct {
	batches   *metrics.Counter // batch-handler invocations with subscribers
	events    *metrics.Counter // change events coalesced into deltas
	deltas    *metrics.Counter // deltas enqueued across subscriptions
	cancelled *metrics.Counter // row pairs netted out during coalescing
	coalesced *metrics.Counter // queue-full merges (coalesce policy)
	shed      *metrics.Counter // deltas dropped (shed policy)
	blocked   *metrics.Counter // enqueues that had to wait (block policy)
	delivered *metrics.Counter // deltas handed to targets
	escalated *metrics.Counter // coalesce→block promotions (adaptive overflow)
}

type subscription struct {
	process string
	up      wf.UP
	q       *deltaQueue

	mu     sync.Mutex // target is refreshed on redeploy
	target Target
}

// Option configures a Router.
type Option func(*Router)

// WithQueueCap bounds each subscription's delta queue (minimum 1).
func WithQueueCap(n int) Option {
	return func(r *Router) {
		if n > 0 {
			r.queueCap = n
		}
	}
}

// NewRouter returns a router over db.
func NewRouter(db *database.DB, opts ...Option) *Router {
	r := &Router{
		db:        db,
		queueCap:  DefaultQueueCap,
		subs:      map[string][]*subscription{},
		triggered: map[string]bool{},
	}
	for _, o := range opts {
		o(r)
	}
	reg := db.Metrics()
	r.m = routerMetrics{
		batches:   reg.Counter("react.batches"),
		events:    reg.Counter("react.events"),
		deltas:    reg.Counter("react.deltas"),
		cancelled: reg.Counter("react.cancelled_rows"),
		coalesced: reg.Counter("react.coalesced"),
		shed:      reg.Counter("react.shed"),
		blocked:   reg.Counter("react.blocked"),
		delivered: reg.Counter("react.delivered"),
		escalated: reg.Counter("react.policy_escalations"),
	}
	return r
}

// handlerName derives the Go-handler name for a relation's UP triggers.
// Relation names may contain characters invalid in SQL identifiers
// (e.g. '-'), so everything is sanitized.
func handlerName(relation string) string {
	return sanitizeIdent("ef_up_" + strings.ToLower(relation))
}

// sanitizeIdent maps every non-identifier byte to '_'.
func sanitizeIdent(s string) string {
	out := []byte(s)
	for i, b := range out {
		ok := b == '_' || (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z') || (b >= '0' && b <= '9')
		if !ok {
			out[i] = '_'
		}
	}
	return string(out)
}

// Register installs the UP action for a deployed process: one trigger per
// DML event on the watched relation, each calling a named batch handler
// that coalesces and routes deltas to the target. Registration is
// idempotent per (process, UP) pair.
func (r *Router) Register(process string, up wf.UP, target Target) error {
	rel := strings.ToLower(up.Relation)
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return fmt.Errorf("react: router closed")
	}
	for _, s := range r.subs[rel] {
		if s.process == process && s.up == up {
			// Already registered: refresh the target (redeploy).
			s.mu.Lock()
			s.target = target
			s.mu.Unlock()
			r.mu.Unlock()
			return nil
		}
	}
	sub := &subscription{
		process: process,
		up:      up,
		target:  target,
		q:       newDeltaQueue(r.queueCap, up.Policy),
	}
	r.subs[rel] = append(r.subs[rel], sub)
	installed := r.triggered[rel]
	r.triggered[rel] = true
	r.wg.Add(1)
	r.mu.Unlock()
	go sub.run(r)

	hname := handlerName(up.Relation)
	r.db.RegisterBatchHandler(hname, func(events []engine.ChangeEvent) {
		r.fireBatch(rel, events)
	})
	if installed {
		return nil
	}
	// Install the statement-level triggers once per relation (skip those
	// that survived a restart in the catalog).
	existing := map[string]bool{}
	for _, t := range r.db.Catalog().AllTriggers() {
		existing[strings.ToLower(t.Name)] = true
	}
	for _, op := range []string{"INSERT", "UPDATE", "DELETE"} {
		tname := hname + "_" + strings.ToLower(op)
		if existing[strings.ToLower(tname)] {
			continue
		}
		stmt := fmt.Sprintf("CREATE TRIGGER %s AFTER %s ON %s CALL '%s'", tname, op, up.Relation, hname)
		if _, err := r.db.Exec(stmt); err != nil {
			return fmt.Errorf("react: installing trigger: %w", err)
		}
	}
	return nil
}

// fireBatch coalesces one dispatch batch's events for a relation into a
// single delta and enqueues it on every subscription. Multiple UP actions
// on the same relation each receive the delta (the paper allows several
// compensation actions per ⟨ΔR, a⟩).
func (r *Router) fireBatch(rel string, events []engine.ChangeEvent) {
	r.mu.Lock()
	subs := append([]*subscription(nil), r.subs[rel]...)
	r.mu.Unlock()
	if len(subs) == 0 || len(events) == 0 {
		return
	}
	r.m.batches.Inc()
	r.m.events.Add(int64(len(events)))
	d, cancelled := coalesceEvents(events)
	r.m.cancelled.Add(int64(cancelled))
	if len(d.Rows) == 0 && len(d.OldRows) == 0 {
		return // the batch netted out to nothing
	}
	for _, s := range subs {
		if s.q.enqueue(d, &r.m) {
			r.m.deltas.Inc()
		}
	}
}

// coalesceEvents folds a relation's share of one dispatch batch into a
// single delta: updates contribute to both sides, and rows inserted and
// deleted within the batch cancel pairwise (ivm.NetDelta). Returns the
// delta and the number of cancelled pairs.
func coalesceEvents(events []engine.ChangeEvent) (module.Delta, int) {
	d := module.Delta{Table: events[0].Table, Op: events[0].Op, Events: len(events)}
	var insT, delT []int64
	var ins, del []types.Row
	for _, ev := range events {
		if ev.Seq > d.Seq {
			d.Seq = ev.Seq
		}
		if ev.Op != d.Op {
			d.Op = engine.OpBatch
		}
		switch ev.Op {
		case engine.OpInsert:
			insT = append(insT, ev.TIDs...)
			ins = append(ins, ev.Rows...)
		case engine.OpDelete:
			delT = append(delT, ev.TIDs...)
			del = append(del, ev.OldRows...)
		case engine.OpUpdate:
			insT = append(insT, ev.TIDs...)
			ins = append(ins, ev.Rows...)
			delT = append(delT, ev.TIDs...)
			del = append(del, ev.OldRows...)
		}
	}
	var cancelled int
	d.TIDs, d.Rows, d.OldTIDs, d.OldRows, cancelled = ivm.NetDelta(insT, ins, delT, del)
	return d, cancelled
}

// eventCount treats hand-built deltas (Events == 0) as covering one event.
func eventCount(d module.Delta) int {
	if d.Events <= 0 {
		return 1
	}
	return d.Events
}

// mergeDeltas merges a newer delta b into an already-queued delta a
// (coalesce overflow policy), re-netting the combined sides.
func mergeDeltas(a, b module.Delta) module.Delta {
	out := module.Delta{Table: a.Table, Op: a.Op, Seq: a.Seq, Events: eventCount(a) + eventCount(b)}
	if b.Op != out.Op {
		out.Op = engine.OpBatch
	}
	if b.Seq > out.Seq {
		out.Seq = b.Seq
	}
	insT := append(append([]int64(nil), a.TIDs...), b.TIDs...)
	ins := append(append([]types.Row(nil), a.Rows...), b.Rows...)
	delT := append(append([]int64(nil), a.OldTIDs...), b.OldTIDs...)
	del := append(append([]types.Row(nil), a.OldRows...), b.OldRows...)
	out.TIDs, out.Rows, out.OldTIDs, out.OldRows, _ = ivm.NetDelta(insT, ins, delT, del)
	return out
}

// Adaptive overflow escalation: a coalesce queue that stays above
// high-water for this many consecutive worker drains is a handler that
// persistently cannot keep up — merged deltas grow without bound while
// the producer never feels backpressure. The queue then promotes itself
// to block until it fully drains, surfacing the stall to committers
// (react.policy_escalations counts the promotions).
const (
	escalateAfter = 8 // consecutive hot drains before coalesce→block
)

// queueHighWater is the occupancy at which a drain counts as hot: 3/4
// of capacity.
func queueHighWater(cap int) int { return cap - cap/4 }

// deltaQueue is one subscription's bounded FIFO of pending deltas, a
// fixed ring drained by the subscription worker.
type deltaQueue struct {
	mu        sync.Mutex
	cond      *sync.Cond
	buf       []module.Delta
	head      int
	n         int
	policy    wf.Policy // declared policy (from the UP spec)
	escalated bool      // coalesce temporarily promoted to block
	hot       int       // consecutive drains at/above high-water
	closed    bool
	busy      bool // worker is mid-delivery
}

func newDeltaQueue(cap int, policy wf.Policy) *deltaQueue {
	q := &deltaQueue{buf: make([]module.Delta, cap), policy: policy}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// enqueue adds d, applying the overflow policy when full. Reports whether
// the delta was accepted (merging under coalesce counts as accepted).
// Note that the block policy stalls the calling dispatcher — backpressure
// reaches committers and every downstream observer, and a handler that
// writes to its own watched relation from inside the blocked queue's
// worker would deadlock; such self-feeding handlers must use coalesce or
// shed.
func (q *deltaQueue) enqueue(d module.Delta, m *routerMetrics) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == len(q.buf) && !q.closed {
		pol := q.policy
		if q.escalated {
			pol = wf.PolicyBlock
		}
		switch pol {
		case wf.PolicyShed:
			m.shed.Inc()
			return false
		case wf.PolicyBlock:
			m.blocked.Inc()
			q.cond.Wait()
		default: // coalesce
			last := (q.head + q.n - 1) % len(q.buf)
			q.buf[last] = mergeDeltas(q.buf[last], d)
			m.coalesced.Inc()
			return true
		}
	}
	if q.closed {
		return false
	}
	q.buf[(q.head+q.n)%len(q.buf)] = d
	q.n++
	q.cond.Broadcast()
	return true
}

// close wakes the worker and any blocked producers; queued deltas are
// still drained before the worker exits.
func (q *deltaQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// drained blocks until the queue is empty and the worker idle.
func (q *deltaQueue) drained() {
	q.mu.Lock()
	for q.n > 0 || q.busy {
		q.cond.Wait()
	}
	q.mu.Unlock()
}

// run is the subscription worker: it drains the queue in FIFO order,
// delivering one delta at a time so each UP sees its deltas serialized
// in commit order.
func (s *subscription) run(r *Router) {
	defer r.wg.Done()
	q := s.q
	for {
		q.mu.Lock()
		for q.n == 0 && !q.closed {
			q.cond.Wait()
		}
		if q.n == 0 {
			q.mu.Unlock()
			return // closed and drained
		}
		d := q.buf[q.head]
		q.buf[q.head] = module.Delta{}
		q.head = (q.head + 1) % len(q.buf)
		q.n--
		q.busy = true
		// Adaptive overflow: count consecutive drains that still leave
		// the queue at/above high-water; a declared-coalesce queue that
		// stays hot promotes itself to block until it fully drains.
		switch {
		case q.n >= queueHighWater(len(q.buf)):
			q.hot++
			// "" is the unparsed default and also means coalesce.
			if q.hot >= escalateAfter && !q.escalated &&
				(q.policy == wf.PolicyCoalesce || q.policy == "") {
				q.escalated = true
				r.m.escalated.Inc()
			}
		case q.n == 0:
			q.hot = 0
			q.escalated = false
		default:
			q.hot = 0
		}
		q.cond.Broadcast() // space freed: wake blocked producers
		q.mu.Unlock()

		s.mu.Lock()
		t := s.target
		s.mu.Unlock()
		if t != nil {
			t.RouteDelta(s.process, s.up, d)
			r.m.delivered.Inc()
		}

		q.mu.Lock()
		q.busy = false
		q.cond.Broadcast() // idle: wake Quiesce waiters
		q.mu.Unlock()
	}
}

// Quiesce blocks until every subscription's queue is empty and its worker
// idle — every delta enqueued before the call has been delivered. New
// deltas may of course arrive concurrently; callers wanting a stable
// state stop writing first.
func (r *Router) Quiesce() {
	r.mu.Lock()
	var qs []*deltaQueue
	for _, subs := range r.subs {
		for _, s := range subs {
			qs = append(qs, s.q)
		}
	}
	r.mu.Unlock()
	for _, q := range qs {
		q.drained()
	}
}

// Unregister drops the subscriptions of one process (triggers stay
// installed but become inert since the handler finds no subscription).
// The dropped subscriptions' workers drain their queues and exit.
func (r *Router) Unregister(process string) {
	r.mu.Lock()
	var dropped []*subscription
	for rel, subs := range r.subs {
		kept := subs[:0]
		for _, s := range subs {
			if s.process != process {
				kept = append(kept, s)
			} else {
				dropped = append(dropped, s)
			}
		}
		r.subs[rel] = kept
	}
	r.mu.Unlock()
	for _, s := range dropped {
		s.q.close()
	}
}

// Close stops every subscription worker after it drains its queue and
// waits for them to exit. The router accepts no registrations afterwards.
func (r *Router) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	var qs []*deltaQueue
	for _, subs := range r.subs {
		for _, s := range subs {
			qs = append(qs, s.q)
		}
	}
	r.mu.Unlock()
	for _, q := range qs {
		q.close()
	}
	r.wg.Wait()
}

// Subscriptions returns the number of active subscriptions (testing aid).
func (r *Router) Subscriptions() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, subs := range r.subs {
		n += len(subs)
	}
	return n
}
