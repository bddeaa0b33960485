// Package firehose drives the reactive substrate at a sustained,
// configurable event rate and measures what survives: a paced generator
// issues multi-row INSERT batches (with interleaved single-row UPDATEs
// and DELETEs) against a table carrying two incrementally maintained
// views, an update-propagation subscription and a §VI-C notification
// endpoint — the full trigger → IVM → delta handler → NOTIFY chain.
//
// Every generated row embeds its creation timestamp, so the delta
// handler can measure end-to-end propagation latency (statement build to
// handler invocation) without clock coordination. After the soak the
// driver quiesces the reactive queues and compares both views against a
// full recompute: any divergence at any rate is a correctness bug, not a
// performance artifact.
package firehose

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ediflow/internal/database"
	"ediflow/internal/module"
	"ediflow/internal/notify"
	"ediflow/internal/types"
	"ediflow/internal/wf"
	"ediflow/internal/wf/react"
)

// Config tunes one firehose run. Zero values pick sensible defaults.
type Config struct {
	// Rate is the target sustained event rate (row changes per second).
	Rate int
	// Events is the total number of events to send. When 0, the run is
	// time-bounded by Duration instead.
	Events int64
	// Duration bounds the soak when Events == 0 (default 2s).
	Duration time.Duration
	// Batch is the number of rows per INSERT statement (default 256).
	Batch int
	// Entities is the number of distinct entity keys, i.e. aggregate
	// groups (default 64).
	Entities int
	// UpdateEvery issues one single-row UPDATE per N insert batches
	// (default 4; negative disables).
	UpdateEvery int
	// DeleteEvery issues one single-row DELETE per N insert batches
	// (default 8; negative disables).
	DeleteEvery int
	// Policy is the update-propagation overflow policy (§V): coalesce,
	// shed or block. Empty means coalesce.
	Policy wf.Policy
	// QueueCap overrides the per-subscription delta queue capacity.
	QueueCap int
	// Notify attaches a notification-protocol client to the aggregate
	// view, closing the chain with a real NOTIFY socket.
	Notify bool
	// Dir is the storage directory ("" = in-memory).
	Dir string
	// Seed fixes the value stream (default 2011).
	Seed int64
}

func (c *Config) defaults() {
	if c.Rate <= 0 {
		c.Rate = 50_000
	}
	if c.Events == 0 && c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if c.Events == 0 {
		c.Events = int64(float64(c.Rate) * c.Duration.Seconds())
	}
	if c.Batch <= 0 {
		c.Batch = 256
	}
	if c.Entities <= 0 {
		c.Entities = 64
	}
	if c.UpdateEvery == 0 {
		c.UpdateEvery = 4
	}
	if c.DeleteEvery == 0 {
		c.DeleteEvery = 8
	}
	if c.Policy == "" {
		c.Policy = wf.PolicyCoalesce
	}
	if c.Seed == 0 {
		c.Seed = 2011
	}
}

// Stats summarizes one run.
type Stats struct {
	TargetRate   int           `json:"target_rate"`
	EventsSent   int64         `json:"events_sent"`
	Statements   int64         `json:"statements"`
	Elapsed      time.Duration `json:"elapsed_ns"`
	AchievedRate float64       `json:"achieved_rate"`

	// Delta handler side.
	HandlerDeltas int64         `json:"handler_deltas"`
	HandlerEvents int64         `json:"handler_events"`
	HandlerRows   int64         `json:"handler_rows"`
	P50           time.Duration `json:"latency_p50_ns"`
	P90           time.Duration `json:"latency_p90_ns"`
	P99           time.Duration `json:"latency_p99_ns"`
	Max           time.Duration `json:"latency_max_ns"`

	// react.* overflow accounting.
	Coalesced int64 `json:"coalesced"`
	Shed      int64 `json:"shed"`
	Blocked   int64 `json:"blocked"`
	Cancelled int64 `json:"cancelled_rows"`

	// Notification chain.
	NotifyLines   int64 `json:"notify_lines"`
	Notifications int64 `json:"notifications"`

	// Divergence is non-empty when a view's contents differ from a full
	// recompute of its defining query after the run drained.
	Divergence string `json:"divergence,omitempty"`
}

// sink is the update-propagation target: it timestamps deliveries against
// the ts column the generator embeds in every row.
type sink struct {
	mu     sync.Mutex
	deltas int64
	events int64
	rows   int64
	lats   []time.Duration
}

func (s *sink) RouteDelta(_ string, _ wf.UP, d module.Delta) {
	now := time.Now().UnixNano()
	worst := int64(-1)
	for _, r := range d.Rows {
		if ts := r[3].Int(); now-ts > worst {
			worst = now - ts
		}
	}
	n := d.Events
	if n == 0 {
		n = 1
	}
	s.mu.Lock()
	s.deltas++
	s.events += int64(n)
	s.rows += int64(len(d.Rows) + len(d.OldRows))
	if worst >= 0 {
		s.lats = append(s.lats, time.Duration(worst))
	}
	s.mu.Unlock()
}

// Run executes one firehose soak and reports what the pipeline sustained.
func Run(cfg Config) (Stats, error) {
	cfg.defaults()
	db, err := database.Open(cfg.Dir)
	if err != nil {
		return Stats{}, err
	}
	defer db.Close()
	notifier, err := notify.NewNotifier(db)
	if err != nil {
		return Stats{}, err
	}
	defer notifier.Close()

	if _, err := db.Exec("CREATE TABLE fh_edits (id INT PRIMARY KEY, entity INT, v INT, ts INT)"); err != nil {
		return Stats{}, err
	}
	// One view per maintenance class: the signed fold and delta
	// substitution both ride every batch.
	if _, err := db.Exec("CREATE MATERIALIZED VIEW fh_totals AS SELECT entity, COUNT(*) AS n, SUM(v) AS s FROM fh_edits GROUP BY entity"); err != nil {
		return Stats{}, err
	}
	if _, err := db.Exec("CREATE MATERIALIZED VIEW fh_hot AS SELECT id, entity, v FROM fh_edits WHERE v >= 900"); err != nil {
		return Stats{}, err
	}

	var ropts []react.Option
	if cfg.QueueCap > 0 {
		ropts = append(ropts, react.WithQueueCap(cfg.QueueCap))
	}
	router := react.NewRouter(db, ropts...)
	defer router.Close()
	target := &sink{}
	up := wf.UP{Relation: "fh_edits", Activity: "ingest", Scope: wf.ScopeRunning, Policy: cfg.Policy}
	if err := router.Register("firehose", up, target); err != nil {
		return Stats{}, err
	}

	var notifyLines atomic.Int64
	if cfg.Notify {
		cl, err := notify.Connect(db, "firehose", "fh_totals")
		if err != nil {
			return Stats{}, err
		}
		defer cl.Close()
		go func() {
			for range cl.C {
				notifyLines.Add(1)
			}
		}()
	}

	// Precomputed multi-row INSERT text; the args slice is rebuilt per
	// batch but the SQL string (and whatever the engine caches off it)
	// stays stable.
	var sb strings.Builder
	sb.WriteString("INSERT INTO fh_edits (id, entity, v, ts) VALUES ")
	for i := 0; i < cfg.Batch; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString("(?, ?, ?, ?)")
	}
	insertSQL := sb.String()
	args := make([]types.Value, 0, cfg.Batch*4)

	rng := rand.New(rand.NewSource(cfg.Seed))
	live := make([]int64, 0, cfg.Events)
	var (
		sent    int64
		stmts   int64
		nextID  int64
		batches int64
	)
	start := time.Now()
	for sent < cfg.Events {
		n := cfg.Batch
		if remaining := cfg.Events - sent; int64(n) > remaining {
			n = int(remaining)
		}
		sql := insertSQL
		if n != cfg.Batch {
			var tail strings.Builder
			tail.WriteString("INSERT INTO fh_edits (id, entity, v, ts) VALUES ")
			for i := 0; i < n; i++ {
				if i > 0 {
					tail.WriteString(", ")
				}
				tail.WriteString("(?, ?, ?, ?)")
			}
			sql = tail.String()
		}
		args = args[:0]
		now := time.Now().UnixNano()
		for i := 0; i < n; i++ {
			nextID++
			live = append(live, nextID)
			args = append(args,
				types.NewInt(nextID),
				types.NewInt(rng.Int63n(int64(cfg.Entities))),
				types.NewInt(rng.Int63n(1000)),
				types.NewInt(now))
		}
		if _, err := db.Exec(sql, args...); err != nil {
			return Stats{}, fmt.Errorf("firehose insert: %w", err)
		}
		sent += int64(n)
		stmts++
		batches++

		if cfg.UpdateEvery > 0 && batches%int64(cfg.UpdateEvery) == 0 && len(live) > 0 && sent < cfg.Events {
			id := live[rng.Intn(len(live))]
			if _, err := db.Exec("UPDATE fh_edits SET v = ?, ts = ? WHERE id = ?",
				types.NewInt(rng.Int63n(1000)), types.NewInt(time.Now().UnixNano()), types.NewInt(id)); err != nil {
				return Stats{}, fmt.Errorf("firehose update: %w", err)
			}
			sent++
			stmts++
		}
		if cfg.DeleteEvery > 0 && batches%int64(cfg.DeleteEvery) == 0 && len(live) > 0 && sent < cfg.Events {
			i := rng.Intn(len(live))
			id := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			if _, err := db.Exec("DELETE FROM fh_edits WHERE id = ?", types.NewInt(id)); err != nil {
				return Stats{}, fmt.Errorf("firehose delete: %w", err)
			}
			sent++
			stmts++
		}

		// Pace against the ideal schedule: sleep only when ahead, so a
		// saturated pipeline degrades to best-effort and the achieved
		// rate reports the truth. The 1ms margin absorbs the scheduler's
		// systematic oversleep, which otherwise shaves ~0.5% off every
		// run regardless of target.
		ideal := time.Duration(float64(sent) / float64(cfg.Rate) * float64(time.Second))
		if lead := ideal - time.Since(start); lead > time.Millisecond {
			time.Sleep(lead - time.Millisecond)
		}
	}
	elapsed := time.Since(start)
	router.Quiesce()

	st := Stats{
		TargetRate:   cfg.Rate,
		EventsSent:   sent,
		Statements:   stmts,
		Elapsed:      elapsed,
		AchievedRate: float64(sent) / elapsed.Seconds(),
		NotifyLines:  notifyLines.Load(),
	}
	target.mu.Lock()
	st.HandlerDeltas = target.deltas
	st.HandlerEvents = target.events
	st.HandlerRows = target.rows
	lats := append([]time.Duration(nil), target.lats...)
	target.mu.Unlock()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) time.Duration {
		if len(lats) == 0 {
			return 0
		}
		return lats[int(p*float64(len(lats)-1))]
	}
	st.P50, st.P90, st.P99 = pct(0.50), pct(0.90), pct(0.99)
	if len(lats) > 0 {
		st.Max = lats[len(lats)-1]
	}
	reg := db.Metrics()
	st.Coalesced = reg.Counter("react.coalesced").Value()
	st.Shed = reg.Counter("react.shed").Value()
	st.Blocked = reg.Counter("react.blocked").Value()
	st.Cancelled = reg.Counter("react.cancelled_rows").Value()
	st.Notifications, _ = db.QueryInt("SELECT COUNT(*) FROM " + database.TableNotification)

	st.Divergence = checkDivergence(db)
	return st, nil
}

// checkDivergence compares each view's materialized contents against a
// full recompute of its defining query. Empty string means identical.
func checkDivergence(db *database.DB) string {
	for _, pair := range [][3]string{
		{"fh_totals", "SELECT entity, n, s FROM fh_totals", "SELECT entity, COUNT(*), SUM(v) FROM fh_edits GROUP BY entity"},
		{"fh_hot", "SELECT id, entity, v FROM fh_hot", "SELECT id, entity, v FROM fh_edits WHERE v >= 900"},
	} {
		got, err := db.Query(pair[1])
		if err != nil {
			return fmt.Sprintf("%s: %v", pair[0], err)
		}
		want, err := db.Query(pair[2])
		if err != nil {
			return fmt.Sprintf("%s recompute: %v", pair[0], err)
		}
		if g, w := multisetKey(got.Rows), multisetKey(want.Rows); g != w {
			return fmt.Sprintf("%s: %d materialized rows != %d recomputed", pair[0], len(got.Rows), len(want.Rows))
		}
	}
	return ""
}

func multisetKey(rows []types.Row) string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = types.RowKey(r)
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}
