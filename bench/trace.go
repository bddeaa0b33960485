package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call made by the driver around a layer boundary.
// Start and End are nanoseconds since the tracer was created. Parent is
// the span that caused this one (0 = an interaction's root, asyncParent = a
// span from a goroutine the driver does not control) and Interaction is
// shared by every span of one user-visible interaction (0 = set-up,
// maintenance and probes).
type span struct {
	ID          int64  `json:"id"`
	Parent      int64  `json:"parent"`
	Interaction int64  `json:"interaction"`
	Name        string `json:"name"`
	Start       int64  `json:"start_ns"`
	End         int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the workload ends. A nil *tracer is
// the untraced pass: every method is a no-op, so the workloads call it
// unconditionally and the untraced pass pays one nil check per call.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID reserves a span id before the span starts, so that work running on
// another goroutine (a delta handler on the server side) can name its
// parent while the driver is still inside the call that causes it.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// add records a finished span under a reserved id (0 = allocate one).
func (t *tracer) add(id, parent, interaction int64, name string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.nextID.Add(1)
	}
	s := span{ID: id, Parent: parent, Interaction: interaction, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile dumps every span as JSON.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Unit  string `json:"unit"`
		Spans []span `json:"spans"`
	}{"ns since tracer start", t.snapshot()}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// asyncParent marks a span recorded on a goroutine the driver does not
// control (a delta handler on the server side). Whether it runs inside the
// driver's Exec or inside its wait for the doorbell depends on how the
// program schedules its dispatch, so it names no parent: selfTimes charges
// its time to it and takes that time away from whichever driver-side span
// was open meanwhile.
const asyncParent = -1

// selfTimes returns, per span id, the span's self time: its duration minus
// what its children cover. It is computed by a sweep over each
// interaction's spans that charges every instant to exactly one span — the
// deepest one open, an async span (and its children) beating any
// driver-side span — so that the self times of an interaction add up to
// the duration of its root, also when a handler on another goroutine
// overlaps two of the driver's calls.
func selfTimes(spans []span) map[int64]time.Duration {
	byID := make(map[int64]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	depth := make(map[int64]int, len(spans))
	var depthOf func(s *span) int
	depthOf = func(s *span) int {
		if d, ok := depth[s.ID]; ok {
			return d
		}
		d := 0
		switch p := byID[s.Parent]; {
		case s.Parent == asyncParent:
			d = 1 << 20
		case p != nil:
			d = depthOf(p) + 1
		}
		depth[s.ID] = d
		return d
	}
	groups := map[int64][]*span{}
	for i := range spans {
		depthOf(&spans[i])
		groups[spans[i].Interaction] = append(groups[spans[i].Interaction], &spans[i])
	}

	out := make(map[int64]time.Duration, len(spans))
	for _, group := range groups {
		type edge struct {
			at   int64
			s    *span
			open bool
		}
		// Only what happens inside the interaction counts towards it: a
		// call that returns after the interaction's end (an Exec still
		// finishing its NOTIFY work after the handler has the rows) is
		// clipped to the root's interval.
		lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
		for _, s := range group {
			if s.Parent == 0 && s.Interaction != 0 {
				lo, hi = s.Start, s.End
			}
		}
		edges := make([]edge, 0, 2*len(group))
		for _, s := range group {
			if a, b := max(s.Start, lo), min(s.End, hi); a < b {
				edges = append(edges, edge{a, s, true}, edge{b, s, false})
			}
		}
		// Closings before openings at the same instant, so a span that
		// ends where the next begins is not charged for the neighbour.
		sort.SliceStable(edges, func(i, j int) bool {
			if edges[i].at != edges[j].at {
				return edges[i].at < edges[j].at
			}
			return !edges[i].open && edges[j].open
		})
		var open []*span
		prev := int64(0)
		for _, ed := range edges {
			if len(open) > 0 && ed.at > prev {
				top := open[0]
				for _, s := range open[1:] {
					if depth[s.ID] > depth[top.ID] || depth[s.ID] == depth[top.ID] && s.Start > top.Start {
						top = s
					}
				}
				out[top.ID] += time.Duration(ed.at - prev)
			}
			prev = ed.at
			if ed.open {
				open = append(open, ed.s)
				continue
			}
			for i, s := range open {
				if s == ed.s {
					open = append(open[:i], open[i+1:]...)
					break
				}
			}
		}
	}
	return out
}

// selfByName groups self times by span name, in milliseconds.
func selfByName(spans []span) map[string][]float64 {
	self := selfTimes(spans)
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(self[s.ID])/float64(time.Millisecond))
	}
	return out
}

// selfCoverage compares, over all interactions, the sum of the self times
// of every span of an interaction with the duration of that interaction's
// root span (Parent == 0). 1.0 means the spans account for the interaction
// exactly; the acceptance band is 0.95–1.05.
func selfCoverage(spans []span) float64 {
	self := selfTimes(spans)
	rooted := map[int64]bool{} // a failed interaction has no root span
	for _, s := range spans {
		if s.Parent == 0 && s.Interaction != 0 {
			rooted[s.Interaction] = true
		}
	}
	var sumSelf, sumRoot int64
	for _, s := range spans {
		if !rooted[s.Interaction] {
			continue
		}
		sumSelf += int64(self[s.ID])
		if s.Parent == 0 {
			sumRoot += s.End - s.Start
		}
	}
	if sumRoot == 0 {
		return 0
	}
	return float64(sumSelf) / float64(sumRoot)
}
