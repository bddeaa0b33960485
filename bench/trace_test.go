package main

import (
	"testing"
	"time"
)

func TestSelfTimeNested(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Interaction: 7, Name: "interaction", Start: 0, End: 100},
		{ID: 2, Parent: 1, Interaction: 7, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 2, Interaction: 7, Name: "a.child", Start: 20, End: 30},
		{ID: 4, Parent: 1, Interaction: 7, Name: "b", Start: 40, End: 90},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 20, 2: 20, 3: 10, 4: 50}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	if c := selfCoverage(spans); c != 1 {
		t.Errorf("coverage = %v, want 1", c)
	}
}

// A handler on another goroutine overlaps the end of the driver's Exec and
// the start of its wait: its time is its own and is taken away from both,
// so the self times still add up to the interaction.
func TestSelfTimeAsyncSpan(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Interaction: 1, Name: "interaction", Start: 0, End: 100},
		{ID: 2, Parent: 1, Interaction: 1, Name: "client.exec", Start: 0, End: 50},
		{ID: 3, Parent: 1, Interaction: 1, Name: "notify.doorbell", Start: 50, End: 100},
		{ID: 4, Parent: asyncParent, Interaction: 1, Name: "module.handler", Start: 30, End: 70},
		{ID: 5, Parent: 4, Interaction: 1, Name: "vis.insert_attrs", Start: 40, End: 60},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 0, 2: 30, 3: 30, 4: 20, 5: 20}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	if c := selfCoverage(spans); c != 1 {
		t.Errorf("coverage = %v, want 1", c)
	}
}

// What a call does after the interaction has ended is not part of it.
func TestSelfTimeClippedToInteraction(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Interaction: 1, Name: "interaction", Start: 0, End: 60},
		{ID: 2, Parent: 1, Interaction: 1, Name: "engine.insert_batch", Start: 10, End: 90},
		{ID: 3, Parent: asyncParent, Interaction: 1, Name: "module.handler", Start: 60, End: 80},
	}
	self := selfTimes(spans)
	if self[1] != 10 || self[2] != 50 || self[3] != 0 {
		t.Errorf("self times %v", self)
	}
	byName := selfByName(spans)
	if got := byName["engine.insert_batch"][0]; got != 50e-6 {
		t.Errorf("self by name = %v ms", got)
	}
}

func TestNilTracerIsNoop(t *testing.T) {
	var tr *tracer
	if id := tr.newID(); id != 0 {
		t.Errorf("nil tracer allocated id %d", id)
	}
	tr.add(0, 0, 1, "x", time.Now(), time.Now())
	if tr.snapshot() != nil {
		t.Error("nil tracer recorded a span")
	}
}
