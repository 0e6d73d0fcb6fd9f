package main

import "testing"

// TestSelfTimes checks self time over nested spans: overlapping children
// count once, grandchildren are charged to their own parent only, and a
// child running past its parent's end is clipped.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "root", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 30, parent: 0},
		{name: "b", start: 20, end: 50, parent: 0}, // overlaps a: root loses 40, not 50
		{name: "c", start: 15, end: 25, parent: 1},
		{name: "d", start: 90, end: 120, parent: 0}, // clipped to 90..100
		{name: "b", start: 200, end: 210, parent: -1},
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"root": 100 - 40 - 10,
		"a":    20 - 10,
		"b":    30 + 10,
		"c":    10,
		"d":    30,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %d, want %d", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("self times for %d names, want %d: %v", len(got), len(want), got)
	}
}

func TestCoveredDisjointAndNested(t *testing.T) {
	iv := [][2]int64{{60, 70}, {0, 10}, {5, 8}, {20, 30}}
	if got := covered(0, 100, iv); got != 30 {
		t.Errorf("covered = %d, want 30", got)
	}
	if got := covered(25, 65, [][2]int64{{0, 10}, {20, 30}, {60, 70}}); got != 10 {
		t.Errorf("clipped covered = %d, want 10", got)
	}
}

func TestTracerRecordsParentAndID(t *testing.T) {
	var off *tracer
	if i := off.begin("x", -1, 0); i != -1 {
		t.Fatalf("nil tracer begin = %d, want -1", i)
	}
	off.end(-1)

	tr := newTracer()
	root := tr.begin("trial", -1, 7)
	child := tr.begin("heuristics.map", root, 7)
	tr.end(child)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].parent != root || spans[1].id != 7 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].end < spans[1].end || spans[1].start < spans[0].start {
		t.Fatalf("child %+v not inside parent %+v", spans[1], spans[0])
	}
}
