package main

import (
	"reflect"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	sp := func(id, parent int, start, end int64) span {
		return span{Name: "s", ID: id, Parent: parent, Start: start, End: end}
	}
	for _, tc := range []struct {
		name  string
		spans []span
		want  []int64
	}{
		{"leaf", []span{sp(0, -1, 10, 30)}, []int64{20}},
		{"two children in sequence",
			[]span{sp(0, -1, 0, 100), sp(1, 0, 10, 30), sp(2, 0, 50, 90)},
			[]int64{40, 20, 40}},
		{"grandchild counts against its parent only",
			[]span{sp(0, -1, 0, 100), sp(1, 0, 0, 80), sp(2, 1, 20, 50)},
			[]int64{20, 50, 30}},
		{"overlapping children are counted once",
			[]span{sp(0, -1, 0, 100), sp(1, 0, 10, 60), sp(2, 0, 40, 70)},
			[]int64{40, 50, 30}},
		{"a child is clipped to its parent",
			[]span{sp(0, -1, 10, 50), sp(1, 0, 0, 20), sp(2, 0, 40, 90)},
			[]int64{20, 20, 50}},
		{"children recorded out of order",
			[]span{sp(0, -1, 0, 10), sp(1, 0, 6, 8), sp(2, 0, 1, 3)},
			[]int64{6, 2, 2}},
	} {
		if got := selfTimes(tc.spans); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: self times %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	spans := []span{
		{Name: "step", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "check", ID: 1, Parent: 0, Start: 0, End: 60},
		{Name: "check", ID: 2, Parent: 0, Start: 60, End: 90},
	}
	sum := summarize(spans)
	if s := sum["step"]; s.count != 1 || s.total != 100 || s.self != 10 || s.childTotal != 90 {
		t.Errorf("step: %+v", s)
	}
	if s := sum["check"]; s.count != 2 || s.total != 90 || s.meanUS() != 0.045 {
		t.Errorf("check: %+v mean %g", s, s.meanUS())
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, "", 0)
	tr.end(id)
	if id != -1 {
		t.Errorf("nil tracer handed out span id %d", id)
	}
}
