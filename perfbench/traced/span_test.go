package main

import (
	"testing"
	"time"
)

func TestSelfTimeNestedSpans(t *testing.T) {
	// run [0,100) contains prep [10,40) and sim [50,90); prep contains
	// gen [10,20) and asm [20,35).
	spans := []span{
		{ID: 1, Name: "run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "prep", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "gen", Start: 10, End: 20},
		{ID: 4, Parent: 2, Name: "asm", Start: 20, End: 35},
		{ID: 5, Parent: 1, Name: "sim", Start: 50, End: 90},
	}
	want := []time.Duration{30, 5, 10, 15, 40}
	self := selfTimes(spans)
	var sum time.Duration
	for i, d := range self {
		if d != want[i] {
			t.Errorf("%s self = %d, want %d", spans[i].Name, d, want[i])
		}
		sum += d
	}
	if sum != spans[0].dur() {
		t.Errorf("self times sum to %d, want the root's duration %d", sum, spans[0].dur())
	}
}

func TestTracerNestsByCallOrder(t *testing.T) {
	tr := newTracer(true)
	tr.run = "job-1"
	outer := tr.begin("ilr.rewrite", "")
	tr.do("cfg.build", "", func() {})
	tr.end(outer, 7, 0)
	tr.do("cpu.run", "vcfr", func() {})
	if len(tr.spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(tr.spans))
	}
	if p := tr.spans[1].Parent; p != tr.spans[0].ID {
		t.Errorf("cfg.build parent = %d, want %d", p, tr.spans[0].ID)
	}
	if p := tr.spans[2].Parent; p != 0 {
		t.Errorf("cpu.run parent = %d, want top level", p)
	}
	if tr.spans[0].N != 7 || tr.spans[0].Run != "job-1" || tr.spans[2].Tag != "vcfr" {
		t.Errorf("span fields not recorded: %+v", tr.spans)
	}
	off := newTracer(false)
	off.do("cpu.run", "", func() {})
	if len(off.spans) != 0 {
		t.Error("a disabled tracer recorded spans")
	}
}

func TestAggregateByNameAndTag(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "cpu.run", Tag: "vcfr", Start: 0, End: 100, N: 10, M: 4},
		{ID: 2, Name: "cpu.run", Tag: "baseline", Start: 100, End: 150, N: 10},
	}
	a := aggregate(spans, selfTimes(spans))
	if got := a.nsPerN([]string{"cpu.run"}, "vcfr"); got != 10 {
		t.Errorf("vcfr ns/instr = %v, want 10", got)
	}
	if got := a.nsPerN([]string{"cpu.run"}, ""); got != 7.5 {
		t.Errorf("all-tag ns/instr = %v, want 7.5", got)
	}
	if got := a.nsPerM([]string{"cpu.run"}, "vcfr"); got != 25 {
		t.Errorf("vcfr ns/event = %v, want 25", got)
	}
}
