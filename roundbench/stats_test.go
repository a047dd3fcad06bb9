package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

// Expected values are what Python's statistics.quantiles(xs, n=4) and
// statistics.median return for the same samples.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{1, 1, 1, 50}, 1, 1, 37.75},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(med, c.med) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
		if m := median(c.xs); !near(m, c.med) {
			t.Errorf("median(%v) = %v, want %v", c.xs, m, c.med)
		}
	}
	if q1, med, q3 := quartiles([]float64{4}); q1 != 4 || med != 4 || q3 != 4 {
		t.Errorf("one sample: %v %v %v", q1, med, q3)
	}
	if median(nil) != 0 {
		t.Error("median of nothing should be 0")
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want bool
	}{
		{99, 90, false}, // 9.9 → 9 beyond p90
		{100, 90, true},
		{20, 50, true},
		{19, 50, false},
		{999, 99, false},
		{1000, 99, true},
		{0, 50, false},
	}
	for _, c := range cases {
		if got := percentileAllowed(c.n, c.p); got != c.want {
			t.Errorf("percentileAllowed(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := percentile(xs, 50); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
}

func TestSelfTimeUsesUnionOfChildren(t *testing.T) {
	parent := interval{0, 10}
	// Two workers run children in parallel: [1,5] and [3,7] overlap on
	// [3,5]; their union covers 6 s, their sum 8 s.
	kids := []interval{{1, 5}, {3, 7}}
	if got := selfTime(parent, kids); !near(got, 4) {
		t.Errorf("self time with overlapping children = %v, want 4", got)
	}
	// A child nested inside another, and one that overruns the parent.
	kids = []interval{{1, 5}, {2, 3}, {8, 12}}
	if got := selfTime(parent, kids); !near(got, 4) {
		t.Errorf("self time with nested and overrunning children = %v, want 4", got)
	}
	if got := selfTime(parent, nil); got != 10 {
		t.Errorf("self time without children = %v, want 10", got)
	}
	if got := unionLength([]interval{{0, 1}, {1, 2}, {5, 6}, {5.5, 5.7}}); !near(got, 3) {
		t.Errorf("union length = %v, want 3", got)
	}
}

func TestFailedRatioAccounting(t *testing.T) {
	var l failureLedger
	l.round(10, 0, 0, false, false) // clean round
	l.round(10, 2, 1, false, false) // two dropped, one quarantined
	l.round(10, 1, 0, true, false)  // skipped: every client-round fails once
	l.round(10, 0, 0, false, true)  // failed an output check
	if l.attempted != 40 || l.failed != 23 {
		t.Fatalf("attempted=%d failed=%d, want 40 and 23", l.attempted, l.failed)
	}
	if got := l.ratio(); !near(got, 23.0/40) {
		t.Errorf("ratio = %v, want %v", got, 23.0/40)
	}
	var empty failureLedger
	if empty.ratio() != 0 {
		t.Error("empty ledger ratio should be 0")
	}
	l.round(4, 3, 3, false, false) // more failures than clients cannot exceed the cohort
	if l.failed != 27 {
		t.Errorf("failed = %d after an over-counted round, want 27", l.failed)
	}
}

// A traced round whose checks fail counts every client-round of that round
// as failed, not only in the check list.
func TestTracedCheckFailureCountsInFailed(t *testing.T) {
	o := tinyOptions("fedavg", "f64", false)
	o.DropoutProb = 0
	a, err := assemble(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	o.Seed++
	other, err := assemble(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := &report{}
	res := a.runner.RunRound()
	other.runner.RunRound()
	rep.checkRound(a, res, rep.checkTraced(0, a, a, res, a.evaluate()))
	if rep.Failed != 0 || !rep.correct() {
		t.Fatalf("matching runners: failed=%d correct=%v", rep.Failed, rep.correct())
	}
	res = a.runner.RunRound()
	resT := other.runner.RunRound()
	rep.checkRound(a, res, rep.checkTraced(1, a, other, resT, other.evaluate()))
	if rep.Failed != a.cohort || rep.correct() {
		t.Fatalf("checksum mismatch: failed=%d correct=%v, want %d and false", rep.Failed, rep.correct(), a.cohort)
	}
	if rep.Attempted != 2*a.cohort {
		t.Errorf("attempted=%d, want %d", rep.Attempted, 2*a.cohort)
	}
}

// Delta buffers are pooled and freed between rounds, so an address filed
// under one client round can later lie in another's buffer; the newest
// owner must win, and no owner survives into the next round.
func TestBufferOwnersDoNotOutliveReuse(t *testing.T) {
	rec := newRecorder()
	mem := make([]float64, 200)
	rec.beginRound(0)
	old := rec.add(spClientRound, 0, 0, 0, 1)
	rec.mu.Lock()
	rec.ownLocked(mem[:100], old)
	if got := rec.ownerLocked(mem[10:20]); got != old {
		t.Fatalf("owner = %d, want %d", got, old)
	}
	// Within the round a new buffer overlaps the old one's range.
	cur := rec.addLocked(spClientRound, 0, 0, 1, 2)
	rec.ownLocked(mem[50:150], cur)
	if got := rec.ownerLocked(mem[60:]); got != cur {
		t.Errorf("overlapping buffer: owner = %d, want %d", got, cur)
	}
	if got := rec.ownerLocked(mem[10:20]); got != 0 {
		t.Errorf("stale range: owner = %d, want none", got)
	}
	rec.mu.Unlock()

	rec.beginRound(1)
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if got := rec.ownerLocked(mem[60:]); got != 0 {
		t.Errorf("next round: owner = %d, want none", got)
	}
}
