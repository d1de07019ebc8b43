package main

import (
	"math"
	"testing"
	"time"
)

func TestHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		cap  float64
		want float64
	}{
		{n: 50, cap: 0.99, want: 0.5},       // nothing has ten samples beyond it
		{n: 99, cap: 0.99, want: 0.5},       // p90 would leave 9.9
		{n: 100, cap: 0.99, want: 0.90},     // exactly ten beyond p90
		{n: 999, cap: 0.99, want: 0.90},     // p99 would leave 9.99
		{n: 1000, cap: 0.99, want: 0.99},    // exactly ten beyond p99
		{n: 1000000, cap: 0.99, want: 0.99}, // a metric named p99 never reports more
		{n: 10000, cap: 1, want: 0.999},     // uncapped: ten beyond p99.9
		{n: 100000, cap: 1, want: 0.9999},   // and beyond p99.99
		{n: 100000, cap: 0.5, want: 0.5},    // medians ask for no tail
	} {
		if got := highestSupported(c.n, c.cap); got != c.want {
			t.Errorf("highestSupported(%d, %g) = %g, want %g", c.n, c.cap, got, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	ds := make([]time.Duration, 1000)
	for i := range ds {
		ds[len(ds)-1-i] = time.Duration(i+1) * time.Microsecond // 1..1000 µs, unsorted
	}
	got := summarize(ds, 0.99)
	if got.N != 1000 || got.TailQ != 0.99 {
		t.Fatalf("N=%d TailQ=%g, want 1000 and 0.99", got.N, got.TailQ)
	}
	if math.Abs(got.P50-500.5) > 1e-9 || math.Abs(got.Tail-990.01) > 1e-9 {
		t.Errorf("P50=%g Tail=%g, want 500.5 and 990.01", got.P50, got.Tail)
	}
	if empty := summarize(nil, 0.99); empty.N != 0 || empty.P50 != 0 || empty.Tail != 0 {
		t.Errorf("empty sample summarised as %+v", empty)
	}
}

// TestMedianOfWindows: a run reports the median of its windows, so bursts
// have to hit most of them to move the number, and the order they came in
// does not matter.
func TestMedianOfWindows(t *testing.T) {
	windows := []float64{455, 1100, 460, 900, 470} // two of five caught by a burst
	if got := median(windows); got != 470 {
		t.Errorf("median of five windows = %g, want 470", got)
	}
	if windows[1] != 1100 {
		t.Errorf("median reordered its argument: %v", windows)
	}
	if got := median([]float64{2, 4, 1, 3}); got != 2.5 {
		t.Errorf("median of an even count = %g, want 2.5", got)
	}
	// One window (the count-based workloads) passes through untouched.
	if got := median([]float64{273766.107}); got != 273766.107 {
		t.Errorf("a single window became %g", got)
	}
}

// TestQuartileSpreadMatchesPython pins the spread to the numbers Python's
// statistics.quantiles(values, n=4) gives, since that is what the driver
// gating the benchmark computes.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	// quantiles([10,11,12,13,14,15,16,17,18,19], n=4) = [11.75, 14.5, 17.25]
	xs := []float64{19, 10, 12, 11, 14, 13, 16, 15, 18, 17}
	if got, want := quartileSpread(xs), (17.25-11.75)/14.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %g, want %g", got, want)
	}
	// quantiles([1, 2, 4], n=4) = [1.0, 2.0, 4.0]
	if got, want := quartileSpread([]float64{4, 1, 2}), 3.0/2.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of three = %g, want %g", got, want)
	}
	if got := quartileSpread([]float64{7}); got != 0 {
		t.Errorf("spread of one value = %g, want 0", got)
	}
}

func TestHandoffsAndOverlaps(t *testing.T) {
	ms := time.Millisecond
	recs := []sectionRec{
		// key a: ref 2 was queued before ref 1 released → a handoff of 30 ms.
		{Key: "a", Ref: 1, Start: 0, Created: 100 * ms, Granted: 150 * ms, Release: 300 * ms, End: 400 * ms},
		{Key: "a", Ref: 2, Start: 50 * ms, Created: 200 * ms, Granted: 430 * ms, Release: 500 * ms, End: 600 * ms},
		// ref 3 arrived after ref 2 had gone → its own grant time, 120 ms.
		{Key: "a", Ref: 3, Start: 700 * ms, Created: 800 * ms, Granted: 820 * ms, Release: 900 * ms, End: 950 * ms},
		// key b: two holders at once.
		{Key: "b", Ref: 1, Start: 0, Created: 10 * ms, Granted: 20 * ms, Release: 100 * ms, End: 110 * ms},
		{Key: "b", Ref: 2, Start: 0, Created: 15 * ms, Granted: 60 * ms, Release: 120 * ms, End: 130 * ms},
	}
	queued, alone := handoffs(recs[:3])
	if len(queued) != 1 || queued[0] != 30*ms {
		t.Errorf("queued = %v, want [30ms]", queued)
	}
	if len(alone) != 2 || alone[0] != 150*ms || alone[1] != 120*ms {
		t.Errorf("alone = %v, want [150ms 120ms]", alone)
	}
	if got := overlappingHolders(recs[:3]); len(got) != 0 {
		t.Errorf("disjoint holders reported as overlapping: %v", got)
	}
	if got := overlappingHolders(recs); len(got) != 1 {
		t.Errorf("overlaps = %v, want exactly the one on key b", got)
	}
}

func TestSlowdownIsPerClient(t *testing.T) {
	var recs []sectionRec
	at := time.Duration(0)
	add := func(client int, lat time.Duration) {
		recs = append(recs, sectionRec{Client: client, Start: at, End: at + lat})
		at += lat
	}
	// Client 0 is at a slow site and does not age; client 1 triples. Pooled
	// in completion order the two would blur; per client they do not.
	for i := 0; i < 100; i++ {
		add(0, 600*time.Millisecond)
	}
	for i := 0; i < 100; i++ {
		add(1, time.Duration(100+2*i)*time.Millisecond)
	}
	got, tenth := slowdown(recs)
	// client 0: 1.0; client 1: median(280..298)/median(100..118) = 289/109.
	want := (1.0 + 289.0/109.0) / 2
	if tenth != 10 || math.Abs(got-want) > 1e-9 {
		t.Errorf("slowdown = %g over tenths of %d, want %g over 10", got, tenth, want)
	}
}
