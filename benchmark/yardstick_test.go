package main

import (
	"math"
	"runtime"
	"testing"
	"time"
)

// TestEpochArithmetic pins the map from host time to reference time: linear
// from the epoch's start, and standing still while the yardstick runs.
func TestEpochArithmetic(t *testing.T) {
	e := epoch{wall: 10 * time.Millisecond, ref: 7 * time.Millisecond, scale: 0.75}
	if got, want := e.at(14*time.Millisecond), 10*time.Millisecond; got != want {
		t.Errorf("4 ms of a host at three quarters of the reference speed from 7 ms = %v, want %v", got, want)
	}
	frozen := epoch{wall: 10 * time.Millisecond, ref: 7 * time.Millisecond}
	if got := frozen.at(time.Second); got != frozen.ref {
		t.Errorf("a stopped clock moved to %v", got)
	}
}

// TestRefClock runs the real thing briefly: reference time never goes back,
// a yardstick reading takes none of it, the scale is the reference call over
// the measured one, and closing the clock leaves no goroutine behind.
func TestRefClock(t *testing.T) {
	before := runtime.NumGoroutine()
	r, err := newRefClock()
	if err != nil {
		t.Fatal(err)
	}
	last, lastCPU := r.Now(), r.CPU()
	for i := 0; i < 5; i++ {
		r.due = 0 // a reading is due
		before := r.cur.Load()
		r.tick()
		after := r.cur.Load()
		if now := r.Now(); now < last {
			t.Fatalf("reference time went back from %v to %v", last, now)
		}
		// Had the clock run on through the reading, the new epoch would
		// start where the old one had got to by then.
		if ran := before.at(after.wall); after.ref >= ran {
			t.Errorf("the reading took reference time: the epoch after it starts at %v, the one before it had reached %v", after.ref, ran)
		}
		for spin := time.Now(); time.Since(spin) < 2*time.Millisecond; {
		}
		now, cpu := r.Now(), r.CPU()
		want := time.Duration(float64(2*time.Millisecond) * r.cur.Load().scale)
		if now-last < want || cpu < lastCPU {
			t.Errorf("2 ms of spinning moved reference time by %v, want at least %v, and reference CPU by %v", now-last, want, cpu-lastCPU)
		}
		last, lastCPU = now, cpu
	}
	call, stops := r.yardstickMicros()
	if stops != 6 || call <= 0 {
		t.Errorf("%d readings with a median of %g µs, want 6 positive ones", stops, call)
	}
	lastCall := r.calls[len(r.calls)-1]
	if got, want := r.cur.Load().scale, refCallMicros/lastCall; math.Abs(got-want) > 1e-12 {
		t.Errorf("scale %g after a reading of %g µs, want %g", got, lastCall, want)
	}
	r.close()
	for i := 0; i < 100 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after close, %d before the clock was made", n, before)
	}
}
