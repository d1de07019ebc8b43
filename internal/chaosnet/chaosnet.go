// Package chaosnet injects deterministic, seed-driven faults into the real
// TCP message plane (internal/nettrans), closing the gap between the
// virtual-time chaos explorer (internal/history/explore) and the wire path
// actual deployments run on. A Schedule is injected at one interposition
// point: a nettrans dial hook (Injector.Dial) that refuses dials across
// partitioned site pairs and wraps every accepted connection in a
// frame-level fault injector (latency, bandwidth shaping, loss, resets).
//
// Determinism contract: a Schedule is generated entirely from its seed
// before the run (same seed → same fault timeline, byte for byte), and every
// probabilistic verdict is drawn from a per-directed-site-pair PRNG seeded
// from the schedule seed — so a replay that presents the same frame sequence
// on a pair receives the same drop/reset/delay decisions. Wall-clock jitter
// can still reorder frames *between* pairs; what is pinned is the fault
// timeline and the per-pair decision stream, which is what a reproduction
// needs.
package chaosnet

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/history/explore"
)

// Class names one of chaosnet's fault classes.
type Class string

// The five fault classes a Schedule draws from.
const (
	// ClassLatency adds Delay±Jitter to every matching frame.
	ClassLatency Class = "latency"
	// ClassBandwidth serializes matching frames through a BytesPerSec pipe.
	ClassBandwidth Class = "bandwidth"
	// ClassLoss drops each matching frame independently with probability Rate.
	ClassLoss Class = "loss"
	// ClassPartition drops every frame between sites A and B and refuses
	// new dials across the pair until the window heals.
	ClassPartition Class = "partition"
	// ClassReset tears the connection down mid-stream with probability Rate
	// per frame — the mid-call connection reset a real network delivers.
	ClassReset Class = "reset"
)

// Event is one timed fault window: inject at At, heal at At+For. A, B scope
// the event to one site pair (either direction); both empty means every
// pair. Partitions always name a pair.
type Event struct {
	At  time.Duration
	For time.Duration

	Class Class
	A, B  string

	Delay       time.Duration // ClassLatency: base one-way delay per frame
	Jitter      time.Duration // ClassLatency: uniform extra in [0, Jitter)
	Rate        float64       // ClassLoss / ClassReset: per-frame probability
	BytesPerSec int           // ClassBandwidth: shaped pipe rate
}

// active reports whether the window covers elapsed time now.
func (e Event) active(now time.Duration) bool {
	return now >= e.At && now < e.At+e.For
}

// matches reports whether the event applies to traffic between sites a and
// b, in either direction.
func (e Event) matches(a, b string) bool {
	if e.A == "" && e.B == "" {
		return true
	}
	return (e.A == a && e.B == b) || (e.A == b && e.B == a)
}

// String renders the event as one fault-script line.
func (e Event) String() string {
	detail := ""
	switch e.Class {
	case ClassLatency:
		detail = fmt.Sprintf(" delay=%v jitter=%v", e.Delay, e.Jitter)
	case ClassBandwidth:
		detail = fmt.Sprintf(" rate=%dB/s", e.BytesPerSec)
	case ClassLoss, ClassReset:
		detail = fmt.Sprintf(" p=%.3f", e.Rate)
	}
	scope := "all-pairs"
	if e.A != "" || e.B != "" {
		scope = e.A + "↔" + e.B
	}
	return fmt.Sprintf("%-9s at=%-8v for=%-8v %s%s", e.Class, e.At, e.For, scope, detail)
}

// Schedule is a fully deterministic fault timeline over a set of sites.
type Schedule struct {
	Seed   int64
	Sites  []string
	Events []Event
}

// End returns the instant the last fault window heals.
func (s Schedule) End() time.Duration {
	var end time.Duration
	for _, e := range s.Events {
		if t := e.At + e.For; t > end {
			end = t
		}
	}
	return end
}

// Classes returns the set of fault classes the schedule exercises.
func (s Schedule) Classes() map[Class]bool {
	m := make(map[Class]bool, 5)
	for _, e := range s.Events {
		m[e.Class] = true
	}
	return m
}

// String renders the schedule as a replayable fault script.
func (s Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaosnet schedule seed=%d sites=%v\n", s.Seed, s.Sites)
	for _, e := range s.Events {
		fmt.Fprintf(&b, "  %s\n", e)
	}
	return b.String()
}

// Generate derives a Schedule from a seed: 1-3 non-overlapping fault
// windows (the explorer's window generator at a 50ms wall-clock scale, so a
// whole schedule heals within roughly a second) drawn from the five
// classes. Non-partition events scope to a random site pair half the time
// and to all pairs otherwise; partitions always isolate one pair.
func Generate(seed int64, sites []string) Schedule {
	rng := rand.New(rand.NewSource(seed))
	s := Schedule{Seed: seed, Sites: append([]string(nil), sites...)}
	wins := explore.Windows(rng, 1+rng.Intn(3), 50*time.Millisecond)
	for _, w := range wins {
		e := Event{At: w.At, For: w.For}
		pair := func() {
			if len(sites) < 2 {
				return
			}
			i := rng.Intn(len(sites))
			j := rng.Intn(len(sites) - 1)
			if j >= i {
				j++
			}
			e.A, e.B = sites[i], sites[j]
		}
		switch rng.Intn(5) {
		case 0:
			e.Class = ClassLatency
			e.Delay = time.Duration(5+rng.Intn(20)) * time.Millisecond
			e.Jitter = e.Delay / 2
		case 1:
			e.Class = ClassBandwidth
			e.BytesPerSec = (64 + rng.Intn(193)) * 1024
		case 2:
			e.Class = ClassLoss
			e.Rate = 0.05 + 0.15*rng.Float64()
		case 3:
			e.Class = ClassPartition
			pair()
		default:
			e.Class = ClassReset
			e.Rate = 0.05 + 0.10*rng.Float64()
		}
		if e.Class != ClassPartition && rng.Intn(2) == 1 {
			pair()
		}
		s.Events = append(s.Events, e)
	}
	return s
}
