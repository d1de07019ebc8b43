package chaosnet

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// Verdict is the injector's decision for one frame (or message).
type Verdict struct {
	// Drop discards the frame silently.
	Drop bool
	// Reset tears down the connection carrying the frame.
	Reset bool
	// Delay holds the frame back before delivery (latency and bandwidth
	// shaping fold into one release offset).
	Delay time.Duration
}

// Counts tallies what the injector actually did — a soak report includes
// them so "no faults fired" cannot masquerade as a passing run.
type Counts struct {
	Drops   int64 `json:"drops"`
	Resets  int64 `json:"resets"`
	Delays  int64 `json:"delays"`
	Refused int64 `json:"refused"` // dials refused across partitioned pairs
}

// pairState is the per-directed-site-pair decision state: a PRNG seeded
// from the schedule seed and the pair name (so decision streams are
// independent per pair and reproducible), plus the bandwidth-shaping cursor
// that serializes the pair's frames through the shaped pipe.
type pairState struct {
	rng    *rand.Rand
	cursor time.Duration
}

// Injector evaluates a Schedule against elapsed run time and hands out
// frame verdicts. One Injector serves a whole deployment: every faultConn
// built from it shares the same timeline.
type Injector struct {
	rt    sim.Runtime
	sched Schedule

	mu      sync.Mutex
	started bool
	epoch   time.Duration
	pairs   map[string]*pairState

	drops   atomic.Int64
	resets  atomic.Int64
	delays  atomic.Int64
	refused atomic.Int64
}

// NewInjector builds an injector over the runtime's clock. Call Start when
// the workload begins; the schedule's windows are relative to that instant.
func NewInjector(rt sim.Runtime, sched Schedule) *Injector {
	return &Injector{rt: rt, sched: sched, pairs: make(map[string]*pairState)}
}

// Schedule returns the fault timeline the injector runs.
func (in *Injector) Schedule() Schedule { return in.sched }

// Start pins the schedule's time origin to now. Idempotent: the first call
// wins, so several components can all Start defensively.
func (in *Injector) Start() {
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.started {
		in.started = true
		in.epoch = in.rt.Now()
	}
}

// Elapsed returns time since Start (zero before it).
func (in *Injector) Elapsed() time.Duration {
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.started {
		return 0
	}
	return in.rt.Now() - in.epoch
}

// Done reports whether every fault window has healed.
func (in *Injector) Done() bool { return in.Elapsed() >= in.sched.End() }

// Counts returns what the injector has done so far.
func (in *Injector) Counts() Counts {
	return Counts{
		Drops:   in.drops.Load(),
		Resets:  in.resets.Load(),
		Delays:  in.delays.Load(),
		Refused: in.refused.Load(),
	}
}

// fnv64 hashes a pair key into the per-pair PRNG seed.
func fnv64(s string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return int64(h)
}

func (in *Injector) pair(from, to string) *pairState {
	key := from + "→" + to
	ps, ok := in.pairs[key]
	if !ok {
		ps = &pairState{rng: rand.New(rand.NewSource(in.sched.Seed ^ fnv64(key)))}
		in.pairs[key] = ps
	}
	return ps
}

// Partitioned reports whether a partition window currently covers the pair
// — the dial hook refuses new connections across it.
func (in *Injector) Partitioned(from, to string) bool {
	now := in.Elapsed()
	for _, e := range in.sched.Events {
		if e.Class == ClassPartition && e.active(now) && e.matches(from, to) {
			return true
		}
	}
	return false
}

// Verdict decides the fate of one size-byte frame traveling from site
// `from` to site `to` right now. Active events apply in schedule order;
// drop and reset short-circuit (nothing to delay once the frame is gone).
func (in *Injector) Verdict(from, to string, size int) Verdict {
	in.mu.Lock()
	defer in.mu.Unlock()
	var now time.Duration
	if in.started {
		now = in.rt.Now() - in.epoch
	}
	ps := in.pair(from, to)
	var v Verdict
	for _, e := range in.sched.Events {
		if !e.active(now) || !e.matches(from, to) {
			continue
		}
		switch e.Class {
		case ClassPartition:
			v = Verdict{Drop: true}
		case ClassLoss:
			if ps.rng.Float64() < e.Rate {
				v = Verdict{Drop: true}
			}
		case ClassReset:
			if ps.rng.Float64() < e.Rate {
				v = Verdict{Reset: true}
			}
		case ClassLatency:
			d := e.Delay
			if e.Jitter > 0 {
				d += time.Duration(ps.rng.Int63n(int64(e.Jitter)))
			}
			v.Delay += d
		case ClassBandwidth:
			if e.BytesPerSec > 0 {
				transmit := time.Duration(size) * time.Second / time.Duration(e.BytesPerSec)
				release := max(ps.cursor, now) + transmit
				ps.cursor = release
				v.Delay += release - now
			}
		}
		if v.Drop || v.Reset {
			v.Delay = 0
			break
		}
	}
	switch {
	case v.Drop:
		in.drops.Add(1)
	case v.Reset:
		in.resets.Add(1)
	case v.Delay > 0:
		in.delays.Add(1)
	}
	return v
}
