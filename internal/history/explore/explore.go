// Package explore drives the deterministic MUSIC simulator through
// randomized fault schedules and checks every resulting operation history
// against the paper's ECF contract (internal/history). A Script — generated
// from a seed before the run, so every decision is replayable — composes
// faults from four classes (site crash/restart, site partition/heal,
// message loss, clock-skewed expiry) against concurrent multi-site clients
// running critical sections. Run executes the script with history recording
// on, then hands the history to history.Check; a violating script is shrunk
// by Minimize (drop fault events, clients, sections while the violation
// persists) and rendered by Outcome.Repro as a self-contained reproduction:
// the seed, the fault script, the checker verdicts, the full history, and
// the internal/obs span trees of the failing sections.
package explore

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/music"
)

// FaultKind names one of the explorer's fault classes.
type FaultKind string

// The four fault classes every campaign draws from.
const (
	// FaultCrash takes every node of a site down, then restarts it.
	FaultCrash FaultKind = "crash"
	// FaultPartition isolates site group A from group B, then heals.
	FaultPartition FaultKind = "partition"
	// FaultLoss drops each message independently with probability Rate.
	FaultLoss FaultKind = "loss"
	// FaultSkew models a holder whose clock runs slow: sections started
	// during the window dwell past the T bound, driving the expiry +
	// forced-release + synchronize-on-next-grant path.
	FaultSkew FaultKind = "skew"
)

// FaultEvent is one timed fault window: the fault is injected at At and
// healed at At+For. Generate emits non-overlapping windows so events
// minimize independently.
type FaultEvent struct {
	At   time.Duration
	For  time.Duration
	Kind FaultKind
	Site string   // FaultCrash: the site taken down
	A, B []string // FaultPartition: the two site groups
	Rate float64  // FaultLoss: per-message drop probability
}

// String renders the event as one fault-script line.
func (f FaultEvent) String() string {
	detail := ""
	switch f.Kind {
	case FaultCrash:
		detail = " site=" + f.Site
	case FaultPartition:
		detail = fmt.Sprintf(" groups=%v|%v", f.A, f.B)
	case FaultLoss:
		detail = fmt.Sprintf(" rate=%.3f", f.Rate)
	}
	return fmt.Sprintf("%-9s at=%-8v for=%-8v%s", f.Kind, f.At, f.For, detail)
}

// SectionPlan is one critical section a client will run: get, optional
// write(s), get. All choices are made at generation time so a schedule is
// fully determined by its Script.
type SectionPlan struct {
	Key      string
	PreDelay time.Duration // think time before opening the section
	Value    string        // value to put ("" with !Delete: read-only section)
	Value2   string        // optional second put (distinct v2s stamps)
	Delete   bool          // tombstone instead of put
}

// ClientPlan is one client's home site and section sequence.
type ClientPlan struct {
	Home     string
	Sections []SectionPlan
}

// Script is a fully deterministic exploration schedule: the simulator seed,
// the cluster shape, the client workload, and the fault script.
type Script struct {
	Seed        int64
	Profile     string
	T           time.Duration // critical-section bound
	Deadline    time.Duration // virtual-time budget; exceeding it is a liveness failure
	Policy      music.WritePolicy
	HolderCache bool          // sections read as a session (cs.Get) rather than through the Table I op; the name and the draw are pinned by the seeds
	Mutation    core.Mutation // injected protocol bug (checker validation only)
	// ReadMode selects the adaptive read plane: "" is the legacy quorum read
	// path (every Generate script, byte-identical replay), "lease" turns on
	// site-scoped holder leases, "adaptive" serves critical gets at ONE under
	// the consistency monitor. Either mode also spawns plain-Get reader tasks
	// so non-holder clients exercise the site-lease serve path.
	ReadMode string
	Keys     []string
	Clients  []ClientPlan
	Faults   []FaultEvent
	// Spares and Membership turn the script into a live-membership churn
	// schedule: the cluster starts dynamic with the spare sites provisioned
	// but unjoined, and each MembershipEvent reconfigures it mid-workload.
	// Both empty (every Generate script) leaves the cluster static and the
	// run byte-identical to the pre-churn explorer.
	Spares     []string
	Membership []MembershipEvent
}

// Classes returns the set of fault classes the script exercises.
func (s Script) Classes() map[FaultKind]bool {
	m := make(map[FaultKind]bool, 4)
	for _, f := range s.Faults {
		m[f.Kind] = true
	}
	return m
}

// Window is one non-overlapping fault window: inject at At, heal at At+For.
type Window struct {
	At  time.Duration
	For time.Duration
}

// Windows draws n non-overlapping fault windows from rng at the given time
// scale: the first opens within [scale, 4·scale), each lasts
// [1.5·scale, 6.5·scale), and consecutive windows are separated by
// [scale, 4·scale). Non-overlap is what lets a schedule's events heal
// independently and minimize one at a time. Generate uses scale=100ms on
// virtual time; internal/chaosnet reuses the same generator at a tighter
// wall-clock scale for the real TCP plane.
func Windows(rng *rand.Rand, n int, scale time.Duration) []Window {
	ms := func(lo, hi time.Duration) time.Duration {
		loMs, hiMs := int(lo/time.Millisecond), int(hi/time.Millisecond)
		return time.Duration(loMs+rng.Intn(hiMs-loMs)) * time.Millisecond
	}
	wins := make([]Window, 0, n)
	at := ms(scale, 4*scale)
	for i := 0; i < n; i++ {
		w := Window{At: at, For: ms(3*scale/2, 13*scale/2)}
		wins = append(wins, w)
		at += w.For + ms(scale, 4*scale)
	}
	return wins
}

// drawPolicy picks a script's write policy. The draw stays one-in-three
// (slot 1 was a third policy, since removed) so every pinned seed keeps the
// clients, sections and fault windows the rest of its stream generates.
func drawPolicy(rng *rand.Rand) music.WritePolicy {
	return []music.WritePolicy{music.WriteSync, music.WriteBuffered, music.WriteBuffered}[rng.Intn(3)]
}

// Generate derives a Script from a seed: 2-3 clients spread across the
// profile's sites running 2-3 sections each over 1-2 keys, under 1-3
// non-overlapping fault windows drawn from the four classes. A script with
// a skew window runs with a short T so in-section dwell actually expires
// the holder; all other scripts keep T comfortably above section length.
func Generate(seed int64) Script {
	rng := rand.New(rand.NewSource(seed))
	sites := simnet.ProfileIUs.Sites()
	s := Script{
		Seed:     seed,
		Profile:  music.ProfileIUs,
		T:        30 * time.Second,
		Deadline: 2 * time.Minute,
		Policy:   drawPolicy(rng),
	}
	s.HolderCache = rng.Intn(2) == 1
	for i := 0; i < 1+rng.Intn(2); i++ {
		s.Keys = append(s.Keys, fmt.Sprintf("key-%c", 'a'+i))
	}

	wins := Windows(rng, 1+rng.Intn(3), 100*time.Millisecond)
	skew := false
	for _, w := range wins {
		f := FaultEvent{At: w.At, For: w.For}
		switch rng.Intn(4) {
		case 0:
			f.Kind, f.Site = FaultCrash, sites[rng.Intn(len(sites))]
		case 1:
			f.Kind = FaultPartition
			iso := rng.Intn(len(sites))
			for j, site := range sites {
				if j == iso {
					f.A = append(f.A, site)
				} else {
					f.B = append(f.B, site)
				}
			}
		case 2:
			f.Kind, f.Rate = FaultLoss, 0.02+0.08*rng.Float64()
		default:
			f.Kind, skew = FaultSkew, true
		}
		s.Faults = append(s.Faults, f)
	}
	if skew {
		s.T = 400 * time.Millisecond
	}

	nClients := 2 + rng.Intn(2)
	for ci := 0; ci < nClients; ci++ {
		plan := ClientPlan{Home: sites[ci%len(sites)]}
		for si := 0; si < 2+rng.Intn(2); si++ {
			sec := SectionPlan{
				Key:      s.Keys[rng.Intn(len(s.Keys))],
				PreDelay: time.Duration(rng.Intn(400)) * time.Millisecond,
				Value:    fmt.Sprintf("c%d-s%d", ci, si),
			}
			switch rng.Intn(6) {
			case 0:
				sec.Value = "" // read-only section
			case 1:
				sec.Value2 = sec.Value + "-b" // two writes, two v2s stamps
			case 2:
				sec.Delete = true
			}
			plan.Sections = append(plan.Sections, sec)
		}
		s.Clients = append(s.Clients, plan)
	}
	return s
}

// Outcome is one executed schedule: the script, the recorded history, the
// checker verdict, and any simulator-level failure (a deadline overrun is a
// liveness violation — some operation never completed).
type Outcome struct {
	Script Script
	Ops    []history.Op
	Result history.Result
	RunErr error
	Traces string // span trees of the run, captured only for violating outcomes
}

// Violating reports whether the schedule failed: an ECF/linearizability
// violation or a run that never finished inside its virtual-time budget.
func (o Outcome) Violating() bool {
	return o.RunErr != nil || len(o.Result.Violations) > 0
}

// Run executes the script on a fresh simulated cluster with history
// recording (and observability, for repro span trees) enabled, then checks
// the recorded history.
func Run(s Script) Outcome {
	opts := []music.Option{
		music.WithProfile(s.Profile),
		music.WithSeed(s.Seed),
		music.WithT(s.T),
		music.WithHistory(),
		music.WithObservability(),
	}
	switch s.ReadMode {
	case "lease":
		opts = append(opts, music.WithHolderLeases())
	case "adaptive":
		opts = append(opts, music.WithAdaptiveReads())
	}
	if len(s.Spares) > 0 {
		opts = append(opts, music.WithSpareSites(s.Spares...))
	}
	c, err := music.New(opts...)
	if err != nil {
		return Outcome{Script: s, RunErr: err}
	}
	defer c.Close()
	for _, site := range c.Sites() {
		c.Replica(site).SetMutation(s.Mutation)
	}
	v := c.Virtual()
	deadline := s.Deadline
	if deadline == 0 {
		deadline = 2 * time.Minute
	}
	v.SetDeadline(deadline)
	v.SetScheduleShuffle(true)

	runErr := c.Run(func() {
		// The fault driver: one task per window, inject at At, heal at
		// At+For. Windows don't overlap, so heals never clobber each other.
		skewActive := false
		for _, f := range s.Faults {
			f := f
			c.Go(func() {
				c.Sleep(f.At)
				switch f.Kind {
				case FaultCrash:
					c.CrashSite(f.Site)
				case FaultPartition:
					c.PartitionSites(f.A, f.B)
				case FaultLoss:
					c.SetLossRate(f.Rate)
				case FaultSkew:
					skewActive = true
				}
				c.Sleep(f.For)
				switch f.Kind {
				case FaultCrash:
					c.RestartSite(f.Site)
				case FaultPartition:
					c.Heal()
				case FaultLoss:
					c.SetLossRate(0)
				case FaultSkew:
					skewActive = false
				}
			})
		}

		// The membership driver: one task per event. Reconfiguration RPCs
		// legitimately fail while faults are live (the proposer may be cut
		// off), so each event retries through its window; whatever epoch
		// sequence actually materializes, the history checkers certify it.
		for _, ev := range s.Membership {
			ev := ev
			c.Go(func() {
				c.Sleep(ev.At)
				for attempt := 0; attempt < 60; attempt++ {
					var err error
					switch ev.Op {
					case "join":
						_, err = c.JoinSite(ev.Site)
					case "retire":
						_, err = c.RetireSite(ev.Site)
					case "replace":
						_, err = c.ReplaceSite(ev.Site, ev.With)
					}
					if err == nil {
						return
					}
					c.Sleep(500 * time.Millisecond)
				}
			})
		}

		// Plain-Get readers (adaptive read plane only): one task per
		// site × key, so clients that never hold the lock read through the
		// site lease while sections are open and through the eventual path
		// otherwise. Bounded iteration keeps every run terminating.
		if s.ReadMode != "" {
			for _, site := range c.Sites() {
				for _, key := range s.Keys {
					rcl := c.Client(site)
					key := key
					c.Go(func() {
						for i := 0; i < 40; i++ {
							_, _ = rcl.Get(key)
							c.Sleep(75 * time.Millisecond)
						}
					})
				}
			}
		}

		done := sim.NewMailbox[struct{}](v)
		for ci, plan := range s.Clients {
			ci, plan := ci, plan
			cl := c.FailoverClient(plan.Home, music.WithWritePolicy(s.Policy))
			c.Go(func() {
				defer done.Send(struct{}{})
				for si, sec := range plan.Sections {
					c.Sleep(sec.PreDelay)
					sp := c.Obs().Tracer().StartRoot(fmt.Sprintf("explore.section c%d s%d", ci, si))
					err := cl.RunCritical(sec.Key, func(cs *music.CriticalSection) error {
						// HolderCache picks the reader: the session, whose Get the
						// replica's held value serves, or the Table I op, which
						// keeps the campaign's quorum-read coverage. Table I
						// reads see only writes that reached the store: safe
						// before the section's first write, and after it only
						// when every write is synchronous.
						get := func(wrote bool) error {
							var err error
							if s.HolderCache || (wrote && s.Policy != music.WriteSync) {
								_, err = cs.Get()
							} else {
								_, err = cl.CriticalGet(sec.Key, cs.Ref())
							}
							return err
						}
						if err := get(false); err != nil {
							return err
						}
						if skewActive {
							// The slow-clock holder: dwell past the T bound
							// so contenders preempt it mid-section.
							c.Sleep(s.T + s.T/2)
						}
						switch {
						case sec.Delete:
							if err := cs.Delete(); err != nil {
								return err
							}
						case sec.Value != "":
							if err := cs.Put([]byte(sec.Value)); err != nil {
								return err
							}
						}
						if sec.Value2 != "" {
							if err := cs.Put([]byte(sec.Value2)); err != nil {
								return err
							}
						}
						return get(sec.Delete || sec.Value != "" || sec.Value2 != "")
					})
					// Section errors (expiry, exhausted retries) are normal
					// under faults; the history records what really happened.
					sp.EndErr(err)
				}
			})
		}
		for range s.Clients {
			if _, err := done.RecvTimeout(deadline); err != nil {
				return
			}
		}
	})

	out := Outcome{
		Script: s,
		Ops:    c.History().Ops(),
		RunErr: runErr,
	}
	out.Result = history.Check(out.Ops, history.CheckOptions{})
	if out.Violating() {
		out.Traces = captureTraces(c)
	}
	return out
}

// GenerateMode derives the mode variant of seed's schedule: the same faults
// and workload as Generate(seed), with the adaptive read plane enabled.
func GenerateMode(seed int64, mode string) Script {
	s := Generate(seed)
	s.ReadMode = mode
	return s
}

// Explore generates and runs one schedule per seed — the campaign loop
// behind the pinned CI batch, the nightly randomized batch, and
// `musicbench -exp explore`.
func Explore(seeds []int64) []Outcome {
	outs := make([]Outcome, 0, len(seeds))
	for _, seed := range seeds {
		outs = append(outs, Run(Generate(seed)))
	}
	return outs
}

// captureTraces renders the most recent span trees for a violating run.
func captureTraces(c *music.Cluster) string {
	tr := c.Obs().Tracer()
	var b strings.Builder
	for _, id := range tr.TraceIDs(8) {
		tr.WriteTree(&b, id)
	}
	return b.String()
}
