package chaosnet

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/history"
	"repro/internal/loopback"
	"repro/internal/nettrans"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/music"
)

// CampaignSites are the three sites a campaign deployment spans — one
// single-node musicd-in-miniature per site, all on loopback TCP.
var CampaignSites = []string{"ohio", "ncalifornia", "oregon"}

// Outcome is the result of one campaign seed: the fault schedule it ran
// under, the recorded multi-site history, the checker verdict over it, and
// the injector's fault tally.
type Outcome struct {
	Schedule Schedule
	Ops      []history.Op
	Result   history.Result
	Counts   Counts
	// RunErr is non-nil when the workload itself wedged (never finished
	// within the hard deadline) — a liveness failure distinct from a
	// checker violation.
	RunErr error
}

// Violating reports whether the seed found anything: a safety violation
// flagged by the checkers, or a wedged run.
func (o Outcome) Violating() bool { return o.RunErr != nil || len(o.Result.Violations) > 0 }

// Repro renders everything needed to chase the outcome down: the schedule,
// the verdict, and the full history.
func (o Outcome) Repro() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaosnet repro: seed=%d\n\n%s\n", o.Schedule.Seed, o.Schedule)
	fmt.Fprintf(&b, "\nfaults injected: drops=%d resets=%d delays=%d refused-dials=%d\n",
		o.Counts.Drops, o.Counts.Resets, o.Counts.Delays, o.Counts.Refused)
	if o.RunErr != nil {
		fmt.Fprintf(&b, "\nrun error: %v\n", o.RunErr)
	}
	if len(o.Result.Violations) > 0 {
		b.WriteString("\nviolations:\n")
		for _, v := range o.Result.Violations {
			fmt.Fprintf(&b, "  %s\n", v)
		}
	}
	fmt.Fprintf(&b, "\nhistory (%d ops):\n", len(o.Ops))
	for _, op := range o.Ops {
		fmt.Fprintf(&b, "  %s\n", op)
	}
	return b.String()
}

// RunSeed runs one campaign seed end to end: generate the fault schedule,
// deploy three single-node MUSIC clusters over real loopback TCP with every
// dial routed through the injector, drive one client per site through
// contended critical sections until the schedule has played out, then check
// the merged history against the ECF contract.
//
// All three transports share one wall-clock runtime and one history
// recorder, so the merged timeline checks as a single history. Individual
// section errors under faults are expected and fine — the checkers judge
// what the protocol admitted, not whether every attempt succeeded.
func RunSeed(seed int64) Outcome { return runCampaignSeed(seed, 1, "") }

// RunSeedSharded is RunSeed over a sharded deployment: each site runs
// `shards` single-node processes, every process hosting a full MUSIC
// replica with its plane partitioned by store.ShardOf, and the driving
// client routes each key to its site's owning shard process — so grant
// state, forced release and failover all play out per shard while the
// merged history still has to check as one ECF timeline. The key set is
// widened so sections land in more than one shard per site.
func RunSeedSharded(seed int64, shards int) Outcome { return runCampaignSeed(seed, shards, "") }

// RunSeedMode is RunSeed with an adaptive read plane switched on: mode
// "lease" turns on site-scoped holder leases, mode "adaptive" runs monitored
// ONE reads with one shared consistency monitor watching all three processes
// through the shared history recorder. Both modes also drive a plain-Get
// reader per site so the lease serve path and the weak read path are
// exercised while the fault schedule plays, and the merged history must
// check clean under the lease/monitor ECF rules.
func RunSeedMode(seed int64, mode string) Outcome { return runCampaignSeed(seed, 1, mode) }

func runCampaignSeed(seed int64, shards int, mode string) Outcome {
	if shards < 1 {
		shards = 1
	}
	sched := Generate(seed, CampaignSites)
	rt := sim.NewReal(seed)
	inj := NewInjector(rt, sched)
	rec := history.New(rt)

	// One single-node process per (site, shard); node IDs are dense in
	// site-major order so process si*shards+sh serves site si, shard sh.
	nProcs := len(CampaignSites) * shards
	var clusters loopback.Clusters

	// In adaptive mode one monitor spans the whole deployment, attached to
	// the shared recorder; its repair hook routes the quorum re-read through
	// the flagged site's owning shard process. The clusters slice is fully
	// populated before the workload (and thus any violation) can run.
	var mon *history.Monitor
	if mode == "adaptive" {
		mon = history.NewMonitor(history.MonitorConfig{
			OnViolation: func(site, key string) {
				for si, s := range CampaignSites {
					if s == site {
						rep := clusters[si*shards+store.ShardOf(key, shards)].Replica(site)
						rt.Go(func() { _ = rep.RepairRead(key) })
						return
					}
				}
			},
		})
		rec.Attach(mon)
	}

	sites := make([]string, nProcs)
	for i := range sites {
		sites[i] = CampaignSites[i/shards]
	}
	clusters, err := loopback.Deploy(rt, sites, nettrans.Config{
		RPCTimeout:   500 * time.Millisecond,
		DialTimeout:  200 * time.Millisecond,
		BackoffFloor: 10 * time.Millisecond,
		BackoffCeil:  80 * time.Millisecond,
	}, inj.Dial, music.TransportConfig{
		T:             5 * time.Second,
		Shards:        shards,
		History:       rec,
		Leases:        mode == "lease",
		AdaptiveReads: mode == "adaptive",
		Monitor:       mon,
	})
	if err != nil {
		return Outcome{Schedule: sched, RunErr: err}
	}
	defer clusters.Close()

	// Two keys in the single-shard campaign (the historical workload);
	// four when sharded, so each site's sections hit multiple shards.
	keySpan := 2 * shards
	if keySpan > 4 {
		keySpan = 4
	}

	// Odd seeds read through the Table I op (a quorum read; read-your-writes
	// safe because the campaign's clients write synchronously), even seeds
	// through the session, whose reads the replica's held value serves — so
	// the pinned batch certifies both ends of the read ladder over real TCP.
	tableI := seed%2 == 1

	inj.Start()
	until := sched.End() + 200*time.Millisecond
	var wg sync.WaitGroup
	for ci := range CampaignSites {
		ci, site := ci, CampaignSites[ci]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for si := 0; inj.Elapsed() < until; si++ {
				key := fmt.Sprintf("cn-%c", 'a'+(ci+si)%keySpan)
				val := []byte(fmt.Sprintf("c%d-s%d", ci, si))
				// The client talks to the process owning the key's shard at
				// its site — the same routing a sharded front end would do.
				cl := clusters[ci*shards+store.ShardOf(key, shards)].Client(site)
				// Errors are the faults doing their job; the checkers decide
				// whether what did commit was admissible.
				_ = cl.RunCritical(key, func(cs *music.CriticalSection) error {
					get := cs.Get
					if tableI {
						get = func() ([]byte, error) { return cl.CriticalGet(key, cs.Ref()) }
					}
					if _, err := get(); err != nil {
						return err
					}
					if err := cs.Put(val); err != nil {
						return err
					}
					_, err := get()
					return err
				})
				rt.Sleep(10 * time.Millisecond)
			}
		}()
	}
	if mode != "" {
		// One plain-Get reader per site: in lease mode these land on the
		// site lease while its section is live, in adaptive mode they keep
		// the weak read plane busy while the fault schedule plays.
		for ci := range CampaignSites {
			ci, site := ci, CampaignSites[ci]
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ri := 0; inj.Elapsed() < until; ri++ {
					key := fmt.Sprintf("cn-%c", 'a'+ri%keySpan)
					cl := clusters[ci*shards+store.ShardOf(key, shards)].Client(site)
					_, _ = cl.Get(key)
					rt.Sleep(15 * time.Millisecond)
				}
			}()
		}
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var runErr error
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		runErr = fmt.Errorf("workload wedged: clients still running 20s after schedule end (%v)", sched.End())
	}

	out := Outcome{Schedule: sched, Ops: rec.Ops(), Counts: inj.Counts(), RunErr: runErr}
	out.Result = history.Check(out.Ops, history.CheckOptions{})
	return out
}
