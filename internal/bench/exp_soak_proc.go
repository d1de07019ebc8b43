package bench

import (
	"fmt"
	"math/rand"
	"regexp"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/httpapi"
	"repro/internal/loopback"
	"repro/internal/membership"
	"repro/internal/obs"
	"repro/internal/sim"
)

// This file holds the soak scenarios that deploy real musicd OS processes
// (loopback.DeployProcs) instead of in-process clusters: `restarts` (kill
// -9 one process mid-run, restart it, and verify it catches up through the
// startup state-transfer pull) and `reconfig` (drive join / retire /
// crash+replace through POST /v1/admin/membership while the workload keeps
// running). The driver lives in this benchmark process and speaks the
// Table I REST API through httpapi.Client, failing over to the next serving
// site exactly where a production load balancer would.

// soakProcReport is the extra JSON the process scenarios attach to their
// soakReport entry: what the script did to the deployment and what the
// verification observed.
type soakProcReport struct {
	Deployment  string   `json:"deployment"`
	Events      []string `json:"events,omitempty"`
	Restarted   string   `json:"restarted,omitempty"`
	CaughtUp    bool     `json:"caught_up,omitempty"`
	CatchupRows int      `json:"catchup_rows,omitempty"`
	FinalEpoch  int64    `json:"final_epoch,omitempty"`
}

// runSoakProcScenarios runs both process-backed scenarios. Durations are
// independent of the in-process scenarios: spawning and reconfiguring real
// processes needs a floor even in quick mode.
func runSoakProcScenarios(opts Options) []soakReport {
	dur, workers := 9*time.Second, 9
	if opts.Quick {
		dur, workers = 5*time.Second, 6
	}
	opts.logf("  soak: restarts (real musicd processes)")
	restarts := runProcRestarts(dur, workers)
	opts.logf("  soak: reconfig (real musicd processes)")
	reconfig := runProcReconfig(dur, workers)
	return []soakReport{restarts, reconfig}
}

// deploySoakProcs starts a musicd process per site, the last spares of them
// spare, each with a 2 s T, and waits until every one answers.
func deploySoakProcs(sites []string, spares int) *loopback.Procs {
	d, err := loopback.DeployProcs(sites, spares, func(d *loopback.Procs) error {
		for _, site := range sites {
			if err := d.Start(site, "-t", "2s"); err != nil {
				return err
			}
		}
		return d.WaitHealthy(30*time.Second, sites...)
	})
	if err != nil {
		panic(fmt.Sprintf("bench: soak: %v", err))
	}
	return d
}

// runProcRestarts kills one site's musicd mid-run (SIGKILL, no drain — the
// in-memory store is gone), restarts it on the same identity, and verifies
// the rejoined process pulled its key ranges back through the startup
// state-transfer path before serving.
func runProcRestarts(dur time.Duration, workers int) soakReport {
	sites := []string{"site-a", "site-b", "site-c"}
	d := deploySoakProcs(sites, 0)
	defer d.Close()
	env := newSoakProcEnv("restarts", d, sites...)
	victim := sites[1]
	proc := &soakProcReport{
		Deployment: "3 musicd processes over loopback TCP",
		Restarted:  victim,
	}
	script := make(chan struct{})
	go func() {
		defer close(script)
		time.Sleep(dur / 3)
		env.drop(victim)
		d.Kill(victim)
		proc.Events = append(proc.Events, fmt.Sprintf("kill -9 %s at t+%v", victim, dur/3))
		time.Sleep(dur / 4)
		err := d.Start(victim, "-t", "2s")
		if err == nil {
			err = d.WaitHealthy(30*time.Second, victim)
		}
		if err != nil {
			proc.Events = append(proc.Events, fmt.Sprintf("restart %s: %v", victim, err))
			return
		}
		rows, ok := waitCatchup(d, victim, 15*time.Second)
		proc.CatchupRows = rows
		proc.CaughtUp = ok && rows > 0
		proc.Events = append(proc.Events,
			fmt.Sprintf("restarted %s; startup state transfer pulled %d rows", victim, rows))
		env.add(victim)
	}()
	start := env.rt.Now()
	env.runWorkers(workers, dur, func(w, iter int, rng *rand.Rand) {
		env.section(w, fmt.Sprintf("rr-%d", rng.Intn(8)))
	})
	wall := env.rt.Now() - start
	<-script
	return env.report(wall, proc)
}

// runProcReconfig runs the acceptance lifecycle against live processes: a
// spare site joins, a member retires, a member crashes and is replaced —
// all through the admin endpoint, while the critical-section workload keeps
// running against whichever sites currently serve.
func runProcReconfig(dur time.Duration, workers int) soakReport {
	d := deploySoakProcs([]string{"site-a", "site-b", "site-c", "site-d"}, 1)
	defer d.Close()
	env := newSoakProcEnv("reconfig", d, "site-a", "site-b", "site-c")
	admin := d.Client("site-a")
	proc := &soakProcReport{Deployment: "3 member + 1 spare musicd processes over loopback TCP"}
	t0 := time.Now()
	at := func(offset time.Duration) { time.Sleep(time.Until(t0.Add(offset))) }
	script := make(chan struct{})
	go func() {
		defer close(script)
		step := func(ev string, err error) {
			if err != nil {
				ev = fmt.Sprintf("%s: %v", ev, err)
			}
			proc.Events = append(proc.Events, ev)
		}
		// reconfigure drives one change through site-a and, when serve is
		// set, waits until serve's own polled view has it too.
		reconfigure := func(op membership.Op, site, with, serve string) error {
			_, err := admin.Reconfigure(op, site, with, 20*time.Second)
			if err == nil && serve != "" {
				_, err = d.Client(serve).WaitMembership(20*time.Second,
					func(m httpapi.MembershipBody) bool { return m.Has(serve) })
			}
			return err
		}

		// Planned growth: the spare's site joins and starts serving once its
		// own polled view has caught up.
		at(dur / 5)
		err := reconfigure(membership.OpJoin, "site-d", "", "site-d")
		if err == nil {
			env.add("site-d")
		}
		step("join site-d", err)

		// Planned shrink: the retired process keeps running (it stays in the
		// config group) but no longer serves sections.
		at(2 * dur / 5)
		err = reconfigure(membership.OpRetire, "site-c", "", "")
		if err == nil {
			env.drop("site-c")
		}
		step("retire site-c", err)

		// Unplanned: a member dies with no drain...
		at(3 * dur / 5)
		env.drop("site-b")
		d.Kill("site-b")
		step("kill -9 site-b", nil)

		// ...and is replaced by the retired site in one epoch.
		at(7 * dur / 10)
		err = reconfigure(membership.OpReplace, "site-b", "site-c", "site-c")
		if err == nil {
			env.add("site-c")
		}
		step("replace site-b with site-c", err)

		if m, err := admin.Membership(); err == nil {
			proc.FinalEpoch = m.Epoch
		}
	}()
	start := env.rt.Now()
	env.runWorkers(workers, dur, func(w, iter int, rng *rand.Rand) {
		env.section(w, fmt.Sprintf("rc-%d", rng.Intn(12)))
	})
	wall := env.rt.Now() - start
	<-script
	return env.report(wall, proc)
}

var procCatchupRE = regexp.MustCompile(`startup state transfer: caught up (\d+) rows`)

// waitCatchup scans site's captured output for the startup state-transfer
// line and returns the row count it reported.
func waitCatchup(d *loopback.Procs, site string, timeout time.Duration) (int, bool) {
	deadline := time.Now().Add(timeout)
	for {
		if m := procCatchupRE.FindStringSubmatch(d.Output(site)); m != nil {
			n, _ := strconv.Atoi(m[1])
			return n, true
		}
		if time.Now().After(deadline) {
			return 0, false
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// soakProcEnv drives the Table I REST API against whichever sites currently
// serve, recording into the same soak_* metric series as the in-process
// scenarios.
type soakProcEnv struct {
	soakRecorder
	scenario string
	d        *loopback.Procs
	mu       sync.Mutex
	serving  []string
}

func newSoakProcEnv(scenario string, d *loopback.Procs, serving ...string) *soakProcEnv {
	rt := sim.NewReal(1)
	return &soakProcEnv{
		soakRecorder: soakRecorder{rt: rt, ob: obs.New(rt)},
		scenario:     scenario,
		d:            d,
		serving:      append([]string(nil), serving...),
	}
}

func (env *soakProcEnv) add(site string) {
	env.mu.Lock()
	defer env.mu.Unlock()
	if !slices.Contains(env.serving, site) {
		env.serving = append(env.serving, site)
	}
}

func (env *soakProcEnv) drop(site string) {
	env.mu.Lock()
	defer env.mu.Unlock()
	env.serving = slices.DeleteFunc(slices.Clone(env.serving), func(s string) bool { return s == site })
}

func (env *soakProcEnv) snapshot() []string {
	env.mu.Lock()
	defer env.mu.Unlock()
	return append([]string(nil), env.serving...)
}

// section runs one REST critical section from worker w's home site, failing
// over to the next serving site on any error — the front-end re-route of
// §III-A, here implemented above real processes. A sweep that fails at every
// serving site (a section straddling an epoch change that hasn't reached
// every view yet, or one stuck behind a killed holder's forced-release
// drain) is re-driven after a short backoff against a fresh snapshot, the
// way a production front end retries; the failure is only counted once the
// retry budget is spent.
func (env *soakProcEnv) section(w int, key string) {
	m := env.ob.Metrics()
	labels := obs.Labels{"scenario": env.scenario}
	start := env.rt.Now()
	var err error
	prev := ""
	for round := 0; round < 3; round++ {
		if round > 0 {
			time.Sleep(200 * time.Millisecond)
		}
		sites := env.snapshot()
		if len(sites) == 0 {
			err = fmt.Errorf("no serving sites")
			continue
		}
		for k := 0; k < len(sites); k++ {
			target := sites[(w+k)%len(sites)]
			if prev != "" {
				m.Counter("music_failover_total", obs.Labels{"from": prev, "to": target}).Inc()
			}
			err = env.runSection(env.d.Client(target), key, w)
			prev = target
			if err == nil {
				break
			}
		}
		if err == nil {
			break
		}
	}
	m.Counter("soak_sections_total", labels).Inc()
	if err != nil {
		m.Counter("soak_failures_total", labels).Inc()
		return
	}
	m.Histogram("soak_section_latency", labels).Observe(env.rt.Now() - start)
}

// runSection is one full Table I section over REST: create lockRef, acquire
// until holder, critical get + put, release. Any refusal or transport error
// fails the section (the abandoned lockRef expires after T); a lockRef that
// is not granted is released on the way out.
func (env *soakProcEnv) runSection(c *httpapi.Client, key string, w int) error {
	ref, err := c.CreateLockRef(key)
	if err != nil {
		return err
	}
	if err := c.AwaitHolder(key, ref, 5*time.Second); err != nil {
		_ = c.ReleaseLock(key, ref)
		return err
	}
	if _, _, err := c.CriticalGet(key, ref); err != nil {
		return err
	}
	if err := c.CriticalPut(key, ref, []byte(fmt.Sprintf("%s-w%d", env.scenario, w))); err != nil {
		return err
	}
	return c.ReleaseLock(key, ref)
}

func (env *soakProcEnv) report(wall time.Duration, proc *soakProcReport) soakReport {
	return soakReport{SLO: env.slo(env.scenario, wall), Proc: proc}
}
