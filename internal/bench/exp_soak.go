package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaosnet"
	"repro/internal/loopback"
	"repro/internal/nettrans"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/music"
)

// runSoak drives production-shaped scenarios against the real TCP message
// plane with chaosnet fault injection in the dial path, and reports service
// levels (availability, latency percentiles, retry/failover counts) per
// scenario from the internal/obs registry. Each scenario gets a fresh
// three-site loopback deployment and a fresh metrics registry, so reports
// never bleed into each other.
//
// The scenarios:
//
//   - storm: a hot-key contention storm — every worker fights over three
//     keys while a mild all-pairs latency fault stretches the wire.
//   - flashcrowd: the worker population ramps ×8 and back down, with a
//     brief loss window striking at peak load.
//   - skewshift: Zipfian traffic over 48 keys whose hot set rotates twice
//     mid-run, under a single-pair latency fault.
//   - restarts: a real musicd OS process is SIGKILLed mid-run and restarted
//     on the same identity; the report records the rows the rejoined process
//     pulled back through the startup state-transfer path.
//   - reconfig: real processes again — a spare site joins, a member retires,
//     and a crashed member is replaced through POST /v1/admin/membership,
//     all while the workload keeps running.
//
// With -json the per-scenario SLO reports are written as BENCH_soak.json.
func runSoak(opts Options) []Table {
	dur := 6 * time.Second
	if opts.Quick {
		dur = 1500 * time.Millisecond
	}

	tbl := Table{
		ID:    "soak",
		Title: "Soak scenarios over TCP + chaosnet: SLO report per scenario",
		Columns: []string{"scenario", "sections", "avail", "p50", "p99", "p999",
			"retries", "failovers", "drops", "resets"},
		Notes: []string{
			fmt.Sprintf("storm/flashcrowd/skewshift run %v against a fresh in-process 3-site TCP loopback deployment with chaosnet faults in the dial path", dur),
			"restarts and reconfig deploy real musicd OS processes and drive the REST API: restarts kill -9s one process and verifies its state-transfer catch-up; reconfig joins/retires/replaces sites live",
			"avail = successful sections / attempts; a section failing at one site is re-driven at the next serving site (counted as a failover, not a failure)",
		},
	}
	addRow := func(id string, rep soakReport) {
		d := func(us int64) string { return stats.FormatDuration(time.Duration(us) * time.Microsecond) }
		tbl.Rows = append(tbl.Rows, []string{
			id,
			fmt.Sprintf("%d", rep.SLO.Attempts),
			fmt.Sprintf("%.3f", rep.SLO.Availability),
			d(rep.SLO.P50Micros), d(rep.SLO.P99Micros), d(rep.SLO.P999Micros),
			fmt.Sprintf("%d", rep.SLO.Retries),
			fmt.Sprintf("%d", rep.SLO.Failovers),
			fmt.Sprintf("%d", rep.Faults.Drops),
			fmt.Sprintf("%d", rep.Faults.Resets),
		})
	}
	var reports []soakReport
	for _, sc := range soakScenarios(opts, dur) {
		opts.logf("  soak: %s", sc.id)
		rep := runSoakScenario(sc, dur)
		reports = append(reports, rep)
		addRow(sc.id, rep)
	}
	for _, rep := range runSoakProcScenarios(opts) {
		reports = append(reports, rep)
		addRow(rep.SLO.Scenario, rep)
	}
	writeSoakJSON(opts, reports)
	return []Table{tbl}
}

var soakSites = []string{"site-a", "site-b", "site-c"}

// soakScenario is one production-shaped workload plus its fault schedule.
type soakScenario struct {
	id    string
	sched chaosnet.Schedule
	drive func(env *soakEnv)
}

func soakScenarios(opts Options, dur time.Duration) []soakScenario {
	scale := func(full int) int {
		if opts.Quick {
			return (full + 1) / 2
		}
		return full
	}
	return []soakScenario{
		{
			id: "storm",
			sched: chaosnet.Schedule{Sites: soakSites, Events: []chaosnet.Event{
				{Class: chaosnet.ClassLatency, At: 0, For: dur, Delay: 2 * time.Millisecond, Jitter: time.Millisecond},
			}},
			drive: func(env *soakEnv) {
				env.runWorkers(scale(18), dur, func(w, iter int, rng *rand.Rand) {
					env.section(w, fmt.Sprintf("hot-%d", iter%3))
				})
			},
		},
		{
			id: "flashcrowd",
			sched: chaosnet.Schedule{Sites: soakSites, Events: []chaosnet.Event{
				{Class: chaosnet.ClassLoss, At: dur / 3, For: dur / 6, Rate: 0.05},
			}},
			drive: func(env *soakEnv) {
				work := func(w, iter int, rng *rand.Rand) {
					env.section(w, fmt.Sprintf("fc-%d", rng.Intn(12)))
				}
				env.runWorkers(scale(3), dur/3, work)
				env.runWorkers(scale(24), dur/3, work)
				env.runWorkers(scale(6), dur/3, work)
			},
		},
		{
			id: "skewshift",
			sched: chaosnet.Schedule{Sites: soakSites, Events: []chaosnet.Event{
				{Class: chaosnet.ClassLatency, At: dur / 4, For: dur / 2,
					A: soakSites[0], B: soakSites[2], Delay: 4 * time.Millisecond, Jitter: 2 * time.Millisecond},
			}},
			drive: func(env *soakEnv) {
				start := env.rt.Now()
				env.runWorkers(scale(12), dur, func(w, iter int, rng *rand.Rand) {
					zipf := rand.NewZipf(rng, 1.2, 1, 47)
					phase := int(3 * (env.rt.Now() - start) / dur)
					key := (int(zipf.Uint64()) + 16*phase) % 48
					env.section(w, fmt.Sprintf("zk-%02d", key))
				})
			},
		},
	}
}

// soakRecorder is the driver-side clock, metrics registry and stop flag
// shared by the in-process and process-backed scenario environments.
type soakRecorder struct {
	rt      *sim.Real
	ob      *obs.Obs
	stopped atomic.Bool
}

// soakEnv is one deployed in-process scenario: three single-node MUSIC
// clusters over loopback TCP, dials routed through the chaosnet injector,
// one failover client per site, and a private metrics registry.
type soakEnv struct {
	soakRecorder
	scenario string
	inj      *chaosnet.Injector
	clusters loopback.Clusters
	clients  []*music.Client
}

func newSoakEnv(scenario string, sched chaosnet.Schedule) *soakEnv {
	rt := sim.NewReal(1)
	ob := obs.New(rt, obs.Options{})
	inj := chaosnet.NewInjector(rt, sched)
	env := &soakEnv{soakRecorder: soakRecorder{rt: rt, ob: ob}, scenario: scenario, inj: inj}

	clusters, err := loopback.Deploy(rt, soakSites, nettrans.Config{
		RPCTimeout:   500 * time.Millisecond,
		DialTimeout:  200 * time.Millisecond,
		BackoffFloor: 10 * time.Millisecond,
		BackoffCeil:  80 * time.Millisecond,
	}, inj.Dial, music.TransportConfig{T: 2 * time.Second, Obs: ob})
	if err != nil {
		panic(fmt.Sprintf("bench: soak: %v", err))
	}
	env.clusters = clusters
	for i, c := range clusters {
		env.clients = append(env.clients, c.Client(soakSites[i], music.WithRetry(music.RetryPolicy{
			Attempts:    3,
			BaseBackoff: 10 * time.Millisecond,
			MaxBackoff:  100 * time.Millisecond,
		})))
	}
	return env
}

func (env *soakEnv) close() { env.clusters.Close() }

// runWorkers drives n closed-loop workers for dur, joining them before
// returning (fault windows are bounded, so in-flight sections drain).
func (env *soakEnv) runWorkers(n int, dur time.Duration, work func(w, iter int, rng *rand.Rand)) {
	soakWorkers(env.rt, &env.stopped, n, dur, work)
}

// soakWorkers is the closed-loop worker pool both scenario environments use.
func soakWorkers(rt *sim.Real, stopped *atomic.Bool, n int, dur time.Duration, work func(w, iter int, rng *rand.Rand)) {
	deadline := rt.Now() + dur
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			for iter := 0; rt.Now() < deadline && !stopped.Load(); iter++ {
				work(w, iter, rng)
			}
		}()
	}
	wg.Wait()
}

// section runs one Get+Put critical section from worker w's home site and
// records it in the scenario's SLO series. A retryably failed section is
// re-driven once through the next site's deployment — the front-end re-route
// of §III-A ("retry, possibly at another MUSIC replica"): each process here
// hosts one site, so cross-site failover happens above the client, exactly
// where a production load balancer would do it.
func (env *soakEnv) section(w int, key string) {
	home := w % len(env.clients)
	m := env.ob.Metrics()
	labels := obs.Labels{"scenario": env.scenario}
	body := func(cs *music.CriticalSection) error {
		if _, err := cs.Get(); err != nil {
			return err
		}
		return cs.Put([]byte(fmt.Sprintf("%s-w%d", env.scenario, w)))
	}
	start := env.rt.Now()
	err := env.clients[home].RunCritical(key, body)
	if err != nil && music.IsRetryable(err) {
		next := (home + 1) % len(env.clients)
		m.Counter("music_failover_total", obs.Labels{"from": soakSites[home], "to": soakSites[next]}).Inc()
		err = env.clients[next].RunCritical(key, body)
	}
	m.Counter("soak_sections_total", labels).Inc()
	if err != nil {
		m.Counter("soak_failures_total", labels).Inc()
		return
	}
	m.Histogram("soak_section_latency", labels).Observe(env.rt.Now() - start)
}

// soakReport is one scenario's JSON artifact entry. Proc is set only by the
// process-backed scenarios (restarts, reconfig) and records what the script
// did to the deployment.
type soakReport struct {
	SLO    obs.SLOReport   `json:"slo"`
	Faults chaosnet.Counts `json:"faults"`
	Proc   *soakProcReport `json:"proc,omitempty"`
}

func runSoakScenario(sc soakScenario, dur time.Duration) soakReport {
	env := newSoakEnv(sc.id, sc.sched)
	defer env.close()
	env.inj.Start()
	start := env.rt.Now()
	sc.drive(env)
	wall := env.rt.Now() - start
	env.stopped.Store(true)
	return soakReport{
		SLO: env.ob.Metrics().SLO(obs.SLOOptions{
			Scenario: sc.id,
			Latency:  "soak_section_latency",
			Attempts: "soak_sections_total",
			Failures: "soak_failures_total",
			Wall:     wall,
		}),
		Faults: env.inj.Counts(),
	}
}

func writeSoakJSON(opts Options, reports []soakReport) {
	doc := struct {
		Experiment string       `json:"experiment"`
		Quick      bool         `json:"quick"`
		Reports    []soakReport `json:"reports"`
	}{Experiment: "soak", Quick: opts.Quick, Reports: reports}
	opts.writeJSON("soak", doc)
}
