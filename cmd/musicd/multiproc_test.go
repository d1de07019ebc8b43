package main

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"repro/internal/history"
	"repro/internal/httpapi"
	"repro/internal/loopback"
	"repro/internal/nettrans"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/music"
)

// section runs one full Table I section through c, failing the test on
// any error.
func section(t *testing.T, c *httpapi.Client, key string, fn func(ref music.LockRef)) {
	t.Helper()
	ref, err := c.CreateLockRef(key)
	must(t, err)
	must(t, c.AwaitHolder(key, ref, 10*time.Second))
	fn(ref)
	must(t, c.ReleaseLock(key, ref))
}

// criticalGet reads key under ref through c, failing the test on an error
// or an absent value.
func criticalGet(t *testing.T, c *httpapi.Client, key string, ref music.LockRef) string {
	t.Helper()
	v, ok, err := c.CriticalGet(key, ref)
	if err != nil || !ok {
		t.Fatalf("criticalGet %s under %d = (%q, %t, %v)", key, ref, v, ok, err)
	}
	return string(v)
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

var testSites = []string{"ohio", "ncalifornia", "oregon"}

// ecfCheck exercises the full ECF critical-section flow across three sites:
// write under a lock at ohio, read it back under a new lock at oregon (a
// quorum read through a different coordinator), and verify a stale lockRef
// is refused once released.
func ecfCheck(t *testing.T, ohio, oregon *httpapi.Client) {
	t.Helper()
	var staleRef music.LockRef
	section(t, ohio, "inventory", func(ref music.LockRef) {
		staleRef = ref
		must(t, ohio.CriticalPut("inventory", ref, []byte("42 units")))
		if got := criticalGet(t, ohio, "inventory", ref); got != "42 units" {
			t.Fatalf("criticalGet at writer site = %q", got)
		}
	})

	// A released lockRef no longer holds the lock: ECF refuses the
	// critical op (412, the "not the lock holder" refusal).
	var se *httpapi.StatusError
	if err := ohio.CriticalPut("inventory", staleRef, []byte("stale")); !errors.As(err, &se) || se.Code != http.StatusPreconditionFailed {
		t.Fatalf("put under a released lockRef = %v, want 412", err)
	}

	// A fresh section at another site must see the committed value.
	section(t, oregon, "inventory", func(ref music.LockRef) {
		if got := criticalGet(t, oregon, "inventory", ref); got != "42 units" {
			t.Fatalf("criticalGet at remote site = %q, want the value written at %s", got, testSites[0])
		}
		must(t, oregon.CriticalPut("inventory", ref, []byte("41 units")))
	})
	section(t, ohio, "inventory", func(ref music.LockRef) {
		if got := criticalGet(t, ohio, "inventory", ref); got != "41 units" {
			t.Fatalf("read-back at %s = %q", testSites[0], got)
		}
	})
}

// TestThreeNodeClusterInProcess builds the multi-process deployment shape —
// three nettrans endpoints, three single-site MUSIC clusters, three REST
// servers — inside one test process and runs the ECF flow over HTTP. All
// three clusters share one history recorder, and the merged timeline must
// pass the ECF checkers: the real TCP path without faults records a clean
// history.
func TestThreeNodeClusterInProcess(t *testing.T) {
	rt := sim.NewReal(1)
	rec := history.New(rt)
	ob := obs.New(rt, obs.Options{})
	clusters, err := loopback.Deploy(rt, testSites, nettrans.Config{Obs: ob}, nil,
		music.TransportConfig{T: time.Minute, Obs: ob, History: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer clusters.Close()
	clients := make([]*httpapi.Client, len(testSites))
	for i, site := range testSites {
		srv := httptest.NewServer(httpapi.New(clusters[i].Client(site)))
		defer srv.Close()
		clients[i] = httpapi.NewClient(srv.URL)
	}
	ecfCheck(t, clients[0], clients[2])

	ops := rec.Ops()
	if len(ops) == 0 {
		t.Fatal("shared recorder saw no operations")
	}
	assertCleanHistory(t, ops)
}

// assertCleanHistory runs the ECF + linearizability checkers over a
// recorded multi-site history and fails on any violation.
func assertCleanHistory(t *testing.T, ops []history.Op) {
	t.Helper()
	res := history.Check(ops, history.CheckOptions{})
	for _, v := range res.Violations {
		t.Errorf("history violation: %s", v)
	}
	if len(res.Unbounded) > 0 {
		t.Errorf("linearizability search exceeded budget on keys %v", res.Unbounded)
	}
	t.Logf("history check: %d ops, %d keys, clean=%t", res.Ops, res.Keys, res.Ok())
}

// assertCleanMergedHistory fetches every site's recorded ops, merges them
// into one timeline and checks it.
func assertCleanMergedHistory(t *testing.T, d *loopback.Procs, sites ...string) {
	t.Helper()
	var parts [][]history.Op
	total := 0
	for _, site := range sites {
		ops, err := d.Client(site).History()
		if err != nil {
			t.Fatalf("history of %s: %v", site, err)
		}
		total += len(ops)
		parts = append(parts, ops)
	}
	if total == 0 {
		t.Fatal("no process recorded any operations")
	}
	assertCleanHistory(t, mergeHistories(parts...))
}

// mergeHistories combines per-process histories into one timeline. The
// processes clock from a shared epoch (musicd -history), so sorting by
// response time (invocation as tie-break) reconstructs completion order;
// IDs are renumbered to match.
func mergeHistories(parts ...[]history.Op) []history.Op {
	var all []history.Op
	for _, p := range parts {
		all = append(all, p...)
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].Resp != all[j].Resp {
			return all[i].Resp < all[j].Resp
		}
		return all[i].Inv < all[j].Inv
	})
	for i := range all {
		all[i].ID = uint64(i + 1)
	}
	return all
}

// deploy runs setup on a musicd process deployment of sites, the last
// spares of them spare, and closes it when the test ends, logging every
// process's output if the test failed.
func deploy(t *testing.T, sites []string, spares int, setup func(d *loopback.Procs) error) *loopback.Procs {
	t.Helper()
	d, err := loopback.DeployProcs(sites, spares, setup)
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	t.Cleanup(func() {
		if t.Failed() {
			for _, site := range sites {
				t.Logf("%s output:\n%s", site, d.Output(site))
			}
		}
		d.Close()
	})
	return d
}

// TestThreeProcessCluster builds the musicd binary and runs a genuine
// three-process cluster on localhost: one OS process per site, TCP between
// them, REST on top.
func TestThreeProcessCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns real processes")
	}
	d := deploy(t, testSites, 0, func(d *loopback.Procs) error {
		for _, site := range testSites {
			// -leases and -adaptive ride along so the flag plumbing for the
			// adaptive read plane is exercised over a real multi-process
			// deployment; the merged history must still check clean.
			if err := d.Start(site, "-history", "-leases", "-adaptive"); err != nil {
				return err
			}
		}
		return d.WaitHealthy(15*time.Second, testSites...)
	})
	ecfCheck(t, d.Client(testSites[0]), d.Client(testSites[2]))

	// -adaptive serves the live monitor's standing on every process.
	for _, site := range testSites {
		if _, err := d.Client(site).Consistency(); err != nil {
			t.Fatalf("consistency at %s: %v", site, err)
		}
	}

	// Each process recorded its own history on the shared Unix-epoch clock;
	// fetch all three, merge them into one timeline, and check it — the
	// genuine multi-process ECF validation over real TCP.
	assertCleanMergedHistory(t, d, testSites...)
}

// TestSingleProcessProfileAppliesTableII: single-process musicd puts its
// profile's round trips on the loopback links between its sites. A
// createLockRef is one LWT, four quorum rounds, so under -profile IUs it
// takes at least four round trips from ohio to its nearest quorum peer
// (ncalifornia, 53.79 ms); under -profile local, whose links are 2 ms, the
// same call takes less than that.
func TestSingleProcessProfileAppliesTableII(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns real processes")
	}
	floor := 4 * simnet.ProfileIUs.RTT("ohio", "ncalifornia")
	createLockRef := func(profile string) time.Duration {
		site := simnet.Named(profile).Sites()[0]
		d := deploy(t, []string{site}, 0, func(d *loopback.Procs) error {
			if err := d.StartSingle(site, "-profile", profile); err != nil {
				return err
			}
			return d.WaitHealthy(15*time.Second, site)
		})
		start := time.Now()
		if _, err := d.Client(site).CreateLockRef("k"); err != nil {
			t.Fatal(err)
		}
		took := time.Since(start)
		d.Kill(site)
		return took
	}
	if took := createLockRef(music.ProfileIUs); took < floor {
		t.Errorf("-profile IUs: createLockRef at ohio took %v, want at least %v (4 × 53.79 ms)", took, floor)
	} else {
		t.Logf("-profile IUs: createLockRef took %v", took)
	}
	if took := createLockRef(music.ProfileLocal); took >= floor {
		t.Errorf("-profile local: createLockRef took %v, want less than %v", took, floor)
	} else {
		t.Logf("-profile local: createLockRef took %v", took)
	}
}

// deployYoung starts the first two test sites, then the third — the young
// process — 2 s after both answer, every one with flags.
func deployYoung(t *testing.T, flags ...string) *loopback.Procs {
	t.Helper()
	return deploy(t, testSites, 0, func(d *loopback.Procs) error {
		for _, site := range testSites[:2] {
			if err := d.Start(site, flags...); err != nil {
				return err
			}
		}
		if err := d.WaitHealthy(15*time.Second, testSites[:2]...); err != nil {
			return err
		}
		time.Sleep(2 * time.Second)
		if err := d.Start(testSites[2], flags...); err != nil {
			return err
		}
		return d.WaitHealthy(15*time.Second, testSites[2])
	})
}

// TestYoungProcessPutWins: every musicd process clocks from the Unix epoch,
// not from its own start, so a plain put coordinated by a process started
// seconds after the others is stamped above an earlier put coordinated by
// an older one, and wins last-writer-wins. On per-process uptime clocks the
// young process's later put carries the smaller stamp and is lost.
func TestYoungProcessPutWins(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns real processes")
	}
	d := deployYoung(t)
	young := testSites[2]

	must(t, d.Client(testSites[0]).Put("clock", []byte("old")))
	must(t, d.Client(young).Put("clock", []byte("young")))

	// A critical read is a quorum read, so it returns the value with the
	// highest stamp whichever replicas each put reached.
	reader := d.Client(testSites[1])
	section(t, reader, "clock", func(ref music.LockRef) {
		if got := criticalGet(t, reader, "clock", ref); got != "young" {
			t.Fatalf("after a put at %s and then one at %s, started 2s later: read %q, want \"young\"", testSites[0], young, got)
		}
	})
}

// TestYoungHolderNotForceReleased: a grant's start time is read from the
// granting process's clock and judged against T on the contender's. Every
// musicd clocks from the Unix epoch, so a section granted at a process
// started 2 s after the others, and held for 4 s of a 5 s T, is not
// force-released by a contender polling at an older process, and the
// holder's critical put at 4 s succeeds. On per-process uptime clocks the
// older process sees the grant as about 2 s older than it is and
// force-releases it at about 3 s.
func TestYoungHolderNotForceReleased(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns real processes")
	}
	const key, hold = "held", 4 * time.Second
	d := deployYoung(t, "-t", "5s")
	holder, contender := d.Client(testSites[2]), d.Client(testSites[0])

	ref, err := holder.CreateLockRef(key)
	must(t, err)
	must(t, holder.AwaitHolder(key, ref, 10*time.Second))
	granted := time.Now()
	cref, err := contender.CreateLockRef(key)
	must(t, err)
	for time.Since(granted) < hold {
		if ok, err := contender.AcquireLock(key, cref); err != nil || ok {
			t.Fatalf("the contender at %s was granted (%t, %v) %v into a %v hold at %s, before its release", testSites[0], ok, err, time.Since(granted), hold, testSites[2])
		}
		time.Sleep(50 * time.Millisecond)
	}
	must(t, holder.CriticalPut(key, ref, []byte("held 4s")))
	must(t, holder.ReleaseLock(key, ref))
	must(t, contender.AwaitHolder(key, cref, 10*time.Second))
	if got := criticalGet(t, contender, key, cref); got != "held 4s" {
		t.Fatalf("the contender read %q after the holder's release, want \"held 4s\"", got)
	}
	must(t, contender.ReleaseLock(key, cref))
}
