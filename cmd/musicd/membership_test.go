package main

import (
	"testing"
	"time"

	"repro/internal/httpapi"
	"repro/internal/loopback"
	"repro/internal/membership"
	"repro/music"
)

// waitEpoch waits until c's membership view reaches epoch, failing the test
// after timeout.
func waitEpoch(t *testing.T, c *httpapi.Client, epoch int64, timeout time.Duration) httpapi.MembershipBody {
	t.Helper()
	m, err := c.WaitMembership(timeout, func(m httpapi.MembershipBody) bool { return m.Epoch >= epoch })
	if err != nil {
		t.Fatalf("epoch %d never reached: %v", epoch, err)
	}
	return m
}

// TestThreeProcessLiveMembership runs the tentpole end to end over real TCP
// and real OS processes: a three-site cluster serves critical sections while
// a spare site joins itself (-join), a member retires, and a crashed member
// is replaced by a second spare — all through POST /v1/admin/membership. The
// surviving processes' merged history must pass every ECF checker, epoch
// rules included.
func TestThreeProcessLiveMembership(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns real processes")
	}
	// dublin and frankfurt start outside the membership, as spares.
	sites := []string{"ohio", "ncalifornia", "oregon", "dublin", "frankfurt"}
	d := deploy(t, sites, 2, func(d *loopback.Procs) error {
		for _, site := range sites {
			flags := []string{"-history"}
			if site == "dublin" {
				flags = append(flags, "-join")
			}
			if err := d.Start(site, flags...); err != nil {
				return err
			}
		}
		return d.WaitHealthy(15*time.Second, sites...)
	})
	ohio, dublin, frankfurt := d.Client("ohio"), d.Client("dublin"), d.Client("frankfurt")

	// Traffic starts before any reconfiguration.
	section(t, ohio, "ledger", func(ref music.LockRef) {
		must(t, ohio.CriticalPut("ledger", ref, []byte("v1")))
	})

	// Epoch 2: dublin's -join proposes itself in; every member applies it
	// and the joiner's own poller catches up.
	m := waitEpoch(t, ohio, 2, 45*time.Second)
	if !m.Has("dublin") {
		t.Fatalf("epoch %d sites %v missing dublin", m.Epoch, m.Sites)
	}
	waitEpoch(t, dublin, 2, 15*time.Second)

	// Epoch 3: planned decommission of oregon, driven through ohio's REST.
	m, err := ohio.Reconfigure(membership.OpRetire, "oregon", "", 30*time.Second)
	if err != nil || m.Epoch != 3 || m.Has("oregon") {
		t.Fatalf("retire -> epoch %d sites %v (%v)", m.Epoch, m.Sites, err)
	}
	waitEpoch(t, dublin, 3, 15*time.Second)

	// The joined site serves sections and sees pre-join data: state
	// transfer and the new placement both hold.
	section(t, dublin, "ledger", func(ref music.LockRef) {
		if got := criticalGet(t, dublin, "ledger", ref); got != "v1" {
			t.Fatalf("dublin read %q, want v1", got)
		}
		must(t, dublin.CriticalPut("ledger", ref, []byte("v2")))
	})

	// Epoch 4: ncalifornia crashes (kill -9, no drain) and is replaced by
	// the remaining spare — the recovery path.
	d.Kill("ncalifornia")
	m, err = ohio.Reconfigure(membership.OpReplace, "ncalifornia", "frankfurt", 30*time.Second)
	if err != nil || m.Epoch != 4 || m.Has("ncalifornia") || !m.Has("frankfurt") {
		t.Fatalf("replace -> epoch %d sites %v (%v)", m.Epoch, m.Sites, err)
	}
	waitEpoch(t, frankfurt, 4, 15*time.Second)

	// The replacement serves sections over the reconfigured ring.
	section(t, frankfurt, "ledger", func(ref music.LockRef) {
		if got := criticalGet(t, frankfurt, "ledger", ref); got != "v2" {
			t.Fatalf("frankfurt read %q, want v2", got)
		}
		must(t, frankfurt.CriticalPut("ledger", ref, []byte("v3")))
	})
	section(t, ohio, "ledger", func(ref music.LockRef) {
		if got := criticalGet(t, ohio, "ledger", ref); got != "v3" {
			t.Fatalf("ohio read-back %q, want v3", got)
		}
	})

	// Merge the surviving processes' histories (ncalifornia died with its
	// ops) and run the full checker set — the epoch rules certify the
	// sections that ran across the three reconfigurations.
	assertCleanMergedHistory(t, d, "ohio", "oregon", "dublin", "frankfurt")
}
