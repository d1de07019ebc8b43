package main

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/history"
)

// membershipBody mirrors httpapi's GET /v1/membership response.
type membershipBody struct {
	Epoch int64    `json:"epoch"`
	Sites []string `json:"sites"`
}

func getMembership(t *testing.T, base string) membershipBody {
	t.Helper()
	resp, err := http.Get(base + "/v1/membership")
	if err != nil {
		t.Fatalf("GET /v1/membership: %v", err)
	}
	defer resp.Body.Close()
	var m membershipBody
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode membership: %v", err)
	}
	return m
}

// waitEpoch polls base until its membership view reaches epoch (or fails the
// test after timeout).
func waitEpoch(t *testing.T, base string, epoch int64, timeout time.Duration) membershipBody {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		m := getMembership(t, base)
		if m.Epoch >= epoch {
			return m
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never reached epoch %d (at %d, sites %v)", base, epoch, m.Epoch, m.Sites)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// postMembership drives one reconfiguration through base's admin endpoint,
// retrying transient 503s (config-log leader elections).
func postMembership(t *testing.T, base, body string) membershipBody {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Post(base+"/v1/admin/membership", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST membership: %v", err)
		}
		var m membershipBody
		derr := json.NewDecoder(resp.Body).Decode(&m)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			if derr != nil {
				t.Fatalf("decode membership: %v", derr)
			}
			return m
		}
		if resp.StatusCode != http.StatusServiceUnavailable || time.Now().After(deadline) {
			t.Fatalf("POST %s = %d", body, resp.StatusCode)
		}
		time.Sleep(500 * time.Millisecond)
	}
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
	d := deploy(t, sites, 2, func(d *procDeployment) error {
		for _, site := range sites {
			flags := []string{"-history"}
			if site == "dublin" {
				flags = append(flags, "-join")
			}
			d.start(site, flags...)
		}
		return d.waitHealthy(sites...)
	})
	siteURL := d.urls()

	ohio := &restClient{t: t, base: siteURL["ohio"]}
	dublin := &restClient{t: t, base: siteURL["dublin"]}
	frankfurt := &restClient{t: t, base: siteURL["frankfurt"]}

	// Traffic starts before any reconfiguration.
	ohio.criticalSection("ledger", func(ref int64) {
		ohio.criticalPut("ledger", ref, []byte("v1"))
	})

	// Epoch 2: dublin's -join proposes itself in; every member applies it
	// and the joiner's own poller catches up.
	m := waitEpoch(t, siteURL["ohio"], 2, 45*time.Second)
	if !hasSite(m.Sites, "dublin") {
		t.Fatalf("epoch %d sites %v missing dublin", m.Epoch, m.Sites)
	}
	waitEpoch(t, siteURL["dublin"], 2, 15*time.Second)

	// Epoch 3: planned decommission of oregon, driven through ohio's REST.
	m = postMembership(t, siteURL["ohio"], `{"op":"retire","site":"oregon"}`)
	if m.Epoch != 3 || hasSite(m.Sites, "oregon") {
		t.Fatalf("retire -> epoch %d sites %v", m.Epoch, m.Sites)
	}
	waitEpoch(t, siteURL["dublin"], 3, 15*time.Second)

	// The joined site serves sections and sees pre-join data: state
	// transfer and the new placement both hold.
	dublin.criticalSection("ledger", func(ref int64) {
		if got := dublin.criticalGet("ledger", ref); string(got) != "v1" {
			t.Fatalf("dublin read %q, want v1", got)
		}
		dublin.criticalPut("ledger", ref, []byte("v2"))
	})

	// Epoch 4: ncalifornia crashes (kill -9, no drain) and is replaced by
	// the remaining spare — the recovery path.
	d.procs["ncalifornia"].kill()
	m = postMembership(t, siteURL["ohio"], `{"op":"replace","site":"ncalifornia","with":"frankfurt"}`)
	if m.Epoch != 4 || hasSite(m.Sites, "ncalifornia") || !hasSite(m.Sites, "frankfurt") {
		t.Fatalf("replace -> epoch %d sites %v", m.Epoch, m.Sites)
	}
	waitEpoch(t, siteURL["frankfurt"], 4, 15*time.Second)

	// The replacement serves sections over the reconfigured ring.
	frankfurt.criticalSection("ledger", func(ref int64) {
		if got := frankfurt.criticalGet("ledger", ref); string(got) != "v2" {
			t.Fatalf("frankfurt read %q, want v2", got)
		}
		frankfurt.criticalPut("ledger", ref, []byte("v3"))
	})
	ohio.criticalSection("ledger", func(ref int64) {
		if got := ohio.criticalGet("ledger", ref); string(got) != "v3" {
			t.Fatalf("ohio read-back %q, want v3", got)
		}
	})

	// Merge the surviving processes' histories (ncalifornia died with its
	// ops) and run the full checker set — the epoch rules certify the
	// sections that ran across the three reconfigurations.
	var parts [][]history.Op
	total := 0
	for _, site := range []string{"ohio", "oregon", "dublin", "frankfurt"} {
		ops := fetchHistory(t, siteURL[site])
		total += len(ops)
		parts = append(parts, ops)
	}
	if total == 0 {
		t.Fatal("no process recorded any operations")
	}
	assertCleanHistory(t, mergeHistories(parts...))
}

func hasSite(sites []string, site string) bool {
	for _, s := range sites {
		if s == site {
			return true
		}
	}
	return false
}
