package main

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/httpapi"
	"repro/internal/loopback"
	"repro/internal/nettrans"
	"repro/internal/sim"
	"repro/music"
)

// harness serves a live cluster — three nettrans nodes on 127.0.0.1 — through
// the REST API for the CLI to hit.
func harness(t *testing.T) string {
	t.Helper()
	clusters, err := loopback.Deploy(sim.NewReal(1), []string{"site-a", "site-b", "site-c"},
		nettrans.Config{}, nil, music.TransportConfig{T: time.Minute})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	t.Cleanup(clusters.Close)
	srv := httptest.NewServer(httpapi.New(clusters[0].Client("site-a")))
	t.Cleanup(srv.Close)
	return srv.URL
}

func runCLI(t *testing.T, url string, args ...string) (string, error) {
	t.Helper()
	var out strings.Builder
	err := run(append([]string{"-addr", url}, args...), &out)
	return out.String(), err
}

func TestCLIIncrementFlow(t *testing.T) {
	url := harness(t)
	for want := 1; want <= 3; want++ {
		out, err := runCLI(t, url, "incr", "counter")
		if err != nil {
			t.Fatalf("incr %d: %v", want, err)
		}
		if strings.TrimSpace(out) != string(rune('0'+want)) {
			t.Fatalf("incr output = %q, want %d", out, want)
		}
	}
}

// TestCLIIncrementRefusesNonNumber pins that incr fails, writing nothing,
// on a value it cannot count from, and still releases its lock.
func TestCLIIncrementRefusesNonNumber(t *testing.T) {
	url := harness(t)
	if _, err := runCLI(t, url, "put", "k", "-value", "abc"); err != nil {
		t.Fatalf("put: %v", err)
	}
	if out, err := runCLI(t, url, "incr", "k"); err == nil {
		t.Fatalf("incr of a non-numeric value succeeded, printing %q", out)
	}
	out, err := runCLI(t, url, "get", "k")
	if err != nil || strings.TrimSpace(out) != "abc" {
		t.Fatalf("value after the failed incr = (%q, %v), want abc", out, err)
	}
	// The failed incr released its lock: a fresh section is granted.
	out, err = runCLI(t, url, "lock", "k")
	if err != nil {
		t.Fatalf("lock after the failed incr: %v", err)
	}
	if _, err := runCLI(t, url, "release", "k", "-ref", strings.TrimSpace(out)); err != nil {
		t.Fatalf("release: %v", err)
	}
}

func TestCLIExplicitLockOps(t *testing.T) {
	url := harness(t)
	out, err := runCLI(t, url, "lock", "k")
	if err != nil {
		t.Fatalf("lock: %v", err)
	}
	ref := strings.TrimSpace(out)
	if ref == "" || ref == "0" {
		t.Fatalf("lock ref = %q", ref)
	}
	if _, err := runCLI(t, url, "put", "k", "-ref", ref, "-value", "hello"); err != nil {
		t.Fatalf("put: %v", err)
	}
	out, err = runCLI(t, url, "get", "k", "-ref", ref)
	if err != nil || strings.TrimSpace(out) != "hello" {
		t.Fatalf("get = (%q, %v)", out, err)
	}
	if _, err := runCLI(t, url, "release", "k", "-ref", ref); err != nil {
		t.Fatalf("release: %v", err)
	}
	// Stale ref now conflicts.
	if _, err := runCLI(t, url, "lock", "k"); err != nil {
		t.Fatalf("relock: %v", err)
	}
	if _, err := runCLI(t, url, "put", "k", "-ref", ref, "-value", "stale"); err == nil {
		t.Fatal("stale put succeeded")
	}
}

func TestCLIKeysAndEventualOps(t *testing.T) {
	url := harness(t)
	if _, err := runCLI(t, url, "put", "plain", "-value", "v"); err != nil {
		t.Fatalf("eventual put: %v", err)
	}
	out, err := runCLI(t, url, "get", "plain")
	if err != nil || strings.TrimSpace(out) != "v" {
		t.Fatalf("eventual get = (%q, %v)", out, err)
	}
	out, err = runCLI(t, url, "keys")
	if err != nil || !strings.Contains(out, "plain") {
		t.Fatalf("keys = (%q, %v)", out, err)
	}
}

func TestCLIUsageErrors(t *testing.T) {
	url := harness(t)
	if _, err := runCLI(t, url); err == nil {
		t.Fatal("no command accepted")
	}
	if _, err := runCLI(t, url, "bogus", "k"); err == nil {
		t.Fatal("bogus command accepted")
	}
	if _, err := runCLI(t, url, "put"); err == nil {
		t.Fatal("put without key accepted")
	}
}
