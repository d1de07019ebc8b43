package httpapi_test

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"repro/internal/history"
	"repro/internal/httpapi"
	"repro/internal/loopback"
	"repro/internal/nettrans"
	"repro/internal/sim"
	"repro/music"
)

func isStatus(err error, code int) bool {
	var se *httpapi.StatusError
	return errors.As(err, &se) && se.Code == code
}

// TestClient drives every Table I operation and every diagnostic read
// through Client against site-a of a live three-site cluster.
func TestClient(t *testing.T) {
	rt := sim.NewReal(1)
	clusters, err := loopback.Deploy(rt, []string{"site-a", "site-b", "site-c"}, nettrans.Config{}, nil,
		music.TransportConfig{T: time.Minute, History: history.New(rt)})
	if err != nil {
		t.Fatal(err)
	}
	defer clusters.Close()
	srv := httptest.NewServer(httpapi.New(clusters[0].Client("site-a")))
	defer srv.Close()
	c := httpapi.NewClient(srv.URL + "/")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Health(); err != nil {
		t.Fatalf("Health: %v", err)
	}

	ref, err := c.CreateLockRef("k")
	must(err)
	must(c.AwaitHolder("k", ref, 10*time.Second))
	if _, ok, err := c.CriticalGet("k", ref); ok || err != nil {
		t.Fatalf("CriticalGet of a fresh key = (%t, %v), want absent", ok, err)
	}
	must(c.CriticalPut("k", ref, []byte("v1")))
	if v, ok, err := c.CriticalGet("k", ref); string(v) != "v1" || !ok || err != nil {
		t.Fatalf("CriticalGet = (%q, %t, %v), want v1", v, ok, err)
	}
	must(c.CriticalDelete("k", ref))
	if _, ok, err := c.CriticalGet("k", ref); ok || err != nil {
		t.Fatalf("CriticalGet after delete = (%t, %v), want absent", ok, err)
	}
	must(c.ReleaseLock("k", ref))
	if err := c.CriticalPut("k", ref, []byte("stale")); !isStatus(err, http.StatusPreconditionFailed) {
		t.Fatalf("put under a released lockRef = %v, want 412", err)
	}

	// A second lockRef is not the holder while the first holds; a forced
	// release of the first lets it in.
	first, err := c.CreateLockRef("f")
	must(err)
	must(c.AwaitHolder("f", first, 10*time.Second))
	second, err := c.CreateLockRef("f")
	must(err)
	if err := c.AwaitHolder("f", second, 50*time.Millisecond); err == nil {
		t.Fatal("a second lockRef was granted while the first held")
	}
	must(c.ForcedRelease("f", first))
	must(c.AwaitHolder("f", second, 10*time.Second))
	must(c.ReleaseLock("f", second))

	must(c.Put("plain", []byte("p")))
	if v, ok, err := c.Get("plain"); string(v) != "p" || !ok || err != nil {
		t.Fatalf("Get = (%q, %t, %v), want p", v, ok, err)
	}
	if _, ok, err := c.Get("never"); ok || err != nil {
		t.Fatalf("Get of a key never written = (%t, %v), want absent", ok, err)
	}
	keys, err := c.GetAllKeys()
	must(err)
	if !slices.Contains(keys, "plain") {
		t.Fatalf("GetAllKeys = %v, want plain among them", keys)
	}
	if _, err := c.AcquireLock("k", 0); !isStatus(err, http.StatusBadRequest) {
		t.Fatalf("acquire of lockRef 0 = %v, want 400", err)
	}

	ops, err := c.History()
	if err != nil || len(ops) == 0 {
		t.Fatalf("History = (%d ops, %v), want the ops above", len(ops), err)
	}
	if _, err := c.Consistency(); !isStatus(err, http.StatusNotFound) {
		t.Fatalf("Consistency without adaptive reads = %v, want 404", err)
	}
	m, err := c.Membership()
	if err != nil || m.Epoch != 0 {
		t.Fatalf("Membership of a fixed cluster = (epoch %d, %v), want epoch 0", m.Epoch, err)
	}
	if _, err := c.WaitMembership(50*time.Millisecond, func(m httpapi.MembershipBody) bool { return m.Epoch > 0 }); err == nil {
		t.Fatal("WaitMembership for an epoch a fixed cluster never reaches succeeded")
	}
	if err := httpapi.NewClient("http://127.0.0.1:1").Health(); err == nil {
		t.Fatal("Health of a port nothing serves succeeded")
	}
}
