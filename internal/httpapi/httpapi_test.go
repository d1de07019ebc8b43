package httpapi

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/music"
)

// api is one test's REST front end over a virtual-time cluster. Requests
// go straight to the handler's ServeHTTP and are recorded by httptest: the
// handler has no goroutine or clock of its own, so a request served inside
// the cluster's Run runs in the simulation like any client call, and a test
// drives all of its requests from inside one run.
type api struct {
	t *testing.T
	c *music.Cluster
	h http.Handler
}

// harness serves site-a's client of a local-profile cluster built with
// opts.
func harness(t *testing.T, opts ...music.Option) *api {
	t.Helper()
	return serve(t, func(c *music.Cluster) http.Handler { return New(c.Client("site-a")) }, opts...)
}

// serve builds a local-profile cluster with opts and the handler handler
// makes for it.
func serve(t *testing.T, handler func(*music.Cluster) http.Handler, opts ...music.Option) *api {
	t.Helper()
	c, err := music.New(append([]music.Option{music.WithProfile(music.ProfileLocal)}, opts...)...)
	if err != nil {
		t.Fatalf("New cluster: %v", err)
	}
	return &api{t: t, c: c, h: handler(c)}
}

// run runs fn inside the cluster's simulation.
func (a *api) run(fn func()) {
	a.t.Helper()
	if err := a.c.Run(fn); err != nil {
		a.t.Fatalf("Run: %v", err)
	}
}

// do serves one request and returns the response and its body.
func (a *api) do(method, path string, body string) (*http.Response, string) {
	a.t.Helper()
	rec := httptest.NewRecorder()
	a.h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	resp := rec.Result()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		a.t.Fatalf("read body: %v", err)
	}
	return resp, string(b)
}

// lock drives the full REST lock flow and returns the lockRef.
func (a *api) lock(key string) int64 {
	a.t.Helper()
	resp, body := a.do("POST", "/v1/locks/"+key, "")
	if resp.StatusCode != http.StatusCreated {
		a.t.Fatalf("create lock: %d %s", resp.StatusCode, body)
	}
	var created struct {
		LockRef int64 `json:"lockRef"`
	}
	if err := json.Unmarshal([]byte(body), &created); err != nil {
		a.t.Fatalf("decode: %v", err)
	}
	for i := 0; i < 200; i++ {
		resp, body = a.do("GET", fmt.Sprintf("/v1/locks/%s/%d", key, created.LockRef), "")
		if resp.StatusCode != http.StatusOK {
			a.t.Fatalf("acquire: %d %s", resp.StatusCode, body)
		}
		var acq struct {
			Holder bool `json:"holder"`
		}
		if err := json.Unmarshal([]byte(body), &acq); err != nil {
			a.t.Fatalf("decode acquire: %v", err)
		}
		if acq.Holder {
			return created.LockRef
		}
	}
	a.t.Fatal("never acquired")
	return 0
}

func TestFullCriticalSectionOverREST(t *testing.T) {
	a := harness(t)
	a.run(func() {
		ref := a.lock("k")

		resp, body := a.do("PUT", fmt.Sprintf("/v1/keys/k?lockRef=%d", ref), "hello")
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("criticalPut: %d %s", resp.StatusCode, body)
		}
		resp, body = a.do("GET", fmt.Sprintf("/v1/keys/k?lockRef=%d", ref), "")
		if resp.StatusCode != http.StatusOK || body != "hello" {
			t.Fatalf("criticalGet = %d %q", resp.StatusCode, body)
		}
		resp, body = a.do("DELETE", fmt.Sprintf("/v1/locks/k/%d", ref), "")
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("release: %d %s", resp.StatusCode, body)
		}
	})
}

func TestEventualPutGetAndKeys(t *testing.T) {
	a := harness(t)
	a.run(func() {
		resp, body := a.do("PUT", "/v1/keys/plain", "v1")
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("put: %d %s", resp.StatusCode, body)
		}
		resp, body = a.do("GET", "/v1/keys/plain", "")
		if resp.StatusCode != http.StatusOK || body != "v1" {
			t.Fatalf("get = %d %q", resp.StatusCode, body)
		}
		resp, body = a.do("GET", "/v1/keys", "")
		if resp.StatusCode != http.StatusOK || !strings.Contains(body, "plain") {
			t.Fatalf("keys = %d %s", resp.StatusCode, body)
		}
	})
}

func TestGetMissingKeyIs404(t *testing.T) {
	a := harness(t)
	a.run(func() {
		resp, _ := a.do("GET", "/v1/keys/nothing", "")
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status = %d, want 404", resp.StatusCode)
		}
	})
}

func TestNonHolderPutIs412(t *testing.T) {
	a := harness(t)
	a.run(func() {
		_ = a.lock("k")
		// A second lockRef exists but is not the holder.
		resp, body := a.do("POST", "/v1/locks/k", "")
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create 2nd ref: %d", resp.StatusCode)
		}
		var created struct {
			LockRef int64 `json:"lockRef"`
		}
		if err := json.Unmarshal([]byte(body), &created); err != nil {
			t.Fatal(err)
		}
		resp, _ = a.do("PUT", fmt.Sprintf("/v1/keys/k?lockRef=%d", created.LockRef), "x")
		if resp.StatusCode != http.StatusPreconditionFailed {
			t.Fatalf("non-holder put = %d, want 412", resp.StatusCode)
		}
	})
}

func TestPreemptedHolderIs409(t *testing.T) {
	a := harness(t)
	a.run(func() {
		ref := a.lock("k")
		// Another MUSIC replica force-releases the lock.
		resp, body := a.do("DELETE", fmt.Sprintf("/v1/locks/k/%d?forced=1", ref), "")
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("forced release: %d %s", resp.StatusCode, body)
		}
		ref2 := a.lock("k")
		if ref2 == ref {
			t.Fatal("same ref reissued")
		}
		resp, _ = a.do("PUT", fmt.Sprintf("/v1/keys/k?lockRef=%d", ref), "stale")
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("preempted put = %d, want 409", resp.StatusCode)
		}
	})
}

func TestCriticalDelete(t *testing.T) {
	a := harness(t)
	a.run(func() {
		ref := a.lock("k")
		a.do("PUT", fmt.Sprintf("/v1/keys/k?lockRef=%d", ref), "v")
		resp, body := a.do("DELETE", fmt.Sprintf("/v1/keys/k?lockRef=%d", ref), "")
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("delete: %d %s", resp.StatusCode, body)
		}
		resp, _ = a.do("GET", fmt.Sprintf("/v1/keys/k?lockRef=%d", ref), "")
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("get after delete = %d, want 404", resp.StatusCode)
		}
	})
}

func TestBadInputs(t *testing.T) {
	a := harness(t)
	a.run(func() {
		resp, _ := a.do("GET", "/v1/locks/k/notanumber", "")
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad ref = %d, want 400", resp.StatusCode)
		}
		resp, _ = a.do("DELETE", "/v1/keys/k", "")
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("delete without ref = %d, want 400", resp.StatusCode)
		}
		resp, _ = a.do("GET", "/v1/keys/k?lockRef=0", "")
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("zero ref = %d, want 400", resp.StatusCode)
		}
	})
}

func TestHealth(t *testing.T) {
	a := harness(t)
	a.run(func() {
		resp, body := a.do("GET", "/v1/health", "")
		if resp.StatusCode != http.StatusOK || !strings.Contains(body, "site-a") {
			t.Fatalf("health = %d %s", resp.StatusCode, body)
		}
	})
}

func TestObservabilityDisabledIs404(t *testing.T) {
	a := harness(t)
	a.run(func() {
		for _, path := range []string{"/metrics", "/traces"} {
			resp, body := a.do("GET", path, "")
			if resp.StatusCode != http.StatusNotFound || !strings.Contains(body, "observability disabled") {
				t.Fatalf("GET %s = %d %s, want 404 observability disabled", path, resp.StatusCode, body)
			}
		}
	})
}

func TestMetricsExposition(t *testing.T) {
	a := harness(t, music.WithObservability())
	a.run(func() {
		ref := a.lock("k")
		if resp, body := a.do("PUT", fmt.Sprintf("/v1/keys/k?lockRef=%d", ref), "v"); resp.StatusCode != http.StatusNoContent {
			t.Fatalf("criticalPut: %d %s", resp.StatusCode, body)
		}
		resp, body := a.do("GET", "/metrics", "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("metrics = %d %s", resp.StatusCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("content type = %q, want text/plain", ct)
		}
		for _, want := range []string{
			"simnet_rpc_latency_count{",
			`music_op_latency_count{op="criticalPut",site="site-a"}`,
			"store_put_latency_count{",
		} {
			if !strings.Contains(body, want) {
				t.Errorf("metrics exposition missing %q:\n%s", want, body)
			}
		}
	})
}

func TestTracesEndpoint(t *testing.T) {
	a := harness(t, music.WithObservability())
	a.run(func() {
		// Root a trace around a full critical section driven through the
		// cluster client (same task, so spans nest under the root).
		tr := a.c.Obs().Tracer()
		root := tr.StartRoot("test.cs")
		cl := a.c.Client("site-a")
		if err := cl.RunCritical("tk", func(cs *music.CriticalSection) error {
			return cs.Put([]byte("v"))
		}); err != nil {
			t.Fatalf("RunCritical: %v", err)
		}
		root.End()

		resp, body := a.do("GET", "/traces", "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("traces = %d %s", resp.StatusCode, body)
		}
		var listing struct {
			Traces []struct {
				Trace uint64          `json:"trace"`
				Spans json.RawMessage `json:"spans"`
			} `json:"traces"`
		}
		if err := json.Unmarshal([]byte(body), &listing); err != nil {
			t.Fatalf("decode traces: %v\n%s", err, body)
		}
		if len(listing.Traces) == 0 {
			t.Fatalf("no traces listed: %s", body)
		}

		// Fetch the rooted trace by id; its tree must contain the MUSIC ops.
		resp, body = a.do("GET", fmt.Sprintf("/traces?id=%d", uint64(root.Trace)), "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("traces?id = %d %s", resp.StatusCode, body)
		}
		for _, want := range []string{"test.cs", "music.createLockRef", "music.criticalPut", "music.releaseLock"} {
			if !strings.Contains(body, want) {
				t.Errorf("trace %d missing span %q:\n%s", root.Trace, want, body)
			}
		}

		if resp, _ := a.do("GET", "/traces?id=zzz", ""); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad id = %d, want 400", resp.StatusCode)
		}
		if resp, _ := a.do("GET", "/traces?limit=-1", ""); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad limit = %d, want 400", resp.StatusCode)
		}
	})
}

func TestConsistencyDisabledIs404(t *testing.T) {
	a := harness(t)
	a.run(func() {
		resp, body := a.do("GET", "/v1/consistency", "")
		if resp.StatusCode != http.StatusNotFound || !strings.Contains(body, "adaptive reads disabled") {
			t.Fatalf("consistency = %d %s, want 404 adaptive reads disabled", resp.StatusCode, body)
		}
	})
}

func TestConsistencyEndpoint(t *testing.T) {
	a := harness(t, music.WithAdaptiveReads())
	a.run(func() {
		// No weak reads yet: the monitor has observed no site.
		resp, body := a.do("GET", "/v1/consistency", "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("consistency = %d %s", resp.StatusCode, body)
		}

		// One critical get inside a held section is one weak read at site-a.
		ref := a.lock("k")
		if resp, body := a.do("PUT", fmt.Sprintf("/v1/keys/k?lockRef=%d", ref), "v"); resp.StatusCode != http.StatusNoContent {
			t.Fatalf("criticalPut: %d %s", resp.StatusCode, body)
		}
		if resp, body := a.do("GET", fmt.Sprintf("/v1/keys/k?lockRef=%d", ref), ""); resp.StatusCode != http.StatusOK || body != "v" {
			t.Fatalf("criticalGet = %d %q, want 200 v", resp.StatusCode, body)
		}

		resp, body = a.do("GET", "/v1/consistency", "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("consistency = %d %s", resp.StatusCode, body)
		}
		var got struct {
			Sites []struct {
				Site      string `json:"site"`
				Level     string `json:"level"`
				WeakReads int    `json:"weak_reads"`
			} `json:"sites"`
		}
		if err := json.Unmarshal([]byte(body), &got); err != nil {
			t.Fatalf("decode %q: %v", body, err)
		}
		if len(got.Sites) != 1 || got.Sites[0].Site != "site-a" || got.Sites[0].Level != "one" || got.Sites[0].WeakReads < 1 {
			t.Fatalf("consistency body = %s, want site-a at level one with >=1 weak read", body)
		}
	})
}
