package httpapi

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/history"
	"repro/internal/membership"
)

// TestBodyBytes pins every body's bytes as the server writes them: each
// was a map before it was a named type, and a map encodes its keys sorted,
// so the fields are declared in sorted order and no client sees a change.
func TestBodyBytes(t *testing.T) {
	op := history.Op{ID: 1, Site: "site-a", Kind: history.KindPut, Key: "k", Value: []byte("v"), Present: true}
	for _, tc := range []struct {
		body any
		want string
	}{
		{lockRefBody{LockRef: 7}, `{"lockRef":7}`},
		{holderBody{Holder: true}, `{"holder":true}`},
		{keysBody{Keys: []string{"a", "b"}}, `{"keys":["a","b"]}`},
		{healthBody{Site: "site-a", Status: "ok"}, `{"site":"site-a","status":"ok"}`},
		{historyBody{Ops: []history.Op{}, Site: "site-a"}, `{"ops":[],"site":"site-a"}`},
		{historyBody{Ops: []history.Op{op}, Site: "site-a"},
			`{"ops":[{"ID":1,"Site":"site-a","Kind":4,"Key":"k","Ref":0,"Inv":0,"Resp":0,"Value":"dg==","Present":true,"TS":0,"Synchronized":false,"Epoch":0,"Note":"","Err":""}],"site":"site-a"}`},
		{consistencyBody{Sites: []history.SiteStatus{{Site: "site-a", Level: "one", WeakReads: 2}}},
			`{"sites":[{"site":"site-a","level":"one","weak_reads":2,"violations":0,"post_flip_violations":0}]}`},
		{tracesBody{Traces: []traceBody{}}, `{"traces":[]}`},
		{errBody(noValue), `{"error":"no value"}`},
		{MembershipBody{Epoch: 2, Sites: []string{"site-a"}, Members: []MemberBody{{ID: 0, Site: "site-a"}}},
			`{"epoch":2,"sites":["site-a"],"members":[{"id":0,"site":"site-a"}]}`},
	} {
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, tc.body)
		if got := rec.Body.String(); got != tc.want+"\n" {
			t.Errorf("%T body = %s, want %s", tc.body, got, tc.want)
		}
	}
}

// TestReconfigureIsIdempotent: a replace whose propose commits but answers
// 503, at a site that applies the new epoch only after the retry, meets 409
// when posted again (the replaced site is gone). Reconfigure reads the view
// after each and returns the new epoch instead of the refusal.
func TestReconfigureIsIdempotent(t *testing.T) {
	var (
		mu    sync.Mutex
		posts int
		view  = MembershipBody{Epoch: 3, Sites: []string{"dublin", "ncalifornia", "ohio"}}
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		switch r.Method + " " + r.URL.Path {
		case "GET /v1/membership":
			writeJSON(w, http.StatusOK, view)
		case "POST /v1/admin/membership":
			posts++
			if posts == 1 {
				writeJSON(w, http.StatusServiceUnavailable, errBody("propose timed out"))
				return
			}
			view = MembershipBody{Epoch: 4, Sites: []string{"dublin", "frankfurt", "ohio"}}
			writeJSON(w, http.StatusConflict, errBody("unknown site ncalifornia"))
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()

	m, err := NewClient(srv.URL).Reconfigure(membership.OpReplace, "ncalifornia", "frankfurt", 10*time.Second)
	if err != nil {
		t.Fatalf("Reconfigure: %v", err)
	}
	if m.Epoch != 4 || m.Has("ncalifornia") || !m.Has("frankfurt") {
		t.Fatalf("Reconfigure = epoch %d sites %v, want epoch 4 with frankfurt for ncalifornia", m.Epoch, m.Sites)
	}
	mu.Lock()
	defer mu.Unlock()
	if posts != 2 {
		t.Fatalf("%d POSTs, want 2: the 503 and the 409", posts)
	}
}

// TestReconfigureFails: a bad request fails at once; a 409 the view never
// explains fails with that status at the deadline.
func TestReconfigureFails(t *testing.T) {
	var code atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == "GET" {
			writeJSON(w, http.StatusOK, MembershipBody{Epoch: 1, Sites: []string{"site-a", "site-b", "site-c"}})
			return
		}
		writeJSON(w, int(code.Load()), errBody("refused"))
	}))
	defer srv.Close()
	for _, tc := range []struct {
		code    int
		retries bool
	}{{http.StatusBadRequest, false}, {http.StatusConflict, true}} {
		code.Store(int32(tc.code))
		const timeout = time.Second
		start := time.Now()
		_, err := NewClient(srv.URL).Reconfigure(membership.OpRetire, "site-b", "", timeout)
		var se *StatusError
		if !errors.As(err, &se) || se.Code != tc.code || se.Method != "POST" || se.Path != "/v1/admin/membership" || se.Body != `{"error":"refused"}` {
			t.Fatalf("%d reply: Reconfigure = %#v, want that status", tc.code, err)
		}
		if took := time.Since(start); (took >= timeout) != tc.retries {
			t.Fatalf("%d reply: Reconfigure failed after %v; retried until the %v deadline: %t, want %t", tc.code, took, timeout, took >= timeout, tc.retries)
		}
	}
}
