// Package httpapi exposes MUSIC's Table I operations as the REST web
// service of the paper's production deployment (Fig 1): clients talk HTTP
// to a nearby MUSIC replica, which drives the back-end stores.
//
//	POST   /v1/locks/{key}                 → {"lockRef": n}        createLockRef
//	GET    /v1/locks/{key}/{ref}           → {"holder": bool}      acquireLock (one poll)
//	DELETE /v1/locks/{key}/{ref}           → 204                   releaseLock
//	DELETE /v1/locks/{key}/{ref}?forced=1  → 204                   forcedRelease
//	PUT    /v1/keys/{key}?lockRef={ref}    body = value            criticalPut
//	GET    /v1/keys/{key}?lockRef={ref}    → value bytes           criticalGet
//	DELETE /v1/keys/{key}?lockRef={ref}    → 204                   criticalDelete
//	PUT    /v1/keys/{key}                  body = value            put (eventual)
//	GET    /v1/keys/{key}                  → value bytes           get (eventual)
//	GET    /v1/keys                        → {"keys": [...]}       getAllKeys
//
// When the cluster was built music.WithObservability, two more endpoints
// expose the internal/obs subsystem (404 otherwise):
//
//	GET    /metrics                        text exposition of every counter,
//	                                       gauge and histogram
//	GET    /traces?limit=N                 → {"traces": [...]}     recent span trees
//	GET    /traces?id=T                    → {"traces": [...]}     one trace by id
//
// When the cluster records operation histories (music.WithHistory, or the
// TransportConfig.History recorder musicd -history wires up), one more
// endpoint exports them for offline ECF checking (404 otherwise):
//
//	GET    /v1/history                     → {"site": s, "ops": [...]}
//
// When the cluster serves adaptive reads (music.WithAdaptiveReads, or
// musicd -adaptive), the live consistency monitor's per-site standing is
// exported (404 otherwise):
//
//	GET    /v1/consistency                 → {"sites": [{"site": s,
//	                                          "level": "one"|"quorum",
//	                                          "weak_reads": n,
//	                                          "violations": n,
//	                                          "post_flip_violations": n}]}
//
// Live membership (epoch 0 = fixed build-time membership; reconfiguration
// requires a dynamic cluster — music.WithSpareSites / musicd -join):
//
//	GET    /v1/membership                  → {"epoch": n, "sites": [...], "members": [...]}
//	POST   /v1/admin/membership            {"op": "join"|"retire"|"replace",
//	                                        "site": s, "with": spare}
//	                                       → the new epoch's membership
//
// Requests for different keys route to per-shard clients by store.ShardOf
// (NewSharded), so a sharded site's HTTP front end drives every shard
// concurrently instead of funneling through one client.
//
// ECF errors map to HTTP statuses: 409 Conflict for
// "youAreNoLongerLockHolder" / expired sections (dead lockRef, give up),
// 412 Precondition Failed for "not (yet) the lock holder" (retry), and
// 503 Service Unavailable when a back-end quorum is unreachable (retry,
// possibly at another site).
//
// Client is the other end: the one Go client of these routes, which
// music-cli, the musicd process tests and the soak driver share, so the
// paths, the bodies and what each status means live in this package only.
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/history"
	"repro/internal/membership"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/music"
)

// Server handles the REST API for one site's MUSIC clients — one per plane
// shard, so concurrent HTTP requests for different shards never serialize
// on one client's binding state.
type Server struct {
	cls []*music.Client
	mux *http.ServeMux
}

// New builds a server around a single client (the unsharded deployment).
func New(cl *music.Client) *Server { return NewSharded([]*music.Client{cl}) }

// NewSharded builds a server that routes each keyed request to the client
// owning the key's plane shard (store.ShardOf over len(cls) — pass one
// client per shard, in shard order, all bound to the same site). Keyless
// endpoints (health, key listing, membership, diagnostics) use cls[0].
func NewSharded(cls []*music.Client) *Server {
	if len(cls) == 0 {
		panic("httpapi: NewSharded with no clients")
	}
	s := &Server{cls: cls, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/locks/{key}", s.createLockRef)
	s.mux.HandleFunc("GET /v1/locks/{key}/{ref}", s.acquireLock)
	s.mux.HandleFunc("DELETE /v1/locks/{key}/{ref}", s.releaseLock)
	s.mux.HandleFunc("PUT /v1/keys/{key}", s.putKey)
	s.mux.HandleFunc("GET /v1/keys/{key}", s.getKey)
	s.mux.HandleFunc("DELETE /v1/keys/{key}", s.deleteKey)
	s.mux.HandleFunc("GET /v1/keys", s.allKeys)
	s.mux.HandleFunc("GET /v1/health", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, healthBody{Site: s.cls[0].Site(), Status: "ok"})
	})
	s.mux.HandleFunc("GET /metrics", s.metrics)
	s.mux.HandleFunc("GET /traces", s.traces)
	s.mux.HandleFunc("GET /v1/history", s.history)
	s.mux.HandleFunc("GET /v1/consistency", s.consistency)
	s.mux.HandleFunc("GET /v1/membership", s.getMembership)
	s.mux.HandleFunc("POST /v1/admin/membership", s.postMembership)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// The JSON bodies the server writes and Client reads. Field order is the
// encoding's key order, kept sorted as the maps these replaced wrote it.
type (
	lockRefBody struct {
		LockRef music.LockRef `json:"lockRef"`
	}
	holderBody struct {
		Holder bool `json:"holder"`
	}
	keysBody struct {
		Keys []string `json:"keys"`
	}
	healthBody struct {
		Site   string `json:"site"`
		Status string `json:"status"`
	}
	historyBody struct {
		Ops  []history.Op `json:"ops"`
		Site string       `json:"site"`
	}
	consistencyBody struct {
		Sites []history.SiteStatus `json:"sites"`
	}
	tracesBody struct {
		Traces []traceBody `json:"traces"`
	}
	// traceBody is one trace of the /traces response.
	traceBody struct {
		Trace uint64         `json:"trace"`
		Spans []obs.SpanJSON `json:"spans"`
	}
	// membershipChange is the POST /v1/admin/membership request.
	membershipChange struct {
		Op   string `json:"op"`
		Site string `json:"site"`
		With string `json:"with,omitempty"`
	}
	errorBody struct {
		Error string `json:"error"`
	}
)

// noValue is the error of a get's 404: the key holds no value.
const noValue = "no value"

// MembershipBody is the JSON rendering of an epoch-versioned membership.
type MembershipBody struct {
	Epoch   int64        `json:"epoch"`
	Sites   []string     `json:"sites"`
	Members []MemberBody `json:"members"`
}

// MemberBody is one node of a MembershipBody.
type MemberBody struct {
	ID   int64  `json:"id"`
	Site string `json:"site"`
	Addr string `json:"addr,omitempty"`
}

// clientFor routes key to the client owning its plane shard — the same
// store.ShardOf walk core uses, so the HTTP layer lands each request on the
// client already bound to the shard's coordinator.
func (s *Server) clientFor(key string) *music.Client {
	if len(s.cls) == 1 {
		return s.cls[0]
	}
	return s.cls[store.ShardOf(key, len(s.cls))]
}

func (s *Server) createLockRef(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	ref, err := s.clientFor(key).CreateLockRef(key)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, lockRefBody{LockRef: ref})
}

func (s *Server) acquireLock(w http.ResponseWriter, r *http.Request) {
	ref, ok := parseRef(w, r.PathValue("ref"))
	if !ok {
		return
	}
	key := r.PathValue("key")
	holder, err := s.clientFor(key).AcquireLock(key, ref)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, holderBody{Holder: holder})
}

func (s *Server) releaseLock(w http.ResponseWriter, r *http.Request) {
	ref, ok := parseRef(w, r.PathValue("ref"))
	if !ok {
		return
	}
	key := r.PathValue("key")
	cl := s.clientFor(key)
	var err error
	if r.URL.Query().Get("forced") != "" {
		err = cl.ForcedRelease(key, ref)
	} else {
		err = cl.ReleaseLock(key, ref)
	}
	if err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) putKey(w http.ResponseWriter, r *http.Request) {
	value, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errBody("bad body: "+err.Error()))
		return
	}
	key := r.PathValue("key")
	if refStr := r.URL.Query().Get("lockRef"); refStr != "" {
		ref, ok := parseRef(w, refStr)
		if !ok {
			return
		}
		err = s.clientFor(key).CriticalPut(key, ref, value)
	} else {
		err = s.clientFor(key).Put(key, value)
	}
	if err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) getKey(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	var (
		value []byte
		err   error
	)
	if refStr := r.URL.Query().Get("lockRef"); refStr != "" {
		ref, ok := parseRef(w, refStr)
		if !ok {
			return
		}
		value, err = s.clientFor(key).CriticalGet(key, ref)
	} else {
		value, err = s.clientFor(key).Get(key)
	}
	if err != nil {
		writeErr(w, err)
		return
	}
	if value == nil {
		writeJSON(w, http.StatusNotFound, errBody(noValue))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(value)
}

func (s *Server) deleteKey(w http.ResponseWriter, r *http.Request) {
	refStr := r.URL.Query().Get("lockRef")
	if refStr == "" {
		writeJSON(w, http.StatusBadRequest, errBody("deletes require a lockRef"))
		return
	}
	ref, ok := parseRef(w, refStr)
	if !ok {
		return
	}
	key := r.PathValue("key")
	if err := s.clientFor(key).CriticalDelete(key, ref); err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) allKeys(w http.ResponseWriter, r *http.Request) {
	keys, err := s.cls[0].GetAllKeys()
	if err != nil {
		writeErr(w, err)
		return
	}
	if keys == nil {
		keys = []string{}
	}
	writeJSON(w, http.StatusOK, keysBody{Keys: keys})
}

// metrics serves the cluster's metric registry in text exposition format.
func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	o := s.cls[0].Cluster().Obs()
	if o == nil {
		writeJSON(w, http.StatusNotFound, errBody("observability disabled (build the cluster WithObservability)"))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	o.Metrics().WriteText(w)
}

// traces serves recent span trees from the tracer's ring buffer, most
// recent last; ?id= selects one trace, ?limit= caps the listing (default 16).
func (s *Server) traces(w http.ResponseWriter, r *http.Request) {
	o := s.cls[0].Cluster().Obs()
	if o == nil {
		writeJSON(w, http.StatusNotFound, errBody("observability disabled (build the cluster WithObservability)"))
		return
	}
	tr := o.Tracer()
	var ids []obs.TraceID
	if idStr := r.URL.Query().Get("id"); idStr != "" {
		id, err := strconv.ParseUint(idStr, 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errBody(fmt.Sprintf("bad trace id %q", idStr)))
			return
		}
		ids = []obs.TraceID{obs.TraceID(id)}
	} else {
		limit := 16
		if ls := r.URL.Query().Get("limit"); ls != "" {
			n, err := strconv.Atoi(ls)
			if err != nil || n <= 0 {
				writeJSON(w, http.StatusBadRequest, errBody(fmt.Sprintf("bad limit %q", ls)))
				return
			}
			limit = n
		}
		ids = tr.TraceIDs(limit)
	}
	out := make([]traceBody, 0, len(ids))
	for _, id := range ids {
		out = append(out, traceBody{Trace: uint64(id), Spans: tr.TraceJSON(id)})
	}
	writeJSON(w, http.StatusOK, tracesBody{Traces: out})
}

// history exports this process's recorded operation history. A checker
// harness fetches every site's ops, merges them by response time, and runs
// internal/history.Check over the combined timeline.
func (s *Server) history(w http.ResponseWriter, r *http.Request) {
	rec := s.cls[0].Cluster().History()
	if rec == nil {
		writeJSON(w, http.StatusNotFound, errBody("history recording disabled (music.WithHistory, or musicd -history)"))
		return
	}
	ops := rec.Ops()
	if ops == nil {
		ops = []history.Op{} // a site with no ops yet serves [], not null
	}
	writeJSON(w, http.StatusOK, historyBody{Ops: ops, Site: s.cls[0].Site()})
}

// consistency serves the live adaptive-consistency monitor: every observed
// site's read level ("one" while the monitor judges it safe, "quorum" once
// staleness violations tripped it), with its weak-read and violation
// counters. Operators watch this to see a site flip in production.
func (s *Server) consistency(w http.ResponseWriter, r *http.Request) {
	mon := s.cls[0].Cluster().Monitor()
	if mon == nil {
		writeJSON(w, http.StatusNotFound, errBody("adaptive reads disabled (music.WithAdaptiveReads, or musicd -adaptive)"))
		return
	}
	sites := mon.Snapshot()
	if sites == nil {
		sites = []history.SiteStatus{}
	}
	writeJSON(w, http.StatusOK, consistencyBody{Sites: sites})
}

func renderMembership(m membership.Membership) MembershipBody {
	body := MembershipBody{Epoch: m.Epoch, Sites: m.Sites(), Members: []MemberBody{}}
	if body.Sites == nil {
		body.Sites = []string{}
	}
	for _, mem := range m.Members {
		body.Members = append(body.Members, MemberBody{ID: int64(mem.ID), Site: mem.Site, Addr: mem.Addr})
	}
	return body
}

// getMembership serves the current epoch-versioned membership. Epoch 0
// means the cluster runs fixed (build-time) membership.
func (s *Server) getMembership(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, renderMembership(s.cls[0].Cluster().Membership()))
}

// postMembership drives one reconfiguration: {"op": "join"|"retire"|
// "replace", "site": s, "with": spare}. The change replicates through the
// config log; the response is the membership the new epoch installed.
func (s *Server) postMembership(w http.ResponseWriter, r *http.Request) {
	var body membershipChange
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&body); err != nil {
		writeJSON(w, http.StatusBadRequest, errBody("bad body: "+err.Error()))
		return
	}
	op, err := membership.ParseOp(body.Op)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errBody(err.Error()))
		return
	}
	if body.Site == "" {
		writeJSON(w, http.StatusBadRequest, errBody("missing site"))
		return
	}
	c := s.cls[0].Cluster()
	var m membership.Membership
	switch op {
	case membership.OpJoin:
		m, err = c.JoinSite(body.Site)
	case membership.OpRetire:
		m, err = c.RetireSite(body.Site)
	case membership.OpReplace:
		if body.With == "" {
			writeJSON(w, http.StatusBadRequest, errBody(`replace needs "with": the spare site taking over`))
			return
		}
		m, err = c.ReplaceSite(body.Site, body.With)
	}
	if err != nil {
		switch {
		case errors.Is(err, membership.ErrNotReplicated),
			errors.Is(err, membership.ErrUnknownSite),
			errors.Is(err, membership.ErrSiteExists),
			errors.Is(err, membership.ErrBadChange),
			errors.Is(err, membership.ErrTooFewSites):
			writeJSON(w, http.StatusConflict, errBody(err.Error()))
		default:
			// A failed propose (config-log quorum unreachable) is retryable.
			writeJSON(w, http.StatusServiceUnavailable, errBody(err.Error()))
		}
		return
	}
	writeJSON(w, http.StatusOK, renderMembership(m))
}

func parseRef(w http.ResponseWriter, s string) (music.LockRef, bool) {
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n <= 0 {
		writeJSON(w, http.StatusBadRequest, errBody(fmt.Sprintf("bad lockRef %q", s)))
		return 0, false
	}
	return music.LockRef(n), true
}

func writeErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, music.ErrNoLongerLockHolder), errors.Is(err, music.ErrExpired),
		errors.Is(err, music.ErrEpochFenced):
		// Epoch-fenced sections are dead at lockRef granularity but retryable
		// as a whole: open a new section (possibly at another site) and it
		// runs under the new placement.
		writeJSON(w, http.StatusConflict, errBody(err.Error()))
	case errors.Is(err, music.ErrNotLockHolder):
		writeJSON(w, http.StatusPreconditionFailed, errBody(err.Error()))
	case errors.Is(err, music.ErrUnavailable):
		writeJSON(w, http.StatusServiceUnavailable, errBody(err.Error()))
	default:
		writeJSON(w, http.StatusInternalServerError, errBody(err.Error()))
	}
}

func errBody(msg string) errorBody { return errorBody{Error: msg} }

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}
