package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"

	"repro/internal/httpapi"
	"repro/internal/sim"
)

// restSections is how many Table I sections the REST comparison runs each
// way. On the WAN plane every section is a dozen simulated WAN rounds.
const (
	restSectionsTCP = 300
	restSectionsWAN = 40
)

// restOps drives the five operations through the REST front end, the way a
// service written in another language reaches MUSIC.
type restOps struct {
	do func(method, path string, body []byte) (int, []byte, error)
	rt sim.Runtime
}

func lockPath(key string, ref int64) string {
	return fmt.Sprintf("/v1/locks/%s/%d", url.PathEscape(key), ref)
}

func keyPath(key string, ref int64) string {
	return fmt.Sprintf("/v1/keys/%s?lockRef=%d", url.PathEscape(key), ref)
}

func (r restOps) expect(method, path string, body []byte, want int) ([]byte, error) {
	status, resp, err := r.do(method, path, body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if status != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %s", method, path, status, want, resp)
	}
	return resp, nil
}

func (r restOps) CreateLockRef(key string) (int64, error) {
	resp, err := r.expect(http.MethodPost, "/v1/locks/"+url.PathEscape(key), nil, http.StatusCreated)
	if err != nil {
		return 0, err
	}
	var out struct {
		LockRef int64 `json:"lockRef"`
	}
	if err := json.Unmarshal(resp, &out); err != nil {
		return 0, fmt.Errorf("createLockRef reply %q: %w", resp, err)
	}
	return out.LockRef, nil
}

func (r restOps) AwaitLock(key string, ref int64) error {
	return pollUntilHeld(r.rt, key, ref, func() (bool, error) {
		resp, err := r.expect(http.MethodGet, lockPath(key, ref), nil, http.StatusOK)
		if err != nil {
			return false, err
		}
		var out struct {
			Holder bool `json:"holder"`
		}
		if err := json.Unmarshal(resp, &out); err != nil {
			return false, fmt.Errorf("acquireLock reply %q: %w", resp, err)
		}
		return out.Holder, nil
	})
}

func (r restOps) CriticalPut(key string, ref int64, v []byte) error {
	_, err := r.expect(http.MethodPut, keyPath(key, ref), v, http.StatusNoContent)
	return err
}

func (r restOps) CriticalGet(key string, ref int64) ([]byte, error) {
	return r.expect(http.MethodGet, keyPath(key, ref), nil, http.StatusOK)
}

func (r restOps) ReleaseLock(key string, ref int64) error {
	_, err := r.expect(http.MethodDelete, lockPath(key, ref), nil, http.StatusNoContent)
	return err
}

// memResponse is the http.ResponseWriter of the in-task REST path.
type memResponse struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (m *memResponse) Header() http.Header         { return m.header }
func (m *memResponse) WriteHeader(status int)      { m.status = status }
func (m *memResponse) Write(p []byte) (int, error) { return m.body.Write(p) }

// restPass runs Table I sections on fresh keys alternately through the REST
// front end and through music.Client on deployment d, so the two medians
// differ by the front end alone. On TCP the front end is a real HTTP server
// on loopback; on the WAN plane, where a blocking socket would stall the
// simulator, requests are handed to the same handler in-task. It must be
// called on the plane's clock.
func restPass(d *deployment, seed int64, out *layerRun) error {
	viaMusic, _ := opsFor(d, workload{}, 0)
	srv := httpapi.New(viaMusic.(musicOps).cl)
	rest := restOps{rt: d.rt}
	sections := restSectionsWAN
	if d.plane == planeTCP {
		sections = restSectionsTCP
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		server := &http.Server{Handler: srv}
		served := make(chan error, 1)
		go func() { served <- server.Serve(lis) }()
		hc := &http.Client{}
		defer func() {
			hc.CloseIdleConnections()
			_ = server.Close() // Serve's error below is the one that matters
			<-served
		}()
		base := "http://" + lis.Addr().String()
		rest.do = func(method, path string, body []byte) (int, []byte, error) {
			req, err := http.NewRequest(method, base+path, bytes.NewReader(body))
			if err != nil {
				return 0, nil, err
			}
			resp, err := hc.Do(req)
			if err != nil {
				return 0, nil, err
			}
			defer resp.Body.Close()
			data, err := io.ReadAll(resp.Body)
			return resp.StatusCode, data, err
		}
	} else {
		rest.do = func(method, path string, body []byte) (int, []byte, error) {
			req, err := http.NewRequest(method, "http://music"+path, bytes.NewReader(body))
			if err != nil {
				return 0, nil, err
			}
			w := &memResponse{header: make(http.Header), status: http.StatusOK}
			srv.ServeHTTP(w, req)
			return w.status, w.body.Bytes(), nil
		}
	}

	c := &client{id: 99, now: d.now, clock: d.clock, filler: make([]byte, tableISection.ValueSize)}
	var viaREST, direct sample
	for i := 0; i < sections; i++ {
		c.section(rest, false, fmt.Sprintf("rest-s%d-%d", seed, i), tableISection, &viaREST)
		c.section(viaMusic, false, fmt.Sprintf("direct-s%d-%d", seed, i), tableISection, &direct)
	}
	out.absorb(&viaREST.tally)
	out.absorb(&direct.tally)
	r, m := sectionTiming(viaREST.Recs, false), sectionTiming(direct.Recs, false)
	out.set("httpapi.section_us_p50", r.P50, r.N)
	out.set("httpapi.overhead_us", r.P50-m.P50, r.N)
	return nil
}
