package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/history"
	"repro/internal/httpapi"
	"repro/internal/nettrans"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/music"
)

// restClient drives the Table I REST operations against one site's server.
type restClient struct {
	t    *testing.T
	base string
}

func (r *restClient) do(method, path string, body []byte, wantStatus int) []byte {
	r.t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, r.base+path, rd)
	if err != nil {
		r.t.Fatalf("%s %s: %v", method, path, err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		r.t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		r.t.Fatalf("%s %s: status %d (want %d): %s", method, path, resp.StatusCode, wantStatus, out)
	}
	return out
}

func (r *restClient) createLockRef(key string) int64 {
	var body struct {
		LockRef int64 `json:"lockRef"`
	}
	if err := json.Unmarshal(r.do("POST", "/v1/locks/"+key, nil, http.StatusCreated), &body); err != nil {
		r.t.Fatalf("createLockRef: %v", err)
	}
	return body.LockRef
}

func (r *restClient) acquireLock(key string, ref int64) bool {
	var body struct {
		Holder bool `json:"holder"`
	}
	path := fmt.Sprintf("/v1/locks/%s/%d", key, ref)
	if err := json.Unmarshal(r.do("GET", path, nil, http.StatusOK), &body); err != nil {
		r.t.Fatalf("acquireLock: %v", err)
	}
	return body.Holder
}

func (r *restClient) acquireUntilHolder(key string, ref int64) {
	r.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !r.acquireLock(key, ref) {
		if time.Now().After(deadline) {
			r.t.Fatalf("lockRef %d never became holder of %q", ref, key)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func (r *restClient) criticalPut(key string, ref int64, value []byte) {
	r.do("PUT", fmt.Sprintf("/v1/keys/%s?lockRef=%d", key, ref), value, http.StatusNoContent)
}

func (r *restClient) criticalGet(key string, ref int64) []byte {
	return r.do("GET", fmt.Sprintf("/v1/keys/%s?lockRef=%d", key, ref), nil, http.StatusOK)
}

func (r *restClient) releaseLock(key string, ref int64) {
	r.do("DELETE", fmt.Sprintf("/v1/locks/%s/%d", key, ref), nil, http.StatusNoContent)
}

// criticalSection runs one full Table I section through this site.
func (r *restClient) criticalSection(key string, fn func(ref int64)) {
	r.t.Helper()
	ref := r.createLockRef(key)
	r.acquireUntilHolder(key, ref)
	fn(ref)
	r.releaseLock(key, ref)
}

var testSites = []string{"ohio", "ncalifornia", "oregon"}

// ecfCheck exercises the full ECF critical-section flow across three sites:
// write under a lock at sites[0], read it back under a new lock at sites[2]
// (a quorum read through a different coordinator), and verify a stale
// lockRef is refused once released.
func ecfCheck(t *testing.T, siteURL map[string]string) {
	t.Helper()
	ohio := &restClient{t: t, base: siteURL[testSites[0]]}
	oregon := &restClient{t: t, base: siteURL[testSites[2]]}

	var staleRef int64
	ohio.criticalSection("inventory", func(ref int64) {
		staleRef = ref
		ohio.criticalPut("inventory", ref, []byte("42 units"))
		if got := ohio.criticalGet("inventory", ref); string(got) != "42 units" {
			t.Fatalf("criticalGet at writer site = %q", got)
		}
	})

	// A released lockRef no longer holds the lock: ECF refuses the
	// critical op (412, the "not the lock holder" refusal).
	ohio.do("PUT", fmt.Sprintf("/v1/keys/inventory?lockRef=%d", staleRef), []byte("stale"), http.StatusPreconditionFailed)

	// A fresh section at another site must see the committed value.
	oregon.criticalSection("inventory", func(ref int64) {
		if got := oregon.criticalGet("inventory", ref); string(got) != "42 units" {
			t.Fatalf("criticalGet at remote site = %q, want the value written at %s", got, testSites[0])
		}
		oregon.criticalPut("inventory", ref, []byte("41 units"))
	})
	ohio.criticalSection("inventory", func(ref int64) {
		if got := ohio.criticalGet("inventory", ref); string(got) != "41 units" {
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
	listeners := make([]net.Listener, 3)
	peers := make([]nettrans.Peer, 3)
	for i := range peers {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		listeners[i] = lis
		peers[i] = nettrans.Peer{ID: transport.NodeID(i), Site: testSites[i], Addr: lis.Addr().String()}
	}
	siteURL := make(map[string]string, 3)
	for i, p := range peers {
		ob := obs.New(rt, obs.Options{})
		tr, err := nettrans.New(rt, nettrans.Config{Self: p.ID, Peers: peers, Listener: listeners[i], Obs: ob})
		if err != nil {
			t.Fatalf("nettrans.New: %v", err)
		}
		c, err := music.NewOverTransport(tr, music.TransportConfig{
			T:          time.Minute,
			LocalNodes: []transport.NodeID{p.ID},
			Obs:        ob,
			History:    rec,
		})
		if err != nil {
			t.Fatalf("NewOverTransport: %v", err)
		}
		defer c.Close()
		srv := httptest.NewServer(httpapi.New(c.Client(p.Site)))
		defer srv.Close()
		siteURL[p.Site] = srv.URL
	}
	ecfCheck(t, siteURL)

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

// fetchHistory pulls one site's recorded ops from its /v1/history endpoint.
func fetchHistory(t *testing.T, baseURL string) []history.Op {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/history")
	if err != nil {
		t.Fatalf("GET /v1/history: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET /v1/history: status %d: %s", resp.StatusCode, body)
	}
	var body struct {
		Site string       `json:"site"`
		Ops  []history.Op `json:"ops"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode history: %v", err)
	}
	return body.Ops
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

// TestThreeProcessCluster builds the musicd binary and runs a genuine
// three-process cluster on localhost: one OS process per site, TCP between
// them, REST on top.
func TestThreeProcessCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns real processes")
	}
	d := deploy(t, testSites, 0, func(d *procDeployment) error {
		for _, site := range testSites {
			// -leases and -adaptive ride along so the flag plumbing for the
			// adaptive read plane is exercised over a real multi-process
			// deployment; the merged history must still check clean.
			d.start(site, "-history", "-leases", "-adaptive")
		}
		return d.waitHealthy(testSites...)
	})
	siteURL := d.urls()
	ecfCheck(t, siteURL)

	// -adaptive serves the live monitor's standing on every process.
	for _, site := range testSites {
		resp, err := http.Get(siteURL[site] + "/v1/consistency")
		if err != nil {
			t.Fatalf("GET /v1/consistency at %s: %v", site, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/consistency at %s: status %d", site, resp.StatusCode)
		}
	}

	// Each process recorded its own history on the shared Unix-epoch clock;
	// fetch all three, merge them into one timeline, and check it — the
	// genuine multi-process ECF validation over real TCP.
	var parts [][]history.Op
	total := 0
	for _, site := range testSites {
		ops := fetchHistory(t, siteURL[site])
		total += len(ops)
		parts = append(parts, ops)
	}
	if total == 0 {
		t.Fatal("no process recorded any operations")
	}
	assertCleanHistory(t, mergeHistories(parts...))
}

// deployYoung starts the first two test sites, then the third — the young
// process — 2 s after both answer, every one with flags.
func deployYoung(t *testing.T, flags ...string) *procDeployment {
	t.Helper()
	return deploy(t, testSites, 0, func(d *procDeployment) error {
		for _, site := range testSites[:2] {
			d.start(site, flags...)
		}
		if err := d.waitHealthy(testSites[:2]...); err != nil {
			return err
		}
		time.Sleep(2 * time.Second)
		d.start(testSites[2], flags...)
		return d.waitHealthy(testSites[2])
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
	siteURL := deployYoung(t).urls()
	young := testSites[2]

	old := &restClient{t: t, base: siteURL[testSites[0]]}
	old.do("PUT", "/v1/keys/clock", []byte("old"), http.StatusNoContent)
	(&restClient{t: t, base: siteURL[young]}).do("PUT", "/v1/keys/clock", []byte("young"), http.StatusNoContent)

	// A critical read is a quorum read, so it returns the value with the
	// highest stamp whichever replicas each put reached.
	reader := &restClient{t: t, base: siteURL[testSites[1]]}
	reader.criticalSection("clock", func(ref int64) {
		if got := reader.criticalGet("clock", ref); string(got) != "young" {
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
	siteURL := deployYoung(t, "-t", "5s").urls()
	holder := &restClient{t: t, base: siteURL[testSites[2]]}
	contender := &restClient{t: t, base: siteURL[testSites[0]]}

	ref := holder.createLockRef(key)
	holder.acquireUntilHolder(key, ref)
	granted := time.Now()
	cref := contender.createLockRef(key)
	for time.Since(granted) < hold {
		if contender.acquireLock(key, cref) {
			t.Fatalf("the contender at %s was granted %v into a %v hold at %s, before its release", testSites[0], time.Since(granted), hold, testSites[2])
		}
		time.Sleep(50 * time.Millisecond)
	}
	holder.criticalPut(key, ref, []byte("held 4s"))
	holder.releaseLock(key, ref)
	contender.acquireUntilHolder(key, cref)
	if got := contender.criticalGet(key, cref); string(got) != "held 4s" {
		t.Fatalf("the contender read %q after the holder's release, want \"held 4s\"", got)
	}
	contender.releaseLock(key, cref)
}

// procDeployment is a musicd deployment on localhost, one OS process per
// site, built from this package's source.
type procDeployment struct {
	t         *testing.T
	bin       string
	peersPath string
	httpPorts map[string]int
	procs     map[string]*musicdProc
}

// musicdProc is one musicd process of a deployment.
type musicdProc struct {
	cmd    *exec.Cmd
	stderr bytes.Buffer  // what it wrote to stderr: complete once exited is closed
	exited chan struct{} // closed when the process has exited
}

// deployRetries is how many times deploy sets a deployment up again on
// fresh ports after a process found one of its ports taken.
const deployRetries = 3

// errPortTaken reports a process that exited because one of its ports was
// in use: freePorts releases the ports it finds, and a test running
// concurrently can bind one before the process does.
var errPortTaken = errors.New("a port was taken before the process bound it")

// deploy builds musicd and runs setup on a deployment of sites over fresh
// ports, the last spares of them marked spare in peers.json, and returns
// the deployment. When setup fails with errPortTaken, deploy kills every
// process it started and runs setup again on a new deployment, at most
// deployRetries times. Any other error fails the test.
func deploy(t *testing.T, sites []string, spares int, setup func(d *procDeployment) error) *procDeployment {
	t.Helper()
	dir := t.TempDir()
	bin := filepath.Join(dir, "musicd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for attempt := 0; ; attempt++ {
		d := newProcDeployment(t, bin, filepath.Join(dir, fmt.Sprintf("peers%d.json", attempt)), sites, spares)
		err := setup(d)
		if err == nil {
			return d
		}
		for _, p := range d.procs {
			p.kill()
		}
		if !errors.Is(err, errPortTaken) || attempt == deployRetries {
			t.Fatalf("deploy: %v", err)
		}
		t.Logf("redeploying on fresh ports: %v", err)
	}
}

func newProcDeployment(t *testing.T, bin, peersPath string, sites []string, spares int) *procDeployment {
	t.Helper()
	ports := freePorts(t, 2*len(sites))
	peers := make([]peerEntry, len(sites))
	httpPorts := make(map[string]int, len(sites))
	for i, site := range sites {
		peers[i] = peerEntry{
			Peer:  nettrans.Peer{ID: transport.NodeID(i), Site: site, Addr: fmt.Sprintf("127.0.0.1:%d", ports[i])},
			Spare: i >= len(sites)-spares,
		}
		httpPorts[site] = ports[len(sites)+i]
	}
	peersJSON, err := json.Marshal(peers)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(peersPath, peersJSON, 0o644); err != nil {
		t.Fatal(err)
	}
	return &procDeployment{t: t, bin: bin, peersPath: peersPath, httpPorts: httpPorts, procs: make(map[string]*musicdProc, len(sites))}
}

// start launches site's process with the extra flags given and kills it
// when the test ends.
func (d *procDeployment) start(site string, flags ...string) {
	d.t.Helper()
	args := append([]string{"-peers", d.peersPath, "-site", site, "-addr", d.addr(site)}, flags...)
	p := &musicdProc{cmd: exec.Command(d.bin, args...), exited: make(chan struct{})}
	p.cmd.Stdout = os.Stderr
	p.cmd.Stderr = io.MultiWriter(os.Stderr, &p.stderr)
	if err := p.cmd.Start(); err != nil {
		d.t.Fatalf("start %s: %v", site, err)
	}
	go func() {
		_ = p.cmd.Wait()
		close(p.exited)
	}()
	d.procs[site] = p
	d.t.Cleanup(p.kill)
}

// kill stops the process and waits until it has exited.
func (p *musicdProc) kill() {
	_ = p.cmd.Process.Kill()
	<-p.exited
}

func (d *procDeployment) addr(site string) string {
	return fmt.Sprintf("127.0.0.1:%d", d.httpPorts[site])
}

// urls maps every started site to its REST base URL.
func (d *procDeployment) urls() map[string]string {
	m := make(map[string]string, len(d.procs))
	for site := range d.procs {
		m[site] = "http://" + d.addr(site)
	}
	return m
}

// healthClient gives up on a health check that gets no answer: a port
// taken by another listener may accept and never reply.
var healthClient = &http.Client{Timeout: time.Second}

// waitHealthy waits until each site's process answers its health check, up
// to 15 s each. It returns errPortTaken for a process that exited for want
// of a port, and another error for one that exited otherwise or never
// answered.
func (d *procDeployment) waitHealthy(sites ...string) error {
	for _, site := range sites {
		base, p := "http://"+d.addr(site), d.procs[site]
		deadline := time.Now().Add(15 * time.Second)
		for {
			resp, err := healthClient.Get(base + "/v1/health")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			select {
			case <-p.exited:
				if strings.Contains(p.stderr.String(), "address already in use") {
					return fmt.Errorf("%s: %w", site, errPortTaken)
				}
				return fmt.Errorf("%s exited before it answered: %s", site, p.cmd.ProcessState)
			default:
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s never became healthy: %v", base, err)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	return nil
}

// freePorts finds n distinct free ports by binding and releasing them.
// Nothing holds them afterwards, so deploy redeploys when one is taken.
func freePorts(t *testing.T, n int) []int {
	t.Helper()
	ports := make([]int, n)
	for i := range ports {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ports[i] = lis.Addr().(*net.TCPAddr).Port
		lis.Close()
	}
	return ports
}
