package loopback

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/httpapi"
	"repro/internal/nettrans"
	"repro/internal/transport"
)

// portRetries is how many times DeployProcs sets a deployment up again on
// fresh ports after a process found one of its ports taken.
const portRetries = 3

// errPortTaken reports a process that exited because one of its ports was
// in use: freePorts releases the ports it finds, and another program can
// bind one before the process does.
var errPortTaken = errors.New("a port was taken before the process bound it")

// PeerEntry is one peers.json record: a transport peer plus the optional
// "spare" marker for nodes provisioned outside the initial membership.
type PeerEntry struct {
	nettrans.Peer
	Spare bool `json:"spare,omitempty"`
}

// Procs is a musicd deployment on 127.0.0.1, one OS process per site: the
// multi-process counterpart of Deploy. Each site keeps its transport and
// REST ports for the deployment's life, so starting a killed site again
// restarts it on the identity it had. Every process's combined output is
// captured.
type Procs struct {
	dir, bin, peers string
	rest            map[string]string // site → REST host:port
	procs           map[string]*proc
}

// proc is one musicd process of a deployment.
type proc struct {
	cmd    *exec.Cmd
	log    string        // the file its stdout and stderr go to
	exited chan struct{} // closed when the process has exited
}

// DeployProcs builds cmd/musicd once and runs setup on a deployment of
// sites over fresh ports, the last spares of them marked spare in
// peers.json. When setup fails because a process found a port taken,
// DeployProcs kills what setup started and runs it again on fresh ports, at
// most portRetries times. Close the returned deployment when done with it.
func DeployProcs(sites []string, spares int, setup func(*Procs) error) (*Procs, error) {
	dir, err := os.MkdirTemp("", "musicd-procs")
	if err != nil {
		return nil, err
	}
	bin := filepath.Join(dir, "musicd")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/musicd").CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("loopback: go build musicd: %v\n%s", err, out)
	}
	for attempt := 0; ; attempt++ {
		p, err := newProcs(dir, bin, filepath.Join(dir, fmt.Sprintf("peers%d.json", attempt)), sites, spares)
		if err == nil {
			if err = setup(p); err == nil {
				return p, nil
			}
			p.killAll()
		}
		if !errors.Is(err, errPortTaken) || attempt == portRetries {
			os.RemoveAll(dir)
			return nil, err
		}
	}
}

func newProcs(dir, bin, peersPath string, sites []string, spares int) (*Procs, error) {
	ports, err := freePorts(2 * len(sites))
	if err != nil {
		return nil, err
	}
	peers := make([]PeerEntry, len(sites))
	rest := make(map[string]string, len(sites))
	for i, site := range sites {
		peers[i] = PeerEntry{
			Peer:  nettrans.Peer{ID: transport.NodeID(i), Site: site, Addr: fmt.Sprintf("127.0.0.1:%d", ports[i])},
			Spare: i >= len(sites)-spares,
		}
		rest[site] = fmt.Sprintf("127.0.0.1:%d", ports[len(sites)+i])
	}
	data, err := json.Marshal(peers)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(peersPath, data, 0o644); err != nil {
		return nil, err
	}
	return &Procs{dir: dir, bin: bin, peers: peersPath, rest: rest, procs: make(map[string]*proc, len(sites))}, nil
}

// Start launches site's process from peers.json with the extra flags given.
func (p *Procs) Start(site string, flags ...string) error {
	return p.launch(site, append([]string{"-peers", p.peers, "-site", site}, flags...))
}

// StartSingle launches a single-process musicd with the extra flags given,
// serving the REST API of its first site on site's port.
func (p *Procs) StartSingle(site string, flags ...string) error {
	return p.launch(site, flags)
}

// launch runs the binary with args, serving REST on site's port, its
// output going to a fresh log file.
func (p *Procs) launch(site string, args []string) error {
	pr := &proc{log: filepath.Join(p.dir, site+".log"), exited: make(chan struct{})}
	log, err := os.Create(pr.log)
	if err != nil {
		return err
	}
	pr.cmd = exec.Command(p.bin, append([]string{"-addr", p.rest[site]}, args...)...)
	pr.cmd.Stdout, pr.cmd.Stderr = log, log
	if err := pr.cmd.Start(); err != nil {
		log.Close()
		return fmt.Errorf("start %s: %w", site, err)
	}
	go func() {
		_ = pr.cmd.Wait()
		log.Close()
		close(pr.exited)
	}()
	p.procs[site] = pr
	return nil
}

// Kill stops site's process (SIGKILL, no drain) and waits until it has
// exited.
func (p *Procs) Kill(site string) {
	if pr := p.procs[site]; pr != nil {
		_ = pr.cmd.Process.Kill()
		<-pr.exited
	}
}

func (p *Procs) killAll() {
	for site := range p.procs {
		p.Kill(site)
	}
}

// Close kills every process and removes the deployment's files: the
// binary, peers.json and the logs.
func (p *Procs) Close() {
	p.killAll()
	os.RemoveAll(p.dir)
}

// Client returns a REST client for site's process.
func (p *Procs) Client(site string) *httpapi.Client {
	return httpapi.NewClient("http://" + p.rest[site])
}

// Output returns what site's current process has written so far.
func (p *Procs) Output(site string) string {
	if pr := p.procs[site]; pr != nil {
		out, _ := os.ReadFile(pr.log)
		return string(out)
	}
	return ""
}

// WaitHealthy waits until each site's process answers its health check, up
// to timeout each. A process that exited first fails it, for want of a port
// with an error DeployProcs retries on.
func (p *Procs) WaitHealthy(timeout time.Duration, sites ...string) error {
	for _, site := range sites {
		pr, c := p.procs[site], p.Client(site)
		deadline := time.Now().Add(timeout)
		for {
			select {
			case <-pr.exited:
				out := p.Output(site)
				if strings.Contains(out, "address already in use") {
					return fmt.Errorf("%s: %w", site, errPortTaken)
				}
				return fmt.Errorf("%s exited before it answered: %s\n%s", site, pr.cmd.ProcessState, out)
			default:
			}
			err := c.Health()
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s never became healthy: %v", site, err)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	return nil
}

// freePorts finds n distinct free ports by binding and releasing them.
// Nothing holds them afterwards, so DeployProcs redeploys when one is taken.
func freePorts(n int) ([]int, error) {
	ports := make([]int, n)
	for i := range ports {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ports[i] = lis.Addr().(*net.TCPAddr).Port
		lis.Close()
	}
	return ports, nil
}
