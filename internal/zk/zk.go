// Package zk implements a ZooKeeper-like coordination service — the
// paper's sequentially consistent baseline (§VIII-c) — as a znode tree
// replicated through the Zab-style atomic broadcast in internal/zab.
// Writes are totally ordered by the leader; reads are served locally by any
// server (sequential consistency, exactly ZooKeeper's contract). Versioned
// updates, sequential nodes, children listings and one-shot data watches
// are supported.
package zk

import (
	"errors"
	"fmt"
	"path"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/zab"
)

// Errors mirroring ZooKeeper's client errors.
var (
	ErrNoNode     = errors.New("zk: node does not exist")
	ErrNodeExists = errors.New("zk: node already exists")
	ErrBadVersion = errors.New("zk: version conflict")
	ErrNotEmpty   = errors.New("zk: node has children")
	// ErrUnavailable re-exports the broadcast failure.
	ErrUnavailable = zab.ErrUnavailable
)

// Stat carries a znode's metadata.
type Stat struct {
	Version  int32  // data version, bumped by SetData
	Czxid    uint64 // zxid that created the node
	Mzxid    uint64 // zxid of the last modification
	Cversion int32  // child-list version (drives sequential node names)
}

// WatchEvent reports a one-shot data watch firing.
type WatchEvent struct {
	Path    string
	Deleted bool
}

// Replicated operations (the Zab payloads).
type opCreate struct {
	Path       string
	Data       []byte
	Sequential bool
}

type opSet struct {
	Path    string
	Data    []byte
	Version int32 // -1 = unconditional
}

type opDelete struct {
	Path    string
	Version int32
}

// opResult is the deterministic outcome every server computes for an op.
type opResult struct {
	path string
	stat Stat
	err  error
}

// Cluster is a zk ensemble over a Zab group.
type Cluster struct {
	zb      *zab.Cluster
	net     *simnet.Network
	servers map[simnet.NodeID]*server
}

type server struct {
	c  *Cluster
	id simnet.NodeID

	mu      sync.Mutex
	nodes   map[string]*znode
	results map[uint64]opResult
	watches map[string][]*sim.Promise[WatchEvent]
}

type znode struct {
	data     []byte
	stat     Stat
	children map[string]bool
}

// New builds a zk ensemble on the given network nodes (first node leads).
func New(net *simnet.Network, nodes []simnet.NodeID) (*Cluster, error) {
	c := &Cluster{net: net, servers: make(map[simnet.NodeID]*server, len(nodes))}
	zb, err := zab.New(net, zab.Config{Nodes: nodes, Apply: c.apply})
	if err != nil {
		return nil, err
	}
	c.zb = zb
	for _, id := range nodes {
		c.servers[id] = &server{
			c:       c,
			id:      id,
			nodes:   map[string]*znode{"/": {children: make(map[string]bool)}},
			results: make(map[uint64]opResult),
			watches: make(map[string][]*sim.Promise[WatchEvent]),
		}
	}
	return c, nil
}

// Leader returns the ensemble leader.
func (c *Cluster) Leader() simnet.NodeID { return c.zb.Leader() }

// apply is the replicated state machine, identical on every server.
func (c *Cluster) apply(id simnet.NodeID, txn zab.Txn) {
	s := c.servers[id]
	var res opResult
	switch op := txn.Data.(type) {
	case opCreate:
		res = s.applyCreate(op, txn.Zxid)
	case opSet:
		res = s.applySet(op, txn.Zxid)
	case opDelete:
		res = s.applyDelete(op, txn.Zxid)
	default:
		res = opResult{err: fmt.Errorf("zk: unknown op %T", txn.Data)}
	}
	s.mu.Lock()
	s.results[txn.Zxid] = res
	// Trim ancient results so long benchmark runs stay bounded.
	if txn.Zxid > 50000 {
		delete(s.results, txn.Zxid-50000)
	}
	s.mu.Unlock()
}

func (s *server) applyCreate(op opCreate, zxid uint64) opResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	parentPath := path.Dir(op.Path)
	parent, ok := s.nodes[parentPath]
	if !ok {
		return opResult{err: fmt.Errorf("create %s: parent: %w", op.Path, ErrNoNode)}
	}
	name := op.Path
	if op.Sequential {
		name = fmt.Sprintf("%s%010d", op.Path, parent.stat.Cversion)
	}
	if _, exists := s.nodes[name]; exists {
		return opResult{err: fmt.Errorf("create %s: %w", name, ErrNodeExists)}
	}
	s.nodes[name] = &znode{
		data:     op.Data,
		stat:     Stat{Czxid: zxid, Mzxid: zxid},
		children: make(map[string]bool),
	}
	parent.children[name] = true
	parent.stat.Cversion++
	return opResult{path: name, stat: s.nodes[name].stat}
}

func (s *server) applySet(op opSet, zxid uint64) opResult {
	s.mu.Lock()
	n, ok := s.nodes[op.Path]
	if !ok {
		s.mu.Unlock()
		return opResult{err: fmt.Errorf("set %s: %w", op.Path, ErrNoNode)}
	}
	if op.Version >= 0 && op.Version != n.stat.Version {
		s.mu.Unlock()
		return opResult{err: fmt.Errorf("set %s: have %d want %d: %w", op.Path, n.stat.Version, op.Version, ErrBadVersion)}
	}
	n.data = op.Data
	n.stat.Version++
	n.stat.Mzxid = zxid
	stat := n.stat
	watches := s.watches[op.Path]
	delete(s.watches, op.Path)
	s.mu.Unlock()

	for _, w := range watches {
		w.Resolve(WatchEvent{Path: op.Path})
	}
	return opResult{path: op.Path, stat: stat}
}

func (s *server) applyDelete(op opDelete, zxid uint64) opResult {
	s.mu.Lock()
	n, ok := s.nodes[op.Path]
	if !ok {
		s.mu.Unlock()
		return opResult{err: fmt.Errorf("delete %s: %w", op.Path, ErrNoNode)}
	}
	if op.Version >= 0 && op.Version != n.stat.Version {
		s.mu.Unlock()
		return opResult{err: fmt.Errorf("delete %s: %w", op.Path, ErrBadVersion)}
	}
	if len(n.children) > 0 {
		s.mu.Unlock()
		return opResult{err: fmt.Errorf("delete %s: %w", op.Path, ErrNotEmpty)}
	}
	delete(s.nodes, op.Path)
	if parent, ok := s.nodes[path.Dir(op.Path)]; ok {
		delete(parent.children, op.Path)
		parent.stat.Cversion++
	}
	watches := s.watches[op.Path]
	delete(s.watches, op.Path)
	s.mu.Unlock()

	for _, w := range watches {
		w.Resolve(WatchEvent{Path: op.Path, Deleted: true})
	}
	return opResult{path: op.Path}
}

// Client issues zk operations through one ensemble server.
type Client struct {
	c   *Cluster
	srv simnet.NodeID
}

// Client binds to the server on the given node.
func (c *Cluster) Client(srv simnet.NodeID) *Client { return &Client{c: c, srv: srv} }

// submit totally orders op and returns the locally applied result.
func (cl *Client) submit(op any, size int) (opResult, error) {
	zxid, err := cl.c.zb.Submit(cl.srv, op, size)
	if err != nil {
		return opResult{}, err
	}
	// Wait until the local server has applied our zxid (ZooKeeper's
	// "read your own writes at your server" session guarantee).
	s := cl.c.servers[cl.srv]
	rt := cl.c.net.Runtime()
	for i := 0; i < 100000; i++ {
		s.mu.Lock()
		res, ok := s.results[zxid]
		if ok {
			delete(s.results, zxid)
		}
		applied := cl.c.zb.Applied(cl.srv)
		s.mu.Unlock()
		if ok {
			return res, nil
		}
		if applied >= zxid {
			return opResult{}, fmt.Errorf("zk: result for zxid %d lost", zxid)
		}
		rt.Sleep(200 * time.Microsecond)
	}
	return opResult{}, fmt.Errorf("zk: zxid %d never applied locally", zxid)
}

// Create makes a znode; with sequential set, a 10-digit monotonic suffix is
// appended to the name (ZooKeeper sequential nodes). Returns the real path.
func (cl *Client) Create(p string, data []byte, sequential bool) (string, error) {
	res, err := cl.submit(opCreate{Path: cleanPath(p), Data: data, Sequential: sequential}, len(data))
	if err != nil {
		return "", err
	}
	return res.path, res.err
}

// SetData overwrites a znode's data; version -1 skips the version check.
func (cl *Client) SetData(p string, data []byte, version int32) (Stat, error) {
	res, err := cl.submit(opSet{Path: cleanPath(p), Data: data, Version: version}, len(data))
	if err != nil {
		return Stat{}, err
	}
	return res.stat, res.err
}

// Delete removes a childless znode; version -1 skips the version check.
func (cl *Client) Delete(p string, version int32) error {
	res, err := cl.submit(opDelete{Path: cleanPath(p), Version: version}, 0)
	if err != nil {
		return err
	}
	return res.err
}

// GetData reads a znode from the local server (sequentially consistent,
// possibly behind the leader).
func (cl *Client) GetData(p string) ([]byte, Stat, error) {
	cl.c.zb.ReadWork(cl.srv)
	s := cl.c.servers[cl.srv]
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.nodes[cleanPath(p)]
	if !ok {
		return nil, Stat{}, fmt.Errorf("get %s: %w", p, ErrNoNode)
	}
	return append([]byte(nil), n.data...), n.stat, nil
}

// Children lists a znode's children (sorted) at the local server.
func (cl *Client) Children(p string) ([]string, error) {
	cl.c.zb.ReadWork(cl.srv)
	s := cl.c.servers[cl.srv]
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.nodes[cleanPath(p)]
	if !ok {
		return nil, fmt.Errorf("children %s: %w", p, ErrNoNode)
	}
	out := make([]string, 0, len(n.children))
	for child := range n.children {
		out = append(out, child)
	}
	sort.Strings(out)
	return out, nil
}

// Watch registers a one-shot watch on the next change (set or delete) of p
// as observed by this client's server.
func (cl *Client) Watch(p string) *sim.Promise[WatchEvent] {
	s := cl.c.servers[cl.srv]
	w := sim.NewPromise[WatchEvent](cl.c.net.Runtime())
	s.mu.Lock()
	defer s.mu.Unlock()
	s.watches[cleanPath(p)] = append(s.watches[cleanPath(p)], w)
	return w
}

func cleanPath(p string) string {
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	return path.Clean(p)
}
