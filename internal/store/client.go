package store

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/history"
	"repro/internal/obs"
	"repro/internal/transport"
)

// Client issues store operations through a fixed coordinator node, the way
// a MUSIC replica queries its nearby Cassandra node (Fig 1).
type Client struct {
	c    *Cluster
	node transport.NodeID
}

// Client returns a client coordinated by the given node.
func (c *Cluster) Client(node transport.NodeID) *Client {
	return &Client{c: c, node: node}
}

// Node returns the coordinator node ID.
func (cl *Client) Node() transport.NodeID { return cl.node }

// tracer returns the network's tracer (nil when observability is disabled).
func (cl *Client) tracer() *obs.Tracer { return cl.c.net.Tracer() }

// counter bumps a store counter, avoiding even the label allocation when
// observability is disabled.
func (cl *Client) counter(name string) {
	if o := cl.c.net.Obs(); o != nil {
		o.Metrics().Counter(name, obs.Labels{"site": cl.c.net.SiteOf(cl.node)}).Inc()
	}
}

// observeLatency records d into a store histogram keyed by operation and
// consistency level.
func (cl *Client) observeLatency(op string, cons Consistency, d time.Duration) {
	if o := cl.c.net.Obs(); o != nil {
		o.Metrics().Histogram("store_"+op+"_latency", obs.Labels{"cons": cons.String()}).Observe(d)
	}
}

// Cluster returns the owning cluster.
func (cl *Client) Cluster() *Cluster { return cl.c }

// Put writes cells to a row at the given consistency. Cells with TS == 0
// are stamped with the coordinator clock. A write that fails with
// ErrUnavailable is not rolled back — it may survive on some replicas.
func (cl *Client) Put(table, key string, cells Row, cons Consistency) error {
	cfg := cl.c.cfg
	sp := cl.tracer().Child("store.put")
	if sp != nil {
		sp.Annotate("row", table+"/"+key)
		sp.Annotate("cons", cons.String())
	}
	start := cl.c.net.Runtime().Now()
	stamped := make(Row, len(cells))
	for col, c := range cells {
		if c.TS == 0 {
			c.TS = cl.c.nextWriteTS(key)
		}
		stamped[col] = c
	}
	req := applyReq{Table: table, Key: key, Cells: stamped}
	var hc *history.Call
	if cfg.History != nil {
		hc = cfg.History.Begin(cl.c.net.SiteOf(cl.node), history.KindStorePut, table+"/"+key, 0).TS(maxTS(stamped)).Note(cons.String())
	}
	cl.c.net.Work(cl.node, costCoordWrite+perKBCost(rowSize(req.Cells)))
	err := cl.replicate(req, cons)
	hc.End(err)
	cl.observeLatency("put", cons, cl.c.net.Runtime().Now()-start)
	sp.EndErr(err)
	return err
}

// maxTS is the newest cell stamp in a row — the TS a store.put history op
// reports for a multi-cell write.
func maxTS(cells Row) int64 {
	var ts int64
	for _, c := range cells {
		if c.TS > ts {
			ts = c.TS
		}
	}
	return ts
}

// replicate sends an apply to every replica of the key in one quorum round
// and returns once the consistency level's ack count is in. A replica whose
// write fails — before the quorum, or after it as a straggler the round
// stopped waiting for — is caught up in the background (hinted handoff)
// unless disabled.
func (cl *Client) replicate(req applyReq, cons Consistency) error {
	targets := cl.c.ringNow().replicasFor(req.Key)
	need := cons.need(len(targets))
	hint := func(r transport.CallResult) {
		if r.Err != nil && !cl.c.cfg.NoHintedHandoff {
			cl.counter("store_handoffs_total")
			cl.c.net.Runtime().Go(func() { cl.handoff(r.From, req) })
		}
	}
	results := cl.c.net.MulticastLate(cl.node, targets, svcApply, req, need, cl.c.cfg.Timeout, hint)
	for _, r := range results {
		hint(r)
	}
	if oks := successes(results); oks < need {
		return fmt.Errorf("%w: %d/%d acks for %s/%s", ErrUnavailable, oks, need, req.Table, req.Key)
	}
	return nil
}

// successes counts the replies in a Multicast result set, without building
// the filtered slice transport.Successes would.
func successes(results []transport.CallResult) int {
	n := 0
	for _, r := range results {
		if r.Err == nil {
			n++
		}
	}
	return n
}

// handoff retries a failed replica write with backoff until it lands or the
// attempts run out.
func (cl *Client) handoff(to transport.NodeID, req applyReq) {
	rt := cl.c.net.Runtime()
	backoff := 200 * time.Millisecond
	for attempt := 0; attempt < 8; attempt++ {
		rt.Sleep(backoff)
		if backoff < 5*time.Second {
			backoff *= 2
		}
		if _, err := cl.c.net.CallTimeout(cl.node, to, svcApply, req, cl.c.cfg.Timeout); err == nil {
			cl.counter("store_handoffs_delivered_total")
			return
		}
	}
}

// Get reads a row's live cells at the given consistency. A missing row
// yields an empty Row and no error. Quorum and All reads merge replica
// responses cell-wise and (unless disabled) repair stale replicas in the
// background.
func (cl *Client) Get(table, key string, cons Consistency) (Row, error) {
	return cl.get(table, key, nil, cons, true)
}

// GetCols is Get restricted to the named columns.
func (cl *Client) GetCols(table, key string, cols []string, cons Consistency) (Row, error) {
	return cl.get(table, key, cols, cons, true)
}

func (cl *Client) get(table, key string, cols []string, cons Consistency, chargeCoord bool) (row Row, err error) {
	cfg := cl.c.cfg
	sp := cl.tracer().Child("store.get")
	if sp != nil {
		sp.Annotate("row", table+"/"+key)
		sp.Annotate("cons", cons.String())
	}
	start := cl.c.net.Runtime().Now()
	var hc *history.Call
	if cfg.History != nil && cons != One {
		// ONE reads (lock-wait polling, eventual peeks) are noise; record
		// only quorum-level traffic.
		hc = cfg.History.Begin(cl.c.net.SiteOf(cl.node), history.KindStoreGet, table+"/"+key, 0).Note(cons.String())
	}
	defer func() {
		hc.End(err)
		cl.observeLatency("get", cons, cl.c.net.Runtime().Now()-start)
		sp.EndErr(err)
	}()
	if chargeCoord {
		cl.c.net.Work(cl.node, costCoordRead)
	}
	req := readReq{Table: table, Key: key, Cols: cols}
	targets := cl.c.ringNow().replicasFor(key)

	if cons == One {
		return cl.getOne(req, targets)
	}

	need := cons.need(len(targets))
	results := cl.c.net.Multicast(cl.node, targets, svcRead, req, need, cfg.Timeout)
	oks := transport.Successes(results)
	if len(oks) < need {
		return nil, fmt.Errorf("%w: %d/%d replies for %s/%s", ErrUnavailable, len(oks), need, table, key)
	}

	merged := make(Row)
	payload := 0
	for _, r := range oks {
		cells := r.Resp.(readResp).Cells
		payload += rowSize(cells)
		mergeInto(merged, cells)
	}
	cl.addReadBytes(payload)
	if !cfg.NoReadRepair {
		cl.readRepair(table, key, merged, oks)
	}
	return merged.live(), nil
}

// readRepair pushes the merged row back to any responder that returned
// stale cells, asynchronously.
func (cl *Client) readRepair(table, key string, merged Row, responders []transport.CallResult) {
	for _, r := range responders {
		theirs := r.Resp.(readResp).Cells
		stale := false
		for col, c := range merged {
			cur, ok := theirs[col]
			if !ok || c.wins(cur) {
				stale = true
				break
			}
		}
		if stale {
			cl.counter("store_read_repairs_total")
			cl.c.net.Send(cl.node, r.From, svcApply, applyReq{Table: table, Key: key, Cells: merged.clone()})
		}
	}
}

// AllKeys lists keys with at least one live cell, scanning every store node
// at eventual consistency (used by the homing service's getAllKeys, which
// tolerates staleness).
func (cl *Client) AllKeys(table string) ([]string, error) {
	cfg := cl.c.cfg
	cl.c.net.Work(cl.node, costCoordRead)
	members := cl.c.MemberNodes()
	results := cl.c.net.Multicast(cl.node, members, svcScan, scanReq{Table: table}, len(members), cfg.Timeout)
	oks := transport.Successes(results)
	if len(oks) == 0 {
		return nil, fmt.Errorf("%w: scan %s", ErrUnavailable, table)
	}
	seen := make(map[string]bool)
	var keys []string
	for _, r := range oks {
		for _, k := range r.Resp.(scanResp).Keys {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys, nil
}

func perKBCost(size int) time.Duration {
	return time.Duration(float64(costPerKB) * float64(size) / 1024)
}
