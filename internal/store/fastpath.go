package store

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
)

// This file is the store half of the critical-section fast path: ONE reads
// served by the nearest replica, failing over to the next-nearest.

// byDistance orders targets by site RTT from the coordinator, self first —
// the preference order for ONE reads.
func (cl *Client) byDistance(targets []transport.NodeID) []transport.NodeID {
	mySite := cl.c.net.SiteOf(cl.node)
	rtt := func(t transport.NodeID) time.Duration {
		if t == cl.node {
			return -1
		}
		return cl.c.net.RTT(mySite, cl.c.net.SiteOf(t))
	}
	out := append([]transport.NodeID(nil), targets...)
	sort.SliceStable(out, func(i, j int) bool {
		ri, rj := rtt(out[i]), rtt(out[j])
		if ri != rj {
			return ri < rj
		}
		return out[i] < out[j]
	})
	return out
}

// getOne serves a ONE-consistency read from the nearest live replica,
// falling outward through the remaining replicas rather than failing while
// RF-1 of them still hold the key.
func (cl *Client) getOne(req readReq, targets []transport.NodeID) (Row, error) {
	cfg := cl.c.cfg
	var lastErr error
	for i, to := range cl.byDistance(targets) {
		resp, err := cl.c.net.CallTimeout(cl.node, to, svcRead, req, cfg.Timeout)
		if err != nil {
			lastErr = err
			continue
		}
		if i > 0 {
			cl.counter("store_one_fallbacks_total")
		}
		cells := resp.(readResp).Cells
		cl.addReadBytes(rowSize(cells))
		return cells.live(), nil
	}
	return nil, fmt.Errorf("%w: read %s/%s: %v", ErrUnavailable, req.Table, req.Key, lastErr)
}

// addReadBytes accounts payload bytes that reached this coordinator on the
// read path.
func (cl *Client) addReadBytes(n int) {
	if o := cl.c.net.Obs(); o != nil {
		o.Metrics().Counter("store_read_bytes_total", obs.Labels{"site": cl.c.net.SiteOf(cl.node)}).Add(int64(n))
	}
}
