package store

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
)

// This file is the store half of the critical-section fast path: ONE reads
// served by the nearest replica, failing over to the next-nearest.

// byDistance sorts targets in place by site RTT from the coordinator, self
// first, then by node ID — the preference order for ONE reads.
func (cl *Client) byDistance(targets []transport.NodeID) {
	mySite := cl.c.net.SiteOf(cl.node)
	rtt := func(t transport.NodeID) time.Duration {
		if t == cl.node {
			return -1
		}
		return cl.c.net.RTT(mySite, cl.c.net.SiteOf(t))
	}
	slices.SortStableFunc(targets, func(a, b transport.NodeID) int {
		if c := cmp.Compare(rtt(a), rtt(b)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
}

// getOne serves a ONE-consistency read from the nearest live replica,
// falling outward through the remaining replicas rather than failing while
// RF-1 of them still hold the key.
func (cl *Client) getOne(req readReq, replicas []transport.NodeID) (sortedRow, error) {
	cfg := cl.c.cfg
	var lastErr error
	// The ring's replica sets are shared: sort a copy of this one.
	var buf [8]transport.NodeID
	targets := append(buf[:0], replicas...)
	cl.byDistance(targets)
	for i, to := range targets {
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
		return cells, nil
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
