package store

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/transport"
)

// This file is the store half of the critical-section fast path: digest
// quorum reads (Cassandra's actual read path — full data from the nearest
// replica, digests from the rest) and ONE-read failover to the next-nearest
// replica.

const svcDigest = "store.digest"

type digestReq struct {
	Table, Key string
	Cols       []string // nil = all columns
}

type digestResp struct {
	Digest uint64
}

// digestRow hashes a replica's raw cells — tombstones included — for the
// requested columns. Two replicas produce the same digest iff a full read
// from either would contribute identical cells to the quorum merge, so a
// digest match proves the full-read payload already is the merged row.
func digestRow(r Row) uint64 {
	cols := make([]string, 0, len(r))
	for col := range r {
		cols = append(cols, col)
	}
	sort.Strings(cols)
	h := fnv.New64a()
	var buf [8]byte
	for _, col := range cols {
		c := r[col]
		h.Write([]byte(col))
		h.Write([]byte{0})
		binary.BigEndian.PutUint64(buf[:], uint64(c.TS))
		h.Write(buf[:])
		if c.Deleted {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
		h.Write(c.Value)
		h.Write([]byte{0xfe})
	}
	return h.Sum64()
}

func (r *replica) handleDigest(from transport.NodeID, req any) (any, error) {
	m := req.(digestReq)
	full, _ := r.handleRead(from, readReq{Table: m.Table, Key: m.Key, Cols: m.Cols})
	return digestResp{Digest: digestRow(full.(readResp).Cells)}, nil
}

// byDistance orders targets by site RTT from the coordinator, self first —
// the preference order for ONE reads and for picking the digest path's one
// full-data replica.
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

// digestGet runs a quorum read as one full read to the nearest replica plus
// digest reads to the rest. ok=false means the digests did not corroborate
// the full read — or too few replicas answered — and the caller must fall
// back to the full-payload quorum path (which also performs read repair).
func (cl *Client) digestGet(req readReq, targets []transport.NodeID, need int) (Row, bool) {
	cfg := cl.c.cfg
	rt := cl.c.net.Runtime()
	order := cl.byDistance(targets)

	sp := cl.tracer().Child("store.get.digest")
	sp.Annotatef("fanout", "1 full + %d digests, need %d", len(order)-1, need)

	type reply struct {
		full   bool
		cells  Row
		digest uint64
		err    error
	}
	mb := sim.NewMailbox[reply](rt)
	fullTarget := order[0]
	rt.Go(func() {
		resp, err := cl.c.net.CallTimeout(cl.node, fullTarget, svcRead, req, cfg.Timeout)
		if err != nil {
			mb.Send(reply{full: true, err: err})
			return
		}
		mb.Send(reply{full: true, cells: resp.(readResp).Cells})
	})
	dreq := digestReq{Table: req.Table, Key: req.Key, Cols: req.Cols}
	for _, to := range order[1:] {
		to := to
		rt.Go(func() {
			resp, err := cl.c.net.CallTimeout(cl.node, to, svcDigest, dreq, cfg.Timeout)
			if err != nil {
				mb.Send(reply{err: err})
				return
			}
			mb.Send(reply{digest: resp.(digestResp).Digest})
		})
	}

	deadline := rt.Now() + cfg.Timeout
	var fullCells Row
	haveFull := false
	var digests []uint64
	for answered := 0; answered < len(order); answered++ {
		remaining := deadline - rt.Now()
		if remaining <= 0 {
			break
		}
		r, err := mb.RecvTimeout(remaining)
		if err != nil {
			break
		}
		if r.err != nil {
			continue
		}
		if r.full {
			haveFull = true
			fullCells = r.cells
		} else {
			digests = append(digests, r.digest)
		}
		if haveFull && 1+len(digests) >= need {
			break
		}
	}
	if !haveFull || 1+len(digests) < need {
		sp.Fail(nil)
		sp.End()
		return nil, false
	}
	want := digestRow(fullCells)
	for _, d := range digests {
		if d != want {
			cl.counter("store_digest_mismatch_total")
			sp.Annotate("mismatch", "digest disagrees with full read")
			sp.Fail(nil)
			sp.End()
			return nil, false
		}
	}
	cl.addReadBytes(rowSize(fullCells) + 8*len(digests))
	sp.End()
	return fullCells.live(), true
}

// addReadBytes accounts payload bytes that reached this coordinator on the
// read path — the quantity digest reads exist to shrink.
func (cl *Client) addReadBytes(n int) {
	if o := cl.c.net.Obs(); o != nil {
		o.Metrics().Counter("store_read_bytes_total", obs.Labels{"site": cl.c.net.SiteOf(cl.node)}).Add(int64(n))
	}
}
