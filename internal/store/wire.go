package store

import (
	"fmt"
	"sort"

	"repro/internal/paxos"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Binary codecs for every store RPC payload, in the 16–47 id range reserved
// for this package. These are the system's source of truth for message
// size — the simulated network charges its bandwidth model with the exact
// encoded byte counts, and the TCP transport writes the same bytes onto
// sockets — so the encoders must stay deterministic: a row encodes as its
// column count, then its (col, cell) pairs in column order, whether it is
// a sortedRow (every RPC payload) or a Row (the standalone ID-28 codec).

// Error codes for sentinels that must survive a process boundary.
const (
	errCodeUnavailable = 10
	errCodeContention  = 11
)

// nilCount marks a nil map or slice in a length prefix, distinguishing it
// from an empty one (readResp uses nil cells for "row does not exist").
const nilCount = ^uint32(0)

func init() {
	wire.RegisterError(errCodeUnavailable, ErrUnavailable)
	wire.RegisterError(errCodeContention, ErrContention)

	wire.Register(16, "store.applyReq",
		func(e *wire.Encoder, m applyReq) {
			e.String(m.Table)
			e.String(m.Key)
			encodeCells(e, m.Cells)
		},
		func(d *wire.Decoder) applyReq {
			return applyReq{Table: d.String(), Key: d.String(), Cells: decodeCells(d)}
		})
	wire.Register(17, "store.readReq",
		func(e *wire.Encoder, m readReq) {
			e.String(m.Table)
			e.String(m.Key)
			encodeStrings(e, m.Cols)
		},
		func(d *wire.Decoder) readReq {
			return readReq{Table: d.String(), Key: d.String(), Cols: decodeStrings(d)}
		})
	wire.Register(18, "store.readResp",
		func(e *wire.Encoder, m readResp) { encodeCells(e, m.Cells) },
		func(d *wire.Decoder) readResp { return readResp{Cells: decodeCells(d)} })
	wire.Register(19, "store.scanReq",
		func(e *wire.Encoder, m scanReq) { e.String(m.Table) },
		func(d *wire.Decoder) scanReq { return scanReq{Table: d.String()} })
	wire.Register(20, "store.scanResp",
		func(e *wire.Encoder, m scanResp) { encodeStrings(e, m.Keys) },
		func(d *wire.Decoder) scanResp { return scanResp{Keys: decodeStrings(d)} })
	wire.Register(21, "store.prepareReq",
		func(e *wire.Encoder, m prepareReq) {
			e.String(m.Table)
			e.String(m.Key)
			encodeBallot(e, m.B)
		},
		func(d *wire.Decoder) prepareReq {
			return prepareReq{Table: d.String(), Key: d.String(), B: decodeBallot(d)}
		})
	wire.Register(22, "store.prepareResp",
		func(e *wire.Encoder, m prepareResp) {
			e.Bool(m.OK)
			encodeBallot(e, m.RefusedBy)
			encodeBallot(e, m.InProgress)
			encodeBallot(e, m.Committed)
			switch v := m.InProgressValue.(type) {
			case nil:
				e.Bool(false)
			case sortedRow:
				e.Bool(true)
				encodeCells(e, v)
			default:
				panic(fmt.Sprintf("store: prepareResp.InProgressValue is %T, want sortedRow", v))
			}
		},
		func(d *wire.Decoder) prepareResp {
			var m prepareResp
			m.OK = d.Bool()
			m.RefusedBy = decodeBallot(d)
			m.InProgress = decodeBallot(d)
			m.Committed = decodeBallot(d)
			if d.Bool() {
				m.InProgressValue = decodeCells(d)
			}
			return m
		})
	wire.Register(23, "store.proposeReq",
		func(e *wire.Encoder, m proposeReq) {
			e.String(m.Table)
			e.String(m.Key)
			encodeBallot(e, m.B)
			encodeCells(e, m.Update)
		},
		func(d *wire.Decoder) proposeReq {
			return proposeReq{Table: d.String(), Key: d.String(), B: decodeBallot(d), Update: decodeCells(d)}
		})
	wire.Register(24, "store.proposeResp",
		func(e *wire.Encoder, m proposeResp) { e.Bool(m.OK) },
		func(d *wire.Decoder) proposeResp { return proposeResp{OK: d.Bool()} })
	wire.Register(25, "store.commitReq",
		func(e *wire.Encoder, m commitReq) {
			e.String(m.Table)
			e.String(m.Key)
			encodeBallot(e, m.B)
			encodeCells(e, m.Update)
		},
		func(d *wire.Decoder) commitReq {
			return commitReq{Table: d.String(), Key: d.String(), B: decodeBallot(d), Update: decodeCells(d)}
		})
	// IDs 26 and 27 belonged to the deleted digest read. Never reuse them:
	// a frame from an older peer must not decode as some other message.

	// Building blocks as standalone payloads, for callers (tests, tools)
	// that move a bare row, cell, condition or ballot.
	wire.Register(28, "store.Row",
		func(e *wire.Encoder, r Row) { encodeRow(e, r) },
		func(d *wire.Decoder) Row { return decodeCells(d).toRow() })
	wire.Register(29, "store.Cell",
		func(e *wire.Encoder, c Cell) { encodeCell(e, c) },
		func(d *wire.Decoder) Cell { return decodeCell(d) })
	wire.Register(30, "store.Cond",
		func(e *wire.Encoder, c Cond) {
			e.String(c.Col)
			e.RawBytes(c.Want)
		},
		func(d *wire.Decoder) Cond { return Cond{Col: d.String(), Want: d.RawBytes()} })
	wire.Register(31, "paxos.Ballot",
		func(e *wire.Encoder, b paxos.Ballot) { encodeBallot(e, b) },
		func(d *wire.Decoder) paxos.Ballot { return decodeBallot(d) })
	wire.Register(32, "store.transferReq",
		func(e *wire.Encoder, m transferReq) { e.Int32(int32(m.Requester)) },
		func(d *wire.Decoder) transferReq { return transferReq{Requester: transport.NodeID(d.Int32())} })
	wire.Register(33, "store.transferResp",
		func(e *wire.Encoder, m transferResp) {
			e.Int64(m.Epoch)
			e.Uint32(uint32(len(m.Rows)))
			for _, r := range m.Rows {
				e.String(r.Table)
				e.String(r.Key)
				encodeCells(e, r.Cells)
			}
		},
		func(d *wire.Decoder) transferResp {
			var m transferResp
			m.Epoch = d.Int64()
			n := d.Uint32()
			for i := uint32(0); i < n && d.Err() == nil; i++ {
				m.Rows = append(m.Rows, transferRow{Table: d.String(), Key: d.String(), Cells: decodeCells(d)})
			}
			return m
		})
}

func encodeCell(e *wire.Encoder, c Cell) {
	e.RawBytes(c.Value)
	e.Int64(c.TS)
	e.Bool(c.Deleted)
}

func decodeCell(d *wire.Decoder) Cell {
	return Cell{Value: d.RawBytes(), TS: d.Int64(), Deleted: d.Bool()}
}

// encodeRow writes a row as [u32 count][sorted (col, cell)...], with
// nilCount marking a nil row.
func encodeRow(e *wire.Encoder, r Row) {
	if r == nil {
		e.Uint32(nilCount)
		return
	}
	e.Uint32(uint32(len(r)))
	cols := make([]string, 0, len(r))
	for col := range r {
		cols = append(cols, col)
	}
	sort.Strings(cols)
	for _, col := range cols {
		e.String(col)
		encodeCell(e, r[col])
	}
}

// encodeCells writes a sortedRow in encodeRow's format, byte for byte.
func encodeCells(e *wire.Encoder, s sortedRow) {
	if s == nil {
		e.Uint32(nilCount)
		return
	}
	e.Uint32(uint32(len(s)))
	for _, c := range s {
		e.String(c.col)
		encodeCell(e, c.Cell)
	}
}

// minColBytes is the smallest encoded column: an empty name, a nil value,
// the stamp and the tombstone flag.
const minColBytes = 4 + 4 + 8 + 1

// decodeCells reads a row written by encodeCells or encodeRow into one
// exact-size slice. A peer's frame may list columns out of order or more
// than once; those are sorted and merged last-write-wins, so the result is
// always a well-formed sortedRow.
func decodeCells(d *wire.Decoder) sortedRow {
	n := d.Uint32()
	if n == nilCount || d.Err() != nil {
		return nil
	}
	s := make(sortedRow, 0, min(int(n), d.Remaining()/minColBytes))
	ordered := true
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		c := colCell{col: d.String(), Cell: decodeCell(d)}
		if len(s) > 0 && c.col <= s[len(s)-1].col {
			ordered = false
		}
		s = append(s, c)
	}
	if !ordered {
		s = normalize(s)
	}
	return s
}

// encodeStrings writes a string slice with nil preserved (readReq uses nil
// Cols for "all columns").
func encodeStrings(e *wire.Encoder, ss []string) {
	if ss == nil {
		e.Uint32(nilCount)
		return
	}
	e.Uint32(uint32(len(ss)))
	for _, s := range ss {
		e.String(s)
	}
}

func decodeStrings(d *wire.Decoder) []string {
	n := d.Uint32()
	if n == nilCount {
		return nil
	}
	ss := make([]string, 0, min(int(n), 1024))
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		ss = append(ss, d.String())
	}
	return ss
}

func encodeBallot(e *wire.Encoder, b paxos.Ballot) {
	e.Uint64(b.Counter)
	e.Int32(b.Node)
}

func decodeBallot(d *wire.Decoder) paxos.Ballot {
	return paxos.Ballot{Counter: d.Uint64(), Node: d.Int32()}
}
