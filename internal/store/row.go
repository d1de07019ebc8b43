package store

import (
	"bytes"
	"slices"
	"strings"
)

// Rows in memory and on the wire. Below the Client API a row is a
// sortedRow: its cells in one slice, sorted by column name, each column at
// most once — the order the codecs write them in. The engine's rows, every
// row-carrying message, the quorum-read merge, read repair and the CAS
// serial read all use it, so a decode is one exact-size slice and a merge
// is a walk over two sorted slices. Read and CAS hand it out as a RowView.
// Row, a map, is only what Put and CAS take and what Get returns,
// converted once there.

// colCell is one column of a sortedRow.
type colCell struct {
	col string
	Cell
}

// sortedRow is a row's cells sorted by column, each column at most once. A
// nil sortedRow is a row that does not exist (readResp) and encodes apart
// from an empty one.
type sortedRow []colCell

func byCol(a, b colCell) int { return strings.Compare(a.col, b.col) }

// sortRow converts an API row to the sorted form; nil stays nil. The cells
// are copied, their values shared (cell values are treated as immutable).
func sortRow(r Row) sortedRow {
	if r == nil {
		return nil
	}
	s := make(sortedRow, 0, len(r))
	for col, c := range r {
		s = append(s, colCell{col, c})
	}
	slices.SortFunc(s, byCol)
	return s
}

// liveRow returns the row's non-tombstone cells as an API row, never nil.
func (s sortedRow) liveRow() Row {
	out := make(Row, len(s))
	for _, c := range s {
		if !c.Deleted {
			out[c.col] = c.Cell
		}
	}
	return out
}

// toRow returns every cell, tombstones included, as an API row; nil stays
// nil.
func (s sortedRow) toRow() Row {
	if s == nil {
		return nil
	}
	out := make(Row, len(s))
	for _, c := range s {
		out[c.col] = c.Cell
	}
	return out
}

// clone copies the row into a new array. It never returns nil: the copy of
// a row that exists is a row that exists.
func (s sortedRow) clone() sortedRow {
	return append(make(sortedRow, 0, len(s)), s...)
}

// find returns the cell in col.
func (s sortedRow) find(col string) (Cell, bool) {
	for _, c := range s {
		if c.col >= col {
			if c.col == col {
				return c.Cell, true
			}
			break
		}
	}
	return Cell{}, false
}

// stamped returns s with every unstamped cell (TS == 0) given ts. It copies
// s only when some cell needs the stamp, so a fully stamped row is returned
// as it is.
func (s sortedRow) stamped(ts int64) sortedRow {
	copied := false
	for i := range s {
		if s[i].TS != 0 {
			continue
		}
		if !copied {
			s, copied = s.clone(), true
		}
		s[i].TS = ts
	}
	return s
}

// wins reports whether cell a beats cell b under LWW rules.
func (a Cell) wins(b Cell) bool {
	if a.TS != b.TS {
		return a.TS > b.TS
	}
	if a.Deleted != b.Deleted {
		return a.Deleted
	}
	return bytes.Compare(a.Value, b.Value) > 0
}

// mergeCells folds src into dst cell-wise, last write wins, and returns the
// merged row and whether it differs from dst. A cell of src that beats
// dst's cell in the same column overwrites it in dst's array; when src
// brings columns dst lacks, the result is a new exact-size array. src's
// array is never retained, so a row merged into the engine shares nothing
// with the message it came in.
func mergeCells(dst, src sortedRow) (sortedRow, bool) {
	changed, added := false, 0
	i := 0
	for _, c := range src {
		for i < len(dst) && dst[i].col < c.col {
			i++
		}
		if i < len(dst) && dst[i].col == c.col {
			if c.wins(dst[i].Cell) {
				dst[i].Cell = c.Cell
				changed = true
			}
			continue
		}
		added++
	}
	if added == 0 {
		return dst, changed
	}
	out := make(sortedRow, 0, len(dst)+added)
	i = 0
	for _, c := range src {
		for i < len(dst) && dst[i].col < c.col {
			out = append(out, dst[i])
			i++
		}
		if i < len(dst) && dst[i].col == c.col {
			continue // merged above; dst[i] is copied by a later step
		}
		out = append(out, c)
	}
	return append(out, dst[i:]...), true
}

// behind reports whether theirs lacks a cell of merged or holds a cell that
// merged's beats — whether a replica that returned theirs needs repair.
func behind(theirs, merged sortedRow) bool {
	i := 0
	for _, c := range merged {
		for i < len(theirs) && theirs[i].col < c.col {
			i++
		}
		if i == len(theirs) || theirs[i].col != c.col || c.wins(theirs[i].Cell) {
			return true
		}
	}
	return false
}

// normalize sorts a row decoded from a peer's frame and keeps one cell per
// column, the LWW winner among the copies.
func normalize(s sortedRow) sortedRow {
	slices.SortFunc(s, byCol)
	out := s[:0]
	for _, c := range s {
		if n := len(out); n > 0 && out[n-1].col == c.col {
			if c.wins(out[n-1].Cell) {
				out[n-1].Cell = c.Cell
			}
			continue
		}
		out = append(out, c)
	}
	clear(s[len(out):])
	return out
}

// rowSize approximates the wire size of a row in bytes.
func rowSize(s sortedRow) int {
	n := 0
	for _, c := range s {
		n += len(c.col) + len(c.Value) + 16
	}
	return n
}

// condsMatch evaluates conditions against the live cells of row.
func condsMatch(conds []Cond, row sortedRow) bool {
	for _, c := range conds {
		cell, ok := row.find(c.Col)
		present := ok && !cell.Deleted
		if c.Want == nil {
			if present {
				return false
			}
			continue
		}
		if !present || !bytes.Equal(cell.Value, c.Want) {
			return false
		}
	}
	return true
}

// RowView is a read-only look at a row's cells, with no map built. A view
// that Read returns or a CASResult holds is the caller's own decoded copy:
// the store never changes it, so it stays valid for as long as the caller
// keeps it. A view a Watch match is shown is the engine's row itself, valid
// only during that call. Neither may be written through the values it
// returns.
type RowView struct{ cells sortedRow }

// View returns a view of r's cells, as Read would return them for a row
// holding r.
func (r Row) View() RowView { return RowView{sortRow(r)} }

// Live returns col's value when the row holds a live (non-tombstone) cell
// there.
func (v RowView) Live(col string) ([]byte, bool) {
	c, ok := v.cells.find(col)
	if !ok || c.Deleted {
		return nil, false
	}
	return c.Value, true
}
