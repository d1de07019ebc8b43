package store

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/paxos"
	"repro/internal/wire"
)

// randRow builds a random row, sometimes nil, sometimes empty, with random
// cells including tombstones and nil values.
func randRow(rng *rand.Rand) Row {
	switch rng.Intn(5) {
	case 0:
		return nil
	case 1:
		return Row{}
	}
	r := make(Row)
	for i := rng.Intn(4) + 1; i > 0; i-- {
		col := string(rune('a' + rng.Intn(26)))
		r[col] = randCell(rng)
	}
	return r
}

func randCell(rng *rand.Rand) Cell {
	c := Cell{TS: rng.Int63(), Deleted: rng.Intn(4) == 0}
	switch rng.Intn(3) {
	case 0:
		c.Value = nil
	case 1:
		c.Value = []byte{}
	default:
		c.Value = make([]byte, rng.Intn(64))
		rng.Read(c.Value)
	}
	return c
}

func randBallot(rng *rand.Rand) paxos.Ballot {
	return paxos.Ballot{Counter: rng.Uint64(), Node: int32(rng.Intn(16))}
}

func randCols(rng *rand.Rand) []string {
	switch rng.Intn(3) {
	case 0:
		return nil
	case 1:
		return []string{}
	}
	out := make([]string, rng.Intn(3)+1)
	for i := range out {
		out[i] = string(rune('a' + rng.Intn(26)))
	}
	return out
}

// TestStoreCodecsRoundTrip fuzzes every store RPC payload through its codec
// and requires exact reconstruction, including nil-vs-empty rows and slices.
func TestStoreCodecsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	msgs := func() []any {
		var inProgressVal any
		if rng.Intn(2) == 0 {
			inProgressVal = sortRow(randRow(rng))
		}
		return []any{
			applyReq{Table: "t", Key: "k", Cells: sortRow(randRow(rng))},
			readReq{Table: "t", Key: "k", Cols: randCols(rng)},
			readResp{Cells: sortRow(randRow(rng))},
			scanReq{Table: "t"},
			scanResp{Keys: randCols(rng)},
			prepareReq{Table: "t", Key: "k", B: randBallot(rng)},
			prepareResp{PrepareResponse: paxos.PrepareResponse{
				OK:              rng.Intn(2) == 0,
				RefusedBy:       randBallot(rng),
				InProgress:      randBallot(rng),
				InProgressValue: inProgressVal,
				Committed:       randBallot(rng),
			}},
			proposeReq{Table: "t", Key: "k", B: randBallot(rng), Update: sortRow(randRow(rng))},
			proposeResp{OK: rng.Intn(2) == 0},
			commitReq{Table: "t", Key: "k", B: randBallot(rng), Update: sortRow(randRow(rng))},
			transferResp{Epoch: rng.Int63(), Rows: []transferRow{{Table: "t", Key: "k", Cells: sortRow(randRow(rng))}}},
			randRow(rng),
			randCell(rng),
			Cond{Col: "c", Want: []byte{1}},
			Cond{Col: "c", Want: nil},
			randBallot(rng),
		}
	}
	for iter := 0; iter < 200; iter++ {
		for _, in := range msgs() {
			data, err := wire.Marshal(in)
			if err != nil {
				t.Fatalf("Marshal(%#v): %v", in, err)
			}
			out, err := wire.Unmarshal(data)
			if err != nil {
				t.Fatalf("Unmarshal(%T): %v", in, err)
			}
			if !reflect.DeepEqual(in, out) {
				t.Fatalf("round trip mismatch for %T:\n in: %#v\nout: %#v", in, in, out)
			}
		}
	}
}

// TestRowMessagesEncodeAsMaps pins the wire format: every row-carrying
// message encodes byte for byte as it did when its rows were maps written
// by encodeRow, so message sizes, the bandwidth the simulator charges and
// every schedule built on them stay as they were.
func TestRowMessagesEncodeAsMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 500; iter++ {
		r, b := randRow(rng), randBallot(rng)
		cases := []struct {
			msg  any
			want func(e *wire.Encoder)
		}{
			{applyReq{Table: "t", Key: "k", Cells: sortRow(r)}, func(e *wire.Encoder) {
				e.Uint16(16)
				e.String("t")
				e.String("k")
				encodeRow(e, r)
			}},
			{readResp{Cells: sortRow(r)}, func(e *wire.Encoder) {
				e.Uint16(18)
				encodeRow(e, r)
			}},
			{prepareResp{PrepareResponse: paxos.PrepareResponse{OK: true, RefusedBy: b, InProgress: b, Committed: b, InProgressValue: sortRow(r)}}, func(e *wire.Encoder) {
				e.Uint16(22)
				e.Bool(true)
				encodeBallot(e, b)
				encodeBallot(e, b)
				encodeBallot(e, b)
				e.Bool(true)
				encodeRow(e, r)
			}},
			{proposeReq{Table: "t", Key: "k", B: b, Update: sortRow(r)}, func(e *wire.Encoder) {
				e.Uint16(23)
				e.String("t")
				e.String("k")
				encodeBallot(e, b)
				encodeRow(e, r)
			}},
			{commitReq{Table: "t", Key: "k", B: b, Update: sortRow(r)}, func(e *wire.Encoder) {
				e.Uint16(25)
				e.String("t")
				e.String("k")
				encodeBallot(e, b)
				encodeRow(e, r)
			}},
			{transferResp{Epoch: 3, Rows: []transferRow{{Table: "t", Key: "k", Cells: sortRow(r)}}}, func(e *wire.Encoder) {
				e.Uint16(33)
				e.Int64(3)
				e.Uint32(1)
				e.String("t")
				e.String("k")
				encodeRow(e, r)
			}},
		}
		for _, tc := range cases {
			got, err := wire.Marshal(tc.msg)
			if err != nil {
				t.Fatalf("Marshal(%T): %v", tc.msg, err)
			}
			var want wire.Encoder
			tc.want(&want)
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("%T with row %v:\n got %x\nwant %x", tc.msg, r, got, want.Bytes())
			}
		}
	}
}

// TestDecodeSortsAndMergesColumns feeds a frame whose columns arrive out of
// order and twice, as a faulty or foreign peer might send them: the decoded
// row is sorted with one cell per column, the LWW winner — not whichever
// copy came last.
func TestDecodeSortsAndMergesColumns(t *testing.T) {
	frame := func(cols []string, cells []Cell) []byte {
		var e wire.Encoder
		e.Uint16(18) // readResp
		e.Uint32(uint32(len(cols)))
		for i, col := range cols {
			e.String(col)
			encodeCell(&e, cells[i])
		}
		return e.Bytes()
	}
	a1, a2, b := Cell{Value: []byte("x"), TS: 1}, Cell{Value: []byte("y"), TS: 2}, Cell{Value: []byte("z"), TS: 5}
	want := sortedRow{{col: "a", Cell: a2}, {col: "b", Cell: b}}
	for _, order := range [][]Cell{{b, a1, a2}, {b, a2, a1}} {
		out, err := wire.Unmarshal(frame([]string{"b", "a", "a"}, order))
		if err != nil {
			t.Fatal(err)
		}
		if got := out.(readResp).Cells; !sameCells(got, want) {
			t.Fatalf("decoded %v, want %v", got, want)
		}
	}
}

// TestStoreCodecsCorrupt truncates each encoded payload at every boundary;
// Unmarshal must error, never panic or hang. It then flips random bytes:
// Unmarshal may accept the result, but must not panic, and every row it
// decodes must be sorted with no column twice.
func TestStoreCodecsCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	two := Row{"q": {Value: []byte("zz"), TS: 4}, "b": {TS: 2, Deleted: true}}
	samples := []any{
		applyReq{Table: "tbl", Key: "key", Cells: sortRow(Row{"v": {Value: []byte("abc"), TS: 9}})},
		readResp{Cells: sortRow(Row{"v": {Value: []byte{1, 2}, TS: 1, Deleted: true}})},
		readResp{Cells: sortRow(two)},
		prepareResp{PrepareResponse: paxos.PrepareResponse{OK: true, InProgress: randBallot(rng), InProgressValue: sortRow(Row{"x": {TS: 3}})}},
		proposeReq{Table: "t", Key: "k", B: randBallot(rng), Update: sortRow(two)},
		commitReq{Table: "t", Key: "k", B: randBallot(rng), Update: sortRow(two)},
		transferResp{Epoch: 2, Rows: []transferRow{{Table: "t", Key: "k", Cells: sortRow(two)}, {Table: "t", Key: "j", Cells: sortRow(Row{})}}},
		two,
	}
	for _, in := range samples {
		data, err := wire.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(data); cut++ {
			if _, err := wire.Unmarshal(data[:cut]); err == nil {
				t.Fatalf("%T: Unmarshal of %d/%d bytes succeeded", in, cut, len(data))
			}
		}
		for iter := 0; iter < 2000; iter++ {
			bad := append([]byte(nil), data...)
			for n := rng.Intn(3) + 1; n > 0; n-- {
				bad[2+rng.Intn(len(bad)-2)] = byte(rng.Intn(256))
			}
			out, err := wire.Unmarshal(bad)
			if err != nil {
				continue
			}
			for _, row := range decodedRows(out) {
				if !wellFormed(row) {
					t.Fatalf("%T: corrupt frame %x decoded to malformed row %v", in, bad, row)
				}
			}
		}
	}
}

// decodedRows returns the sorted rows a decoded store message carries.
func decodedRows(msg any) []sortedRow {
	switch m := msg.(type) {
	case applyReq:
		return []sortedRow{m.Cells}
	case readResp:
		return []sortedRow{m.Cells}
	case prepareResp:
		v, _ := m.InProgressValue.(sortedRow)
		return []sortedRow{v}
	case proposeReq:
		return []sortedRow{m.Update}
	case commitReq:
		return []sortedRow{m.Update}
	case transferResp:
		var rows []sortedRow
		for _, r := range m.Rows {
			rows = append(rows, r.Cells)
		}
		return rows
	}
	return nil
}
