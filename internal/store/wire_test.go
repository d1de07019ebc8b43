package store

import (
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
			inProgressVal = randRow(rng)
			if inProgressVal.(Row) == nil {
				inProgressVal = Row(nil)
			}
		}
		return []any{
			applyReq{Table: "t", Key: "k", Cells: randRow(rng)},
			readReq{Table: "t", Key: "k", Cols: randCols(rng)},
			readResp{Cells: randRow(rng)},
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
			proposeReq{Table: "t", Key: "k", B: randBallot(rng), Update: randRow(rng)},
			proposeResp{OK: rng.Intn(2) == 0},
			commitReq{Table: "t", Key: "k", B: randBallot(rng), Update: randRow(rng)},
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
			if size, ok := wire.Size(in); !ok || size != len(data) {
				t.Fatalf("Size(%T) = %d,%t; marshaled %d", in, size, ok, len(data))
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

// TestStoreCodecsCorrupt truncates each encoded payload at every boundary;
// Unmarshal must error, never panic or hang.
func TestStoreCodecsCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	samples := []any{
		applyReq{Table: "tbl", Key: "key", Cells: Row{"v": {Value: []byte("abc"), TS: 9}}},
		readResp{Cells: Row{"v": {Value: []byte{1, 2}, TS: 1, Deleted: true}}},
		prepareResp{PrepareResponse: paxos.PrepareResponse{OK: true, InProgress: randBallot(rng), InProgressValue: Row{"x": {TS: 3}}}},
		proposeReq{Table: "t", Key: "k", B: randBallot(rng), Update: Row{"q": {Value: []byte("zz")}}},
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
	}
}
