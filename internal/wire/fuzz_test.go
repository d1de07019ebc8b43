package wire_test

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/lockstore"
	"repro/internal/paxos"
	"repro/internal/store"
	"repro/internal/wire"
)

// vocabulary is every name lockstore and core intern (importing them runs
// their Intern), each seeded below as a condition on that column, so the
// fuzzer starts from decodes that return the interned copies.
var vocabulary = []string{lockstore.Table, "guard", "queue", "grant", core.DataTable, "value", "synch"}

// corpusValues is the fuzz seed corpus: one exemplar per registered codec
// family reachable from this package's importers — the wire basics plus
// internal/store's public payload types (importing store also registers its
// unexported RPC codecs, widening what the fuzzer can mutate into).
func corpusValues() []any {
	values := []any{
		nil,
		"a-key",
		[]byte{0x00, 0xff, 0x7f},
		int64(-1),
		store.Cell{Value: []byte("v"), TS: 42, Deleted: false},
		store.Cell{Value: nil, TS: 7, Deleted: true},
		store.Row{"value": {Value: []byte("x"), TS: 1}, "flag": {TS: 2, Deleted: true}},
		store.Cond{Col: "lockRef", Want: []byte("3")},
		store.Cond{Col: "absent", Want: nil},
		paxos.Ballot{Counter: 9, Node: 2},
	}
	for _, name := range vocabulary {
		values = append(values, store.Cond{Col: name, Want: []byte(name)})
	}
	return values
}

// FuzzUnmarshal hammers the payload decoder with arbitrary bytes: it must
// never panic, and anything it accepts must re-encode stably — a double
// round-trip (decode, encode, decode, encode) has to converge on identical
// bytes, or the simulated network and the TCP transport would disagree
// about message sizes for the same value. And a decoded value must share no
// bytes with its input, since transports reuse their buffers: scribbling
// over the input leaves the value's encoding as it was.
func FuzzUnmarshal(f *testing.F) {
	for _, v := range corpusValues() {
		data, err := wire.Marshal(v)
		if err != nil {
			f.Fatalf("corpus value %T: %v", v, err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := bytes.Clone(data)
		v, err := wire.Unmarshal(in)
		if err != nil {
			return // rejected input; only panics are bugs here
		}
		enc1, err := wire.Marshal(v)
		if err != nil {
			t.Fatalf("decoded value %T does not re-encode: %v", v, err)
		}
		for i := range in {
			in[i] = 0xFF
		}
		if scribbled, err := wire.Marshal(v); err != nil || !bytes.Equal(enc1, scribbled) {
			t.Fatalf("decoded %T shares bytes with its input: re-encodes as\n%x\nafter the input was overwritten, not\n%x (err %v)", v, scribbled, enc1, err)
		}
		v2, err := wire.Unmarshal(enc1)
		if err != nil {
			t.Fatalf("re-encoded %T does not decode: %v", v, err)
		}
		if !reflect.DeepEqual(v, v2) {
			t.Fatalf("round trip changed value: %#v -> %#v", v, v2)
		}
		enc2, err := wire.Marshal(v2)
		if err != nil {
			t.Fatalf("second re-encode of %T: %v", v2, err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("unstable encoding for %T:\n first %x\nsecond %x", v, enc1, enc2)
		}
	})
}

// FuzzReadFrame hammers the stream framer: arbitrary bytes must never
// panic or over-allocate (the MaxFrame cap), every frame it parses must
// re-frame to bytes that parse back identically, and a frame we write
// ourselves must always read back.
func FuzzReadFrame(f *testing.F) {
	for _, v := range corpusValues() {
		payload, err := wire.Marshal(v)
		if err != nil {
			f.Fatalf("corpus value %T: %v", v, err)
		}
		f.Add(wire.AppendFrame(nil, payload))
	}
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			body, err := wire.ReadFrame(r)
			if err != nil {
				if err != io.EOF && r.Len() == len(data) {
					// Nothing consumed and not a clean EOF: the error must
					// be the header's, and a reread must agree.
					if _, err2 := wire.ReadFrame(bytes.NewReader(data)); err2 == nil {
						t.Fatalf("ReadFrame flip-flopped on %x: %v then nil", data, err)
					}
				}
				return
			}
			var buf bytes.Buffer
			if werr := wire.WriteFrame(&buf, body); werr != nil {
				t.Fatalf("WriteFrame(%d bytes): %v", len(body), werr)
			}
			back, rerr := wire.ReadFrame(&buf)
			if rerr != nil {
				t.Fatalf("re-read of written frame: %v", rerr)
			}
			if !bytes.Equal(body, back) {
				t.Fatalf("frame round trip changed body: %x -> %x", body, back)
			}
		}
	})
}
