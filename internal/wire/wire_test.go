package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"
)

// testMsg exercises every Encoder/Decoder primitive.
type testMsg struct {
	A   uint8
	B   bool
	C   uint16
	D   uint32
	E   uint64
	F   int32
	G   int64
	S   string
	Raw []byte
}

func init() {
	Register(990, "wire.testMsg",
		func(e *Encoder, v testMsg) {
			e.Uint8(v.A)
			e.Bool(v.B)
			e.Uint16(v.C)
			e.Uint32(v.D)
			e.Uint64(v.E)
			e.Int32(v.F)
			e.Int64(v.G)
			e.String(v.S)
			e.RawBytes(v.Raw)
		},
		func(d *Decoder) testMsg {
			return testMsg{
				A:   d.Uint8(),
				B:   d.Bool(),
				C:   d.Uint16(),
				D:   d.Uint32(),
				E:   d.Uint64(),
				F:   d.Int32(),
				G:   d.Int64(),
				S:   d.String(),
				Raw: d.RawBytes(),
			}
		})
	RegisterError(990, errTestSentinel)
}

var errTestSentinel = errors.New("wire_test: sentinel")

func roundTrip(t *testing.T, msg any) any {
	t.Helper()
	data, err := Marshal(msg)
	if err != nil {
		t.Fatalf("Marshal(%#v): %v", msg, err)
	}
	out, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal(%#v bytes=%x): %v", msg, data, err)
	}
	return out
}

// TestRoundTripProperty fuzzes random messages through Marshal/Unmarshal
// and requires exact reconstruction, including nil-vs-empty byte slices.
func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randBytes := func() []byte {
		switch rng.Intn(4) {
		case 0:
			return nil
		case 1:
			return []byte{}
		default:
			b := make([]byte, rng.Intn(300))
			rng.Read(b)
			return b
		}
	}
	for i := 0; i < 500; i++ {
		in := testMsg{
			A:   uint8(rng.Uint32()),
			B:   rng.Intn(2) == 0,
			C:   uint16(rng.Uint32()),
			D:   rng.Uint32(),
			E:   rng.Uint64(),
			F:   int32(rng.Uint32()),
			G:   int64(rng.Uint64()),
			S:   string(randBytes()),
			Raw: randBytes(),
		}
		out := roundTrip(t, in).(testMsg)
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip mismatch:\n in: %#v\nout: %#v", in, out)
		}
		if (in.Raw == nil) != (out.Raw == nil) {
			t.Fatalf("nil-ness lost: in nil=%t out nil=%t", in.Raw == nil, out.Raw == nil)
		}
	}
}

func TestBasicTypesAndNil(t *testing.T) {
	if got := roundTrip(t, "hello"); got != "hello" {
		t.Fatalf("string round trip: %v", got)
	}
	if got := roundTrip(t, []byte{1, 2, 3}); !bytes.Equal(got.([]byte), []byte{1, 2, 3}) {
		t.Fatalf("bytes round trip: %v", got)
	}
	if got := roundTrip(t, int64(-42)); got != int64(-42) {
		t.Fatalf("int64 round trip: %v", got)
	}
	if got := roundTrip(t, nil); got != nil {
		t.Fatalf("nil round trip: %v", got)
	}
}

func TestMarshalUnregistered(t *testing.T) {
	type unregistered struct{ X int }
	if _, err := Marshal(unregistered{1}); !errors.Is(err, ErrUnregistered) {
		t.Fatalf("want ErrUnregistered, got %v", err)
	}
	for _, msg := range []any{nil, "s"} {
		if _, err := Marshal(msg); err != nil {
			t.Fatalf("Marshal(%#v) = %v; nil and string always encode", msg, err)
		}
	}
}

func TestUnmarshalCorrupt(t *testing.T) {
	data, err := Marshal(testMsg{S: "abc", Raw: []byte{9}})
	if err != nil {
		t.Fatal(err)
	}
	// Truncations at every boundary must error, never panic.
	for cut := 0; cut < len(data); cut++ {
		if _, err := Unmarshal(data[:cut]); err == nil {
			t.Fatalf("Unmarshal of %d/%d bytes succeeded", cut, len(data))
		}
	}
	// Trailing garbage is rejected.
	if _, err := Unmarshal(append(append([]byte{}, data...), 0xFF)); err == nil {
		t.Fatal("Unmarshal with trailing byte succeeded")
	}
	// Unknown type id is rejected.
	if _, err := Unmarshal([]byte{0xEE, 0xEE, 1, 2}); err == nil {
		t.Fatal("Unmarshal with unknown id succeeded")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	bodies := [][]byte{nil, {}, {1}, bytes.Repeat([]byte{0xAB}, 1000)}
	for _, b := range bodies {
		if err := WriteFrame(&buf, b); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range bodies {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %x want %x", i, got, want)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("want io.EOF at stream end, got %v", err)
	}
}

func TestFrameTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut++ {
		if _, err := ReadFrame(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("ReadFrame of %d/%d bytes succeeded", cut, len(full))
		}
	}
}

func TestAppendFrame(t *testing.T) {
	b := AppendFrame(nil, []byte("xy"))
	got, err := ReadFrame(bytes.NewReader(b))
	if err != nil || string(got) != "xy" {
		t.Fatalf("AppendFrame round trip: %q %v", got, err)
	}
}

// TestReadFrameInto pins the buffer-reuse contract: a result that fits
// aliases the caller's buffer, a bigger frame gets a fresh allocation, and
// either way the bytes round-trip.
func TestReadFrameInto(t *testing.T) {
	small := bytes.Repeat([]byte{0x11}, 64)
	big := bytes.Repeat([]byte{0x22}, 4096)
	var stream bytes.Buffer
	for _, b := range [][]byte{small, big, small} {
		if err := WriteFrame(&stream, b); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 0, 128)
	got, err := ReadFrameInto(&stream, buf)
	if err != nil || !bytes.Equal(got, small) {
		t.Fatalf("small frame: %v (len %d)", err, len(got))
	}
	if &got[0] != &buf[:1][0] {
		t.Error("small frame did not reuse the caller's buffer")
	}
	got2, err := ReadFrameInto(&stream, got)
	if err != nil || !bytes.Equal(got2, big) {
		t.Fatalf("big frame: %v (len %d)", err, len(got2))
	}
	if cap(got2) < len(big) {
		t.Fatalf("big frame buffer cap %d < %d", cap(got2), len(big))
	}
	// Feeding the grown buffer back reuses it for the next small frame.
	got3, err := ReadFrameInto(&stream, got2)
	if err != nil || !bytes.Equal(got3, small) {
		t.Fatalf("third frame: %v", err)
	}
	if &got3[0] != &got2[:1][0] {
		t.Error("third frame did not reuse the grown buffer")
	}
	// nil buf works (ReadFrame's path).
	var one bytes.Buffer
	if err := WriteFrame(&one, small); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadFrameInto(&one, nil); err != nil || !bytes.Equal(got, small) {
		t.Fatalf("nil-buf read: %v", err)
	}
}

// TestEncoderPool exercises GetEncoder/PutEncoder: a pooled encoder comes
// back empty, and oversized buffers are not retained.
func TestEncoderPool(t *testing.T) {
	e := GetEncoder()
	e.String("hello")
	if e.Len() != len("hello")+4 {
		t.Fatalf("Len = %d", e.Len())
	}
	PutEncoder(e)
	e2 := GetEncoder()
	if e2.Len() != 0 {
		t.Fatalf("pooled encoder not reset: Len = %d", e2.Len())
	}
	// An encoder that grew past the retention cap is dropped, not pooled.
	e2.RawBytes(make([]byte, maxPooledBuf+1))
	PutEncoder(e2)
	if e2.buf != nil {
		t.Fatal("oversized buffer retained in the pool")
	}
}

// TestMarshalTo checks that in-place marshaling produces exactly Marshal's
// bytes appended to the encoder.
func TestMarshalTo(t *testing.T) {
	msg := testMsg{A: 7, S: "svc", Raw: []byte{1, 2, 3}}
	want, err := Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	var e Encoder
	e.Uint32(0xDEADBEEF) // pre-existing content must be preserved
	if err := MarshalTo(&e, msg); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(e.Bytes()[4:], want) {
		t.Fatalf("MarshalTo bytes diverge from Marshal:\n got %x\nwant %x", e.Bytes()[4:], want)
	}
	type unregistered struct{ X int }
	if err := MarshalTo(&e, unregistered{1}); !errors.Is(err, ErrUnregistered) {
		t.Fatalf("want ErrUnregistered, got %v", err)
	}
}

// TestEncoderPatching covers the back-patch primitives the framed hot path
// uses: reserve a length slot, write, fix it up, and truncate on error.
func TestEncoderPatching(t *testing.T) {
	var e Encoder
	e.Uint8(9)
	off := e.Len()
	e.Uint32(0) // placeholder
	e.String("body")
	e.FixUint32(off, uint32(e.Len()-off-4))
	d := Decoder{buf: e.Bytes()}
	if d.Uint8() != 9 {
		t.Fatal("prefix byte lost")
	}
	if n := d.Uint32(); int(n) != len("body")+4 {
		t.Fatalf("patched length = %d", n)
	}
	if d.String() != "body" {
		t.Fatal("body lost")
	}
	mark := e.Len()
	e.String("tentative")
	e.Truncate(mark)
	if e.Len() != mark {
		t.Fatalf("Truncate: Len = %d want %d", e.Len(), mark)
	}
}

// TestRawBytesView checks the zero-copy payload view: same bytes as
// RawBytes, aliasing the decode buffer, with nil preserved.
func TestRawBytesView(t *testing.T) {
	var e Encoder
	e.RawBytes([]byte{5, 6, 7})
	e.RawBytes(nil)
	buf := e.Bytes()
	d := DecoderFor(buf)
	v := d.RawBytesView()
	if !bytes.Equal(v, []byte{5, 6, 7}) {
		t.Fatalf("view = %x", v)
	}
	if &v[0] != &buf[4] {
		t.Error("RawBytesView copied instead of aliasing")
	}
	if nv := d.RawBytesView(); nv != nil {
		t.Fatalf("nil raw bytes decoded as %x", nv)
	}
	if d.Err() != nil || d.off != len(buf) {
		t.Fatalf("decoder state after views: err=%v consumed=%d/%d", d.Err(), d.off, len(buf))
	}
}

func TestErrorCodes(t *testing.T) {
	cases := []error{
		errTestSentinel,
		errors.New("free-form failure"),
		&sentinelError{msg: "wrapped: " + errTestSentinel.Error(), sentinel: errTestSentinel},
	}
	for _, in := range cases {
		var e Encoder
		EncodeError(&e, in)
		d := Decoder{buf: e.Bytes()}
		out := DecodeError(&d)
		if out.Error() != in.Error() {
			t.Fatalf("message lost: in %q out %q", in, out)
		}
		if errors.Is(in, errTestSentinel) != errors.Is(out, errTestSentinel) {
			t.Fatalf("sentinel identity lost for %q", in)
		}
	}
}
