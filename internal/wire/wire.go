// Package wire gives every RPC payload in the system an explicit binary
// encoding. Each message type registers a codec (a stable 16-bit type id
// plus encode/decode functions over stdlib encoding/binary primitives) in a
// process-global registry; Marshal and Unmarshal then move any registered
// value to and from a self-describing byte string.
//
// The encoding is the system's single source of truth for message size: the
// simulated network charges its NIC/bandwidth model with exact encoded byte
// counts, and the TCP transport writes the same bytes onto real sockets, so
// a byte modeled in simulation is a byte spent in production.
//
// Layout: every marshaled payload is [u16 type id][body]; the zero id is a
// nil payload and has no body. On a stream, payloads travel inside
// length-prefixed frames (WriteFrame / ReadFrame). All integers are
// big-endian.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"sort"
	"sync"
)

// Reserved type-id ranges. Collisions panic at registration, but keeping
// ranges disjoint by package makes ids stable as codecs are added.
//
//	0           nil payload
//	1–15        wire: basic types (string, []byte, int64)
//	16–47       internal/store (rows, Paxos rounds, scans, transfer)
//	48–55       internal/raft (votes, appends, proposals)
//	56–63       internal/membership (config log, fetch/propose)
//	64–79       internal/crdb (replicated transaction commands)
//	900–999     test and conformance payloads
const (
	idNil    = 0
	idString = 1
	idBytes  = 2
	idInt64  = 3
)

// ErrUnregistered is returned by Marshal for a value whose dynamic type has
// no registered codec.
var ErrUnregistered = errors.New("wire: unregistered message type")

type codec struct {
	id   uint16
	name string
	enc  func(*Encoder, any)
	dec  func(*Decoder) any
}

var (
	regMu  sync.RWMutex
	byID   = make(map[uint16]*codec)
	byType = make(map[reflect.Type]*codec)
)

// Register installs the codec for message type T under the given id. It
// panics on a duplicate id or type — codecs are wired up in package init
// functions, so a collision is a programming error.
func Register[T any](id uint16, name string, enc func(*Encoder, T), dec func(*Decoder) T) {
	var zero T
	rt := reflect.TypeOf(zero)
	if rt == nil {
		panic("wire: cannot register interface type")
	}
	c := &codec{
		id:   id,
		name: name,
		enc:  func(e *Encoder, v any) { enc(e, v.(T)) },
		dec:  func(d *Decoder) any { return dec(d) },
	}
	regMu.Lock()
	defer regMu.Unlock()
	if id == idNil {
		panic("wire: type id 0 is reserved for nil")
	}
	if prev, ok := byID[id]; ok {
		panic(fmt.Sprintf("wire: type id %d already registered to %s", id, prev.name))
	}
	if prev, ok := byType[rt]; ok {
		panic(fmt.Sprintf("wire: type %v already registered as %s", rt, prev.name))
	}
	byID[id] = c
	byType[rt] = c
}

func lookupType(msg any) (*codec, bool) {
	if msg == nil {
		return nil, false
	}
	regMu.RLock()
	defer regMu.RUnlock()
	c, ok := byType[reflect.TypeOf(msg)]
	return c, ok
}

func lookupID(id uint16) (*codec, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	c, ok := byID[id]
	return c, ok
}

// Registered reports whether msg's dynamic type has a codec (nil counts:
// the nil payload always encodes).
func Registered(msg any) bool {
	if msg == nil {
		return true
	}
	_, ok := lookupType(msg)
	return ok
}

// Marshal encodes msg as [u16 type id][body]. A nil msg encodes to the
// 2-byte nil payload. It encodes into a pooled Encoder and copies the
// result out once, at its exact size, so the only allocation is the
// returned slice.
func Marshal(msg any) ([]byte, error) {
	e := GetEncoder()
	defer PutEncoder(e)
	if err := MarshalTo(e, msg); err != nil {
		return nil, err
	}
	out := make([]byte, len(e.buf))
	copy(out, e.buf)
	return out, nil
}

// decPool holds the Decoders Unmarshal hands to codecs. A codec is a func
// value, so the Decoder it is passed escapes; a fresh one per payload would
// be an allocation that carries nothing.
var decPool = sync.Pool{New: func() any { return new(Decoder) }}

// Unmarshal decodes a payload produced by Marshal. Trailing bytes are an
// error: a codec must consume exactly what its encoder produced.
func Unmarshal(data []byte) (any, error) {
	d := decPool.Get().(*Decoder)
	*d = Decoder{buf: data}
	v, err := unmarshal(d)
	*d = Decoder{}
	decPool.Put(d)
	return v, err
}

func unmarshal(d *Decoder) (any, error) {
	id := d.Uint16()
	if d.err != nil {
		return nil, fmt.Errorf("wire: truncated payload: %w", d.err)
	}
	if id == idNil {
		if len(d.buf) != d.off {
			return nil, fmt.Errorf("wire: %d trailing bytes after nil payload", len(d.buf)-d.off)
		}
		return nil, nil
	}
	c, ok := lookupID(id)
	if !ok {
		return nil, fmt.Errorf("wire: unknown type id %d", id)
	}
	v := c.dec(d)
	if d.err != nil {
		return nil, fmt.Errorf("wire: decode %s: %w", c.name, d.err)
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("wire: decode %s: %d trailing bytes", c.name, len(d.buf)-d.off)
	}
	return v, nil
}

// MarshalTo appends msg's [u16 type id][body] encoding to e — Marshal for
// callers assembling a larger frame in one (typically pooled) buffer, so the
// payload needs no intermediate allocation before it joins its headers.
func MarshalTo(e *Encoder, msg any) error {
	if msg == nil {
		e.Uint16(idNil)
		return nil
	}
	c, ok := lookupType(msg)
	if !ok {
		return fmt.Errorf("%w: %T", ErrUnregistered, msg)
	}
	e.Uint16(c.id)
	c.enc(e, msg)
	return nil
}

// Size returns the exact marshaled size of msg in bytes; ok is false when
// msg's type has no codec.
func Size(msg any) (int, bool) {
	if msg == nil {
		return 2, true
	}
	c, ok := lookupType(msg)
	if !ok {
		return 0, false
	}
	var e Encoder
	e.Uint16(c.id)
	c.enc(&e, msg)
	return len(e.buf), true
}

// TypeNames lists registered codec names by id (diagnostics and audits).
func TypeNames() map[uint16]string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make(map[uint16]string, len(byID))
	for id, c := range byID {
		out[id] = c.name
	}
	return out
}

// Encoder appends big-endian primitives to a growing buffer.
type Encoder struct {
	buf []byte
}

// Bytes returns the encoded buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes encoded so far — an offset callers record
// before a section they will length-patch with FixUint32.
func (e *Encoder) Len() int { return len(e.buf) }

// Truncate shortens the buffer to n bytes, keeping capacity, so a caller can
// undo a partially appended section (say, a payload whose codec failed
// mid-encode) and append something else instead.
func (e *Encoder) Truncate(n int) { e.buf = e.buf[:n] }

// FixUint32 overwrites the four bytes at off with v — for back-patching a
// length prefix once the section it describes has been appended.
func (e *Encoder) FixUint32(off int, v uint32) {
	binary.BigEndian.PutUint32(e.buf[off:off+4], v)
}

// maxPooledBuf caps the capacity an encoder carries back into the pool; a
// one-off multi-megabyte payload must not pin its buffer forever.
const maxPooledBuf = 1 << 20

var encPool sync.Pool

// GetEncoder returns a pooled encoder, emptied but with its previous
// capacity retained — the hot-path alternative to a fresh Encoder per frame.
// Pair with PutEncoder once the encoded bytes have been consumed.
func GetEncoder() *Encoder {
	if v := encPool.Get(); v != nil {
		e := v.(*Encoder)
		e.buf = e.buf[:0]
		return e
	}
	return new(Encoder)
}

// PutEncoder returns e to the pool. The caller must not touch e or its
// Bytes afterwards.
func PutEncoder(e *Encoder) {
	if cap(e.buf) > maxPooledBuf {
		e.buf = nil
	}
	encPool.Put(e)
}

// Uint8 appends one byte.
func (e *Encoder) Uint8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends a bool as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.Uint8(1)
	} else {
		e.Uint8(0)
	}
}

// Uint16 appends a big-endian uint16.
func (e *Encoder) Uint16(v uint16) {
	e.buf = binary.BigEndian.AppendUint16(e.buf, v)
}

// Uint32 appends a big-endian uint32.
func (e *Encoder) Uint32(v uint32) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
}

// Uint64 appends a big-endian uint64.
func (e *Encoder) Uint64(v uint64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

// Int32 appends a big-endian int32.
func (e *Encoder) Int32(v int32) { e.Uint32(uint32(v)) }

// Int64 appends a big-endian int64.
func (e *Encoder) Int64(v int64) { e.Uint64(uint64(v)) }

// nilLen marks a nil byte slice in a length prefix, distinguishing it from
// an empty one (message semantics sometimes hang on the difference, e.g. a
// CAS condition requiring absence).
const nilLen = math.MaxUint32

// RawBytes appends a length-prefixed byte string, preserving nil-ness.
func (e *Encoder) RawBytes(b []byte) {
	if b == nil {
		e.Uint32(nilLen)
		return
	}
	e.Uint32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uint32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Decoder consumes big-endian primitives from a buffer. The first error
// sticks: every later read returns zero values, and Unmarshal surfaces the
// sticky error, so codecs read fields unconditionally without checking.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps data for decoding — for transports parsing their own
// frame headers outside Marshal/Unmarshal.
func NewDecoder(data []byte) *Decoder { return &Decoder{buf: data} }

// DecoderFor is NewDecoder by value: hot paths declare the decoder as a
// local so it stays off the heap.
func DecoderFor(data []byte) Decoder { return Decoder{buf: data} }

// Err returns the sticky decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of bytes left to decode, so a codec can size
// a count-prefixed slice by what the buffer can actually hold.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) fail() {
	if d.err == nil {
		d.err = io.ErrUnexpectedEOF
	}
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.buf) {
		d.fail()
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// Uint8 reads one byte.
func (d *Decoder) Uint8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a one-byte bool.
func (d *Decoder) Bool() bool { return d.Uint8() != 0 }

// Uint16 reads a big-endian uint16.
func (d *Decoder) Uint16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// Uint32 reads a big-endian uint32.
func (d *Decoder) Uint32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// Uint64 reads a big-endian uint64.
func (d *Decoder) Uint64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Int32 reads a big-endian int32.
func (d *Decoder) Int32() int32 { return int32(d.Uint32()) }

// Int64 reads a big-endian int64.
func (d *Decoder) Int64() int64 { return int64(d.Uint64()) }

// RawBytes reads a length-prefixed byte string (a copy; the decode buffer
// is not retained), preserving nil-ness.
func (d *Decoder) RawBytes() []byte {
	n := d.Uint32()
	if d.err != nil || n == nilLen {
		return nil
	}
	b := d.take(int(n))
	if d.err != nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// RawBytesView is RawBytes without the copy: the returned slice aliases the
// decode buffer, so it is only valid until the buffer is reused. Transports
// use it to hand a frame's payload straight to Unmarshal (whose codecs copy
// whatever they keep) without an intermediate allocation.
func (d *Decoder) RawBytesView() []byte {
	n := d.Uint32()
	if d.err != nil || n == nilLen {
		return nil
	}
	return d.take(int(n))
}

// StringView reads a length-prefixed string as a byte view aliasing the
// decode buffer — String without the allocation, for consumers that only
// key a map lookup or compare before the buffer is reused.
func (d *Decoder) StringView() []byte {
	n := d.Uint32()
	if d.err != nil || n == nilLen {
		d.fail()
		return nil
	}
	return d.take(int(n))
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.Uint32()
	if d.err != nil || n == nilLen {
		d.fail()
		return ""
	}
	return string(d.take(int(n)))
}

func init() {
	Register(idString, "string",
		func(e *Encoder, v string) { e.String(v) },
		func(d *Decoder) string { return d.String() })
	Register(idBytes, "bytes",
		func(e *Encoder, v []byte) { e.RawBytes(v) },
		func(d *Decoder) []byte { return d.RawBytes() })
	Register(idInt64, "int64",
		func(e *Encoder, v int64) { e.Int64(v) },
		func(d *Decoder) int64 { return d.Int64() })
}

// Error codes registered for cross-process error taxonomy (see errors.go).
var (
	errMu        sync.RWMutex
	errSentinels []errSentinel
	errByCode    = make(map[uint16]error)
)

type errSentinel struct {
	code uint16
	err  error
}

// RegisterError associates a sentinel error with a stable code so that
// errors.Is keeps working across a process boundary. Like Register, meant
// for package init; duplicate codes panic.
func RegisterError(code uint16, sentinel error) {
	if code == 0 {
		panic("wire: error code 0 is reserved for plain errors")
	}
	errMu.Lock()
	defer errMu.Unlock()
	if prev, ok := errByCode[code]; ok {
		panic(fmt.Sprintf("wire: error code %d already registered to %q", code, prev))
	}
	errByCode[code] = sentinel
	errSentinels = append(errSentinels, errSentinel{code, sentinel})
	sort.Slice(errSentinels, func(i, j int) bool { return errSentinels[i].code < errSentinels[j].code })
}

// EncodeError appends err as [u16 code][string message]; code 0 carries
// errors with no registered sentinel in their chain.
func EncodeError(e *Encoder, err error) {
	var code uint16
	errMu.RLock()
	for _, s := range errSentinels {
		if errors.Is(err, s.err) {
			code = s.code
			break
		}
	}
	errMu.RUnlock()
	e.Uint16(code)
	e.String(err.Error())
}

// DecodeError reverses EncodeError. A known code decodes to an error whose
// chain includes the registered sentinel and whose message is preserved.
func DecodeError(d *Decoder) error {
	code := d.Uint16()
	msg := d.String()
	if d.err != nil {
		return d.err
	}
	if code == 0 {
		return errors.New(msg)
	}
	errMu.RLock()
	sentinel, ok := errByCode[code]
	errMu.RUnlock()
	if !ok {
		return errors.New(msg)
	}
	if msg == sentinel.Error() {
		return sentinel
	}
	return &sentinelError{msg: msg, sentinel: sentinel}
}

// sentinelError is a decoded error carrying both the remote message and the
// sentinel identity.
type sentinelError struct {
	msg      string
	sentinel error
}

func (e *sentinelError) Error() string { return e.msg }
func (e *sentinelError) Unwrap() error { return e.sentinel }
