package wire

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
)

// registry holds everything packages declare from init: codecs by id and by
// type, error sentinels by code, and the decoding vocabulary. The first
// encode or decode freezes it, and from then on it is only read, so any
// goroutine may encode and decode without a lock. Register, RegisterError
// and Intern after that panic: a codec, sentinel or name added later would
// serve some messages and not others.
type registry struct {
	mu     sync.Mutex // serializes every addition against freeze
	frozen atomic.Bool

	byID   []*codec // indexed by type id; nil where none is registered
	byType map[reflect.Type]*codec
	errs   []errSentinel // sorted by code
	vocab  vocabulary
}

var reg registry

type codec struct {
	id   uint16
	name string
	enc  func(*Encoder, any)
	dec  func(*Decoder) any
}

// errSentinel is one RegisterError entry.
type errSentinel struct {
	code uint16
	err  error
}

// The vocabulary is the handful of strings nearly every message carries —
// table and column names — declared once by the packages that own them.
// Decoder.String returns the vocabulary's own copy of such a string instead
// of allocating one per message; every other string is still copied.
type vocabulary struct {
	names map[string]string
	lens  uint64 // bit n is set when some name is n bytes long
}

// maxVocabLen bounds a vocabulary name's length, so that lens can reject
// most strings before the map is hashed.
const maxVocabLen = 63

// add runs fill, which adds to the registry, unless the registry is
// frozen, in which case it panics naming what came too late.
func (r *registry) add(what string, fill func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.frozen.Load() {
		panic(fmt.Sprintf("wire: %s after the first encode or decode; declare it in package init", what))
	}
	fill()
}

// freeze ends registration. Every lookup calls it first, so the tables are
// complete and immutable by the time anything reads them.
func (r *registry) freeze() {
	if !r.frozen.Load() {
		r.mu.Lock()
		r.frozen.Store(true)
		r.mu.Unlock()
	}
}

// Register installs the codec for message type T under the given id. It
// panics on a duplicate id or type — codecs are wired up in package init
// functions, so a collision is a programming error — and once anything has
// been encoded or decoded.
func Register[T any](id uint16, name string, enc func(*Encoder, T), dec func(*Decoder) T) {
	reg.register(reflect.TypeOf((*T)(nil)).Elem(), &codec{
		id:   id,
		name: name,
		enc:  func(e *Encoder, v any) { enc(e, v.(T)) },
		dec:  func(d *Decoder) any { return dec(d) },
	})
}

func (r *registry) register(rt reflect.Type, c *codec) {
	if rt.Kind() == reflect.Interface {
		panic("wire: cannot register interface type")
	}
	if c.id == idNil {
		panic("wire: type id 0 is reserved for nil")
	}
	r.add("Register", func() {
		if prev, ok := r.lookupIDLocked(c.id); ok {
			panic(fmt.Sprintf("wire: type id %d already registered to %s", c.id, prev.name))
		}
		if prev, ok := r.byType[rt]; ok {
			panic(fmt.Sprintf("wire: type %v already registered as %s", rt, prev.name))
		}
		if int(c.id) >= len(r.byID) {
			r.byID = append(r.byID, make([]*codec, int(c.id)+1-len(r.byID))...)
		}
		if r.byType == nil {
			r.byType = make(map[reflect.Type]*codec)
		}
		r.byID[c.id] = c
		r.byType[rt] = c
	})
}

func (r *registry) lookupType(msg any) (*codec, bool) {
	if msg == nil {
		return nil, false
	}
	r.freeze()
	c, ok := r.byType[reflect.TypeOf(msg)]
	return c, ok
}

func (r *registry) lookupID(id uint16) (*codec, bool) {
	r.freeze()
	return r.lookupIDLocked(id)
}

// lookupIDLocked is lookupID for a caller that holds r.mu or has frozen r.
func (r *registry) lookupIDLocked(id uint16) (*codec, bool) {
	if int(id) >= len(r.byID) || r.byID[id] == nil {
		return nil, false
	}
	return r.byID[id], true
}

// RegisterError associates a sentinel error with a stable code so that
// errors.Is keeps working across a process boundary. Like Register, meant
// for package init: duplicate codes panic, and so does a call once anything
// has been encoded or decoded.
func RegisterError(code uint16, sentinel error) { reg.registerError(code, sentinel) }

func (r *registry) registerError(code uint16, sentinel error) {
	if code == 0 {
		panic("wire: error code 0 is reserved for plain errors")
	}
	r.add("RegisterError", func() {
		if prev := r.sentinelLocked(code); prev != nil {
			panic(fmt.Sprintf("wire: error code %d already registered to %q", code, prev))
		}
		r.errs = append(r.errs, errSentinel{code, sentinel})
		sort.Slice(r.errs, func(i, j int) bool { return r.errs[i].code < r.errs[j].code })
	})
}

// errorCode returns the lowest code whose sentinel is in err's chain, or 0.
func (r *registry) errorCode(err error) uint16 {
	r.freeze()
	for _, s := range r.errs {
		if errors.Is(err, s.err) {
			return s.code
		}
	}
	return 0
}

// sentinel returns the sentinel registered under code, or nil.
func (r *registry) sentinel(code uint16) error {
	r.freeze()
	return r.sentinelLocked(code)
}

// sentinelLocked is sentinel for a caller that holds r.mu or has frozen r.
func (r *registry) sentinelLocked(code uint16) error {
	for _, s := range r.errs {
		if s.code == code {
			return s.err
		}
	}
	return nil
}

// Intern adds names to the decoding vocabulary: from then on, decoding one
// of them returns a shared copy. Call it from package init. It panics once
// anything has been encoded or decoded, and on a name longer than 63 bytes.
func Intern(names ...string) { reg.intern(names...) }

func (r *registry) intern(names ...string) {
	r.add("Intern", func() {
		v := &r.vocab
		if v.names == nil {
			v.names = make(map[string]string)
		}
		for _, s := range names {
			if len(s) > maxVocabLen {
				panic(fmt.Sprintf("wire: vocabulary name %q is longer than %d bytes", s, maxVocabLen))
			}
			v.names[s] = s
			v.lens |= 1 << len(s)
		}
	})
}

// lookupString returns the vocabulary's copy of b.
func (r *registry) lookupString(b []byte) (string, bool) {
	r.freeze()
	v := &r.vocab
	if len(b) > maxVocabLen || v.lens&(1<<len(b)) == 0 {
		return "", false
	}
	s, ok := v.names[string(b)]
	return s, ok
}
