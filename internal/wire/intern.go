package wire

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// The vocabulary is the handful of strings nearly every message carries —
// table and column names — declared once by the packages that own them.
// Decoder.String returns the vocabulary's own copy of such a string instead
// of allocating one per message; every other string is still copied.
//
// Packages declare their names from init, before anything decodes. The
// first string decoded freezes the vocabulary, and from then on it is only
// read, so any goroutine may decode without a lock. Intern after that
// panics: a name added later would be interned by some decodes and not by
// others.
type vocabulary struct {
	mu     sync.Mutex // serializes add against freeze
	frozen atomic.Bool
	names  map[string]string
	lens   uint64 // bit n is set when some name is n bytes long
}

// maxVocabLen bounds a vocabulary name's length, so that lens can reject
// most strings before the map is hashed.
const maxVocabLen = 63

var vocab vocabulary

// Intern adds names to the decoding vocabulary: from then on, decoding one
// of them returns a shared copy. Call it from package init. It panics once
// any string has been decoded, and on a name longer than 63 bytes.
func Intern(names ...string) { vocab.add(names...) }

func (v *vocabulary) add(names ...string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.frozen.Load() {
		panic("wire: Intern after the first decode; declare vocabulary in package init")
	}
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
}

// lookup returns the vocabulary's copy of b, freezing the vocabulary on
// first use.
func (v *vocabulary) lookup(b []byte) (string, bool) {
	if !v.frozen.Load() {
		v.mu.Lock()
		v.frozen.Store(true)
		v.mu.Unlock()
	}
	if len(b) > maxVocabLen || v.lens&(1<<len(b)) == 0 {
		return "", false
	}
	s, ok := v.names[string(b)]
	return s, ok
}
