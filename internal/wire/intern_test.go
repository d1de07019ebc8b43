package wire

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"unsafe"
)

// testVocab is interned at init, as a package declaring its table and
// column names would.
var testVocab = []string{"wire-test-table", "wire-test-col"}

func init() { Intern(testVocab...) }

// Registration once anything has been decoded panics, whichever table it
// would add to: a codec, sentinel or name added then would serve later
// messages and not earlier ones.
func TestInternAfterDecodePanics(t *testing.T) {
	data, err := Marshal("decoded-first")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(data); err != nil {
		t.Fatal(err)
	}
	type tooLate struct{}
	for name, register := range map[string]func(){
		"Intern": func() { Intern("too-late") },
		"Register": func() {
			Register(999, "wire.tooLate", func(*Encoder, tooLate) {}, func(*Decoder) tooLate { return tooLate{} })
		},
		"RegisterError": func() { RegisterError(999, errors.New("too late")) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after a decode did not panic", name)
				}
			}()
			register()
		}()
	}
	if _, ok := reg.lookupID(999); ok {
		t.Error("a Register that panicked left its codec behind")
	}
}

// Decoding a vocabulary name returns the interned copy itself, from any
// number of goroutines at once; a name outside the vocabulary is copied.
// Run under -race, the first case races the lookups that freeze a fresh
// registry, and the second races decodes of the package's own.
func TestVocabularyConcurrentDecodes(t *testing.T) {
	const goroutines, rounds = 8, 200
	t.Run("freeze", func(t *testing.T) {
		var r registry
		r.intern(testVocab...)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					name := testVocab[i%len(testVocab)]
					s, ok := r.lookupString([]byte(name))
					if !ok || unsafe.StringData(s) != unsafe.StringData(name) {
						t.Errorf("lookup(%q) = %q, %v; want the interned copy", name, s, ok)
						return
					}
					if _, ok := r.lookupString([]byte("not-a-name")); ok {
						t.Errorf("lookup of a name never interned hit")
						return
					}
				}
			}()
		}
		wg.Wait()
		defer func() {
			if recover() == nil {
				t.Fatal("intern after lookups did not panic")
			}
		}()
		r.intern("too-late")
	})
	t.Run("decode", func(t *testing.T) {
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					name := testVocab[i%len(testVocab)]
					data, err := Marshal(testMsg{S: name, Raw: []byte(name)})
					if err != nil {
						t.Error(err)
						return
					}
					v, err := Unmarshal(data)
					if err != nil {
						t.Error(err)
						return
					}
					if got := v.(testMsg).S; unsafe.StringData(got) != unsafe.StringData(name) {
						t.Errorf("decoded %q is not the interned copy", got)
						return
					}
				}
			}()
		}
		wg.Wait()
	})
}

// The codec and error tables freeze with the vocabulary, on the first
// lookup of any of them, and are read without a lock from then on. Run
// under -race, lookups from many goroutines race the freeze of a fresh
// registry; registration after them panics.
func TestRegistryConcurrentLookups(t *testing.T) {
	type msg struct{ N int }
	errBusy := errors.New("busy")
	var r registry
	r.register(reflect.TypeOf(msg{}), &codec{id: 7, name: "msg"})
	r.registerError(3, errBusy)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if c, ok := r.lookupType(msg{i}); !ok || c.id != 7 {
					t.Errorf("lookupType = %v, %v; want id 7", c, ok)
					return
				}
				if c, ok := r.lookupID(7); !ok || c.name != "msg" {
					t.Errorf("lookupID(7) = %v, %v; want msg", c, ok)
					return
				}
				if _, ok := r.lookupID(8); ok {
					t.Error("lookupID of an id never registered hit")
					return
				}
				if code := r.errorCode(fmt.Errorf("wrapped: %w", errBusy)); code != 3 {
					t.Errorf("errorCode = %d, want 3", code)
					return
				}
				if s := r.sentinel(3); s != errBusy {
					t.Errorf("sentinel(3) = %v, want %v", s, errBusy)
					return
				}
			}
		}()
	}
	wg.Wait()
	for name, register := range map[string]func(){
		"register":      func() { r.register(reflect.TypeOf(0), &codec{id: 8, name: "int"}) },
		"registerError": func() { r.registerError(4, errors.New("late")) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after lookups did not panic", name)
				}
			}()
			register()
		}()
	}
}
