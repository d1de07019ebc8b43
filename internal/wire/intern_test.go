package wire

import (
	"sync"
	"testing"
	"unsafe"
)

// testVocab is interned at init, as a package declaring its table and
// column names would.
var testVocab = []string{"wire-test-table", "wire-test-col"}

func init() { Intern(testVocab...) }

// Intern once anything has been decoded panics: a name added then would be
// interned by later decodes and not by earlier ones.
func TestInternAfterDecodePanics(t *testing.T) {
	data, err := Marshal("decoded-first")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(data); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intern after a decode did not panic")
		}
	}()
	Intern("too-late")
}

// Decoding a vocabulary name returns the interned copy itself, from any
// number of goroutines at once; a name outside the vocabulary is copied.
// Run under -race, the first case races the lookups that freeze a fresh
// vocabulary, and the second races decodes of the package's own.
func TestVocabularyConcurrentDecodes(t *testing.T) {
	const goroutines, rounds = 8, 200
	t.Run("freeze", func(t *testing.T) {
		var v vocabulary
		v.add(testVocab...)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					name := testVocab[i%len(testVocab)]
					s, ok := v.lookup([]byte(name))
					if !ok || unsafe.StringData(s) != unsafe.StringData(name) {
						t.Errorf("lookup(%q) = %q, %v; want the interned copy", name, s, ok)
						return
					}
					if _, ok := v.lookup([]byte("not-a-name")); ok {
						t.Errorf("lookup of a name never interned hit")
						return
					}
				}
			}()
		}
		wg.Wait()
		defer func() {
			if recover() == nil {
				t.Fatal("add after lookups did not panic")
			}
		}()
		v.add("too-late")
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
