package bench

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// wallClock lists the experiments whose output depends on real time and so
// has no golden: the explorer reports schedules per wall second, and soak
// drives real sockets and processes.
var wallClock = map[string]bool{"explore": true, "soak": true}

// quickRun is one experiment's quick-mode output: its tables and the JSON
// results it wrote, if any.
type quickRun struct {
	tables []Table
	json   []byte
}

var quickRuns = map[string]quickRun{}

// quick runs experiment id in quick mode once per test process and hands
// every later caller the same run, so the golden test and the shape tests
// read one set of tables and no experiment runs twice.
func quick(t *testing.T, id string) quickRun {
	t.Helper()
	if r, ok := quickRuns[id]; ok {
		return r
	}
	e, ok := Find(id)
	if !ok {
		t.Fatalf("experiment %s missing", id)
	}
	path := filepath.Join(t.TempDir(), id+".json")
	r := quickRun{tables: e.Run(Options{Quick: true, JSON: path})}
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		r.json = data
	case !errors.Is(err, fs.ErrNotExist):
		t.Fatal(err)
	}
	quickRuns[id] = r
	return r
}

// TestQuickGoldens byte-gates every virtual-time experiment: its quick text,
// rendered as musicbench prints it, must equal testdata/<id>.quick.txt, and
// the JSON it writes must equal testdata/<id>.quick.json. Virtual time makes
// both exact, so any change to a schedule, a random draw or a figure shows
// here as a diff against the file it moved.
func TestQuickGoldens(t *testing.T) {
	for _, e := range Experiments() {
		if wallClock[e.ID] {
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			r := quick(t, e.ID)
			regen := fmt.Sprintf("go run ./cmd/musicbench -exp %s -quick -quiet", e.ID)
			txt := filepath.Join("testdata", e.ID+".quick.txt")
			checkGolden(t, e.ID, txt, []byte(Render(r.tables, false)), regen+" > internal/bench/"+txt)

			golden := filepath.Join("testdata", e.ID+".quick.json")
			if _, err := os.Stat(golden); err != nil && r.json == nil {
				return
			}
			checkGolden(t, e.ID, golden, r.json, regen+" -json internal/bench/"+golden)
		})
	}
}

// checkGolden fails t, naming experiment id, unless got equals the golden
// file's bytes; the failure shows the differing lines and the command that
// regenerates the file when the change is intended.
func checkGolden(t *testing.T, id, golden string, got []byte, regen string) {
	t.Helper()
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%s: no golden: %v\nwrite it with:\n    %s", id, err, regen)
	}
	if bytes.Equal(got, want) {
		return
	}
	t.Errorf("%s: output differs from %s:\n%s\nif the change is intended, regenerate it with:\n    %s",
		id, golden, lineDiff(string(want), string(got)), regen)
}

// lineDiff lists the lines that differ, position by position, as
// -golden/+got pairs (the first 20).
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	shown := 0
	for i := 0; i < max(len(w), len(g)) && shown < 20; i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl == gl {
			continue
		}
		fmt.Fprintf(&b, "line %d:\n-%s\n+%s\n", i+1, wl, gl)
		shown++
	}
	return b.String()
}
