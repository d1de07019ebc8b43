package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatalf("-list: %v", err)
	}
}

func TestRunRequiresExperiments(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("no -exp accepted")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-exp", "fig99"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunTable2BothFormats(t *testing.T) {
	if err := run([]string{"-exp", "table2", "-quick", "-quiet"}); err != nil {
		t.Fatalf("table2: %v", err)
	}
	if err := run([]string{"-exp", "table2", "-quick", "-quiet", "-markdown"}); err != nil {
		t.Fatalf("table2 markdown: %v", err)
	}
}

// TestRunRefusesJSONItCannotWrite: one JSON path holds one experiment's
// results, so a selection of several experiments, or of one that writes no
// results, is refused before anything runs rather than keeping only the
// last envelope or writing nothing.
func TestRunRefusesJSONItCannotWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	for _, exp := range []string{"fastpath,scale", "table2"} {
		if err := run([]string{"-exp", exp, "-quick", "-quiet", "-json", path}); err == nil {
			t.Errorf("-exp %s -json accepted", exp)
		}
	}
	if _, err := os.Stat(path); err == nil {
		t.Error("a refused selection wrote its JSON")
	}
}
