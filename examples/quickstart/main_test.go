package main

import (
	"strings"
	"testing"
)

// TestQuickstart runs the example end to end (virtual-time cluster, local
// profile) and checks the counter reaches 1 explicit + 3 RunCritical
// increments.
func TestQuickstart(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	if !strings.Contains(s, "explicit critical section: counter 0 -> 1") {
		t.Errorf("missing explicit section line:\n%s", s)
	}
	if !strings.Contains(s, "final counter: 4") {
		t.Errorf("final counter != 4:\n%s", s)
	}
}
