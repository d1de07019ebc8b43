package explore

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// memberSeeds returns the membership-churn batch's seed set:
// MUSIC_MEMBER_SEEDS (comma-separated, how scripts/check.sh and the nightly
// CI job pin or randomize the batch) or a fixed default, trimmed under
// -short.
func memberSeeds(t *testing.T) []int64 {
	t.Helper()
	if env := os.Getenv("MUSIC_MEMBER_SEEDS"); env != "" {
		var seeds []int64
		for _, part := range strings.Split(env, ",") {
			s, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
			if err != nil {
				t.Fatalf("MUSIC_MEMBER_SEEDS: bad seed %q: %v", part, err)
			}
			seeds = append(seeds, s)
		}
		return seeds
	}
	seeds := make([]int64, 12)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	if testing.Short() {
		seeds = seeds[:4]
	}
	return seeds
}

// TestChurnPinnedSeeds is the deterministic membership-churn batch: every
// pinned schedule reconfigures a live dynamic cluster mid-workload and must
// complete inside its virtual-time budget with a history all ECF checkers —
// including the epoch rules — accept. With MUSIC_EXPLORE_REPRO_DIR set, each
// violation's minimized repro is written there for the CI artifact upload.
func TestChurnPinnedSeeds(t *testing.T) {
	seeds := memberSeeds(t)
	reproDir := os.Getenv("MUSIC_EXPLORE_REPRO_DIR")
	classes := make(map[string]bool)
	for _, out := range ExploreChurn(seeds) {
		for k := range out.Script.ChurnClasses() {
			classes[k] = true
		}
		if out.Violating() {
			_, mout := Minimize(out.Script)
			repro := mout.Repro()
			if reproDir != "" {
				path := filepath.Join(reproDir, fmt.Sprintf("repro-churn-seed-%d.txt", out.Script.Seed))
				if err := os.WriteFile(path, []byte(repro), 0o644); err != nil {
					t.Errorf("writing repro: %v", err)
				}
			}
			t.Errorf("churn seed %d violating:\n%s", out.Script.Seed, repro)
		}
	}
	if os.Getenv("MUSIC_MEMBER_SEEDS") == "" && !testing.Short() && len(classes) < 3 {
		t.Errorf("default pinned churn batch covers ops %v, want join, retire, and replace", classes)
	}
}

// TestChurnReplaysFromSeed backs the claim that any churn violation replays
// from its logged seed: running one seed's schedule twice in one process
// must record the same history op for op. Map-order iteration on the
// reconfiguration path (state transfer after an epoch change) breaks it, so
// scripts/check.sh runs this test more than once.
func TestChurnReplaysFromSeed(t *testing.T) {
	for _, seed := range memberSeeds(t) {
		a, b := Run(GenerateChurn(seed)), Run(GenerateChurn(seed))
		if reflect.DeepEqual(a.Ops, b.Ops) {
			continue
		}
		i := 0
		for i < len(a.Ops) && i < len(b.Ops) && reflect.DeepEqual(a.Ops[i], b.Ops[i]) {
			i++
		}
		t.Errorf("churn seed %d diverges on replay at op %d of %d/%d", seed, i, len(a.Ops), len(b.Ops))
	}
}

// TestGenerateChurnDeterministic pins the generator contract behind seed
// replay: the same seed must yield an identical script, and churn scripts
// must not perturb the byte-stable classic generator.
func TestGenerateChurnDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		a, b := GenerateChurn(seed), GenerateChurn(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d not deterministic:\n%+v\n%+v", seed, a, b)
		}
		if len(a.Spares) == 0 || len(a.Membership) == 0 {
			t.Fatalf("seed %d churn script has no spares/membership: %+v", seed, a)
		}
	}
	if g := Generate(1); len(g.Spares) != 0 || len(g.Membership) != 0 {
		t.Fatalf("classic Generate grew churn fields: %+v", g)
	}
}

// TestGenerateChurnScenarioCoverage checks the generator's draw reaches all
// three mandated reconfiguration scenarios across a modest seed range, and
// that replace events always ride inside an open fault window.
func TestGenerateChurnScenarioCoverage(t *testing.T) {
	classes := make(map[string]int)
	for seed := int64(1); seed <= 60; seed++ {
		s := GenerateChurn(seed)
		for k := range s.ChurnClasses() {
			classes[k]++
		}
		for _, ev := range s.Membership {
			if ev.Op != "replace" {
				continue
			}
			inWindow := false
			for _, f := range s.Faults {
				if (f.Kind == FaultPartition || f.Kind == FaultCrash) && ev.At >= f.At && ev.At < f.At+f.For {
					inWindow = true
				}
			}
			if !inWindow {
				t.Errorf("seed %d: replace at %v outside any crash/partition window", seed, ev.At)
			}
		}
	}
	for _, op := range []string{"join", "retire", "replace"} {
		if classes[op] == 0 {
			t.Errorf("op %s never drawn across 60 seeds", op)
		}
	}
	t.Logf("churn scenario coverage: %v", classes)
}
