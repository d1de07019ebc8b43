package explore

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// exploreSeeds returns the exploration batch's seed set: MUSIC_EXPLORE_SEEDS
// (a comma-separated list, how scripts/check.sh and the CI history-explore
// job pin the batch) or a fixed default, trimmed under -short.
func exploreSeeds(t *testing.T) []int64 {
	t.Helper()
	if env := os.Getenv("MUSIC_EXPLORE_SEEDS"); env != "" {
		var seeds []int64
		for _, part := range strings.Split(env, ",") {
			s, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
			if err != nil {
				t.Fatalf("MUSIC_EXPLORE_SEEDS: bad seed %q: %v", part, err)
			}
			seeds = append(seeds, s)
		}
		return seeds
	}
	seeds := make([]int64, 20)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	if testing.Short() {
		seeds = seeds[:5]
	}
	return seeds
}

// TestExplorePinnedSeeds is the deterministic exploration batch: every
// pinned schedule must complete inside its virtual-time budget with a
// history the ECF + linearizability checkers accept. A failure here means
// either a protocol regression or a checker regression; the repro rendering
// in the failure message is self-contained either way. With
// MUSIC_EXPLORE_REPRO_DIR set, each violation's minimized repro is also
// written there — the nightly CI job uploads that directory as an artifact.
func TestExplorePinnedSeeds(t *testing.T) {
	seeds := exploreSeeds(t)
	reproDir := os.Getenv("MUSIC_EXPLORE_REPRO_DIR")
	classes := make(map[FaultKind]bool)
	for _, out := range Explore(seeds) {
		for k := range out.Script.Classes() {
			classes[k] = true
		}
		if out.Violating() {
			_, mout := Minimize(out.Script)
			repro := mout.Repro()
			if reproDir != "" {
				path := filepath.Join(reproDir, fmt.Sprintf("repro-seed-%d.txt", out.Script.Seed))
				if err := os.WriteFile(path, []byte(repro), 0o644); err != nil {
					t.Errorf("writing repro: %v", err)
				}
			}
			t.Errorf("seed %d violating:\n%s", out.Script.Seed, repro)
		}
	}
	if os.Getenv("MUSIC_EXPLORE_SEEDS") == "" && !testing.Short() && len(classes) < 4 {
		t.Errorf("default pinned batch covers %d fault classes (%v), want all 4", len(classes), classes)
	}
}

// TestExploreCampaign runs a 500-seed randomized campaign — the acceptance
// bar for the explorer: every schedule checks clean and the generator's
// draw covers all four fault classes.
func TestExploreCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("500-seed campaign skipped under -short")
	}
	classes := make(map[FaultKind]int)
	violating := 0
	for seed := int64(1); seed <= 500; seed++ {
		s := Generate(seed)
		for k := range s.Classes() {
			classes[k]++
		}
		if out := Run(s); out.Violating() {
			violating++
			if violating <= 3 {
				t.Errorf("seed %d violating: runErr=%v violations=%v", seed, out.RunErr, out.Result.Violations)
			}
		}
	}
	if violating > 0 {
		t.Errorf("%d/500 schedules violating", violating)
	}
	for _, k := range []FaultKind{FaultCrash, FaultPartition, FaultLoss, FaultSkew} {
		if classes[k] == 0 {
			t.Errorf("fault class %s never drawn across 500 seeds", k)
		}
	}
	t.Logf("campaign class coverage: %v", classes)
}

// mutationSeed is the schedule the injected-bug tests run: the lowest seed
// that draws a skew window (so the forced-release + synchronize-on-next-grant
// path is exercised), checks clean unmutated, and on which both core-layer
// mutations are observable. Whether a mutation is observable depends on the
// interleaving, so a change that moves when waiters poll can move this seed:
// it was 14 while waiters woke on the poll timer, and became 2 when they
// started waking on the lock row's commit (14 still checks clean and still
// shows frozenElapsed, but skipSynchronize is no longer observable on it).
const mutationSeed = 2

// TestExploreDetectsInjectedViolations validates the checker end to end:
// running the same schedule with a deliberately broken protocol (the
// core-layer mutations) must surface the specific ECF rule the mutation
// breaks, and the unmutated run of that schedule must stay clean.
func TestExploreDetectsInjectedViolations(t *testing.T) {
	base := Generate(mutationSeed)
	if !base.Classes()[FaultSkew] {
		t.Fatalf("seed %d no longer draws a skew window; pick a new pinned seed", mutationSeed)
	}
	if out := Run(base); out.Violating() {
		t.Fatalf("unmutated seed %d violating:\n%s", mutationSeed, out.Repro())
	}

	cases := []struct {
		name     string
		mutation core.Mutation
		rule     string
	}{
		{"skipSynchronize", core.MutationSkipSynchronize, "sync-skip"},
		{"frozenElapsed", core.MutationFrozenElapsed, "ts-order"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base
			s.Mutation = tc.mutation
			out := Run(s)
			if !out.Violating() {
				t.Fatalf("mutation %v on seed %d not detected; pick a new pinned seed (see mutationSeed)", tc.mutation, mutationSeed)
			}
			found := false
			for _, v := range out.Result.Violations {
				if v.Rule == tc.rule {
					found = true
					if len(v.Ops) == 0 {
						t.Errorf("violation %s reported without offending ops", v.Rule)
					}
				}
			}
			if !found {
				t.Errorf("mutation %v: rule %q not among violations %v", tc.mutation, tc.rule, out.Result.Violations)
			}
		})
	}
}

// TestMinimizeRepro shrinks a violating schedule and checks the reduced
// script still violates and renders a self-contained repro.
func TestMinimizeRepro(t *testing.T) {
	s := Generate(mutationSeed)
	s.Mutation = core.MutationSkipSynchronize
	min, out := Minimize(s)
	if !out.Violating() {
		t.Fatalf("minimized script no longer violating")
	}
	if len(min.Faults) > len(s.Faults) || len(min.Clients) > len(s.Clients) {
		t.Errorf("minimize grew the script: %d faults / %d clients (was %d / %d)",
			len(min.Faults), len(min.Clients), len(s.Faults), len(s.Clients))
	}
	repro := out.Repro()
	for _, want := range []string{fmt.Sprintf("explore repro: seed=%d", mutationSeed), "fault script:", "clients:", "violation:", "history:"} {
		if !strings.Contains(repro, want) {
			t.Errorf("repro missing %q:\n%s", want, repro)
		}
	}
}

// TestGeneratePinnedSeedsGolden pins Generate for the 20 seeds the gate
// explores: the campaign's value is that seed n names one schedule forever,
// so a change to the generator's draws (a dropped field, a reordered
// rng call) must fail here rather than silently re-deal every pinned seed.
// One line per seed, the %+v of its Script.
func TestGeneratePinnedSeedsGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "generate_seeds.golden"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(lines) != 20 {
		t.Fatalf("golden file has %d lines, want 20", len(lines))
	}
	for i, line := range lines {
		if got := fmt.Sprintf("%+v", Generate(int64(i+1))); got != line {
			t.Errorf("Generate(%d) changed:\n got %s\nwant %s", i+1, got, line)
		}
	}
}
