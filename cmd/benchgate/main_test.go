package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeDoc(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const baselineDoc = `{
  "experiment": "fastpath",
  "results": [
    {"workload": "1get1put", "config": "sync", "mean_us": 600000, "p99_us": 610000, "coord_read_bytes": 24080},
    {"workload": "1get1put", "config": "cache", "mean_us": 550000, "p99_us": 560000, "coord_read_bytes": 24080}
  ]
}`

func TestGatePassesWithinThreshold(t *testing.T) {
	base := writeDoc(t, "base.json", baselineDoc)
	cand := writeDoc(t, "cand.json", strings.ReplaceAll(baselineDoc, "600000", "630000"))
	if err := run([]string{"-baseline", base, "-candidate", cand}, os.Stdout); err != nil {
		t.Fatalf("5%% drift failed the gate: %v", err)
	}
}

func TestGateFailsOnSyntheticRegression(t *testing.T) {
	base := writeDoc(t, "base.json", baselineDoc)
	cand := writeDoc(t, "cand.json", baselineDoc)
	// The CI dry run: identical measurements inflated 20% must fail.
	err := run([]string{"-baseline", base, "-candidate", cand, "-inflate", "1.2"}, os.Stdout)
	if err == nil {
		t.Fatal("20% synthetic regression passed the gate")
	}
	if !strings.Contains(err.Error(), "regressed") {
		t.Fatalf("unexpected gate error: %v", err)
	}
}

func TestGateHonorsAbsoluteFloor(t *testing.T) {
	// A 50% relative regression on a 1ms metric is below the 2ms absolute
	// floor — real-time measurement noise, not a regression.
	base := writeDoc(t, "base.json", `{
  "experiment": "transport",
  "results": [{"op": "acquireLock", "backend": "tcp", "mean_us": 1000, "p99_us": 1200}]
}`)
	cand := writeDoc(t, "cand.json", `{
  "experiment": "transport",
  "results": [{"op": "acquireLock", "backend": "tcp", "mean_us": 1500, "p99_us": 1900}]
}`)
	if err := run([]string{"-baseline", base, "-candidate", cand}, os.Stdout); err != nil {
		t.Fatalf("sub-floor drift failed the gate: %v", err)
	}
	if err := run([]string{"-baseline", base, "-candidate", cand, "-min-delta-us", "100"}, os.Stdout); err == nil {
		t.Fatal("50% regression passed with the floor lowered")
	}
}

const scaleDoc = `{
  "experiment": "scale",
  "results": [
    {"shards": "1", "ops_per_sec": 4000, "mean_us": 44000, "p99_us": 45000},
    {"shards": "4", "ops_per_sec": 14000, "mean_us": 12000, "p99_us": 18000}
  ]
}`

func TestGateFailsOnThroughputDrop(t *testing.T) {
	base := writeDoc(t, "base.json", scaleDoc)
	// 4-shard throughput down 30%; latencies unchanged.
	cand := writeDoc(t, "cand.json", strings.ReplaceAll(scaleDoc, `"ops_per_sec": 14000`, `"ops_per_sec": 9800`))
	var out strings.Builder
	err := run([]string{"-baseline", base, "-candidate", cand}, &out)
	if err == nil {
		t.Fatalf("30%% throughput drop passed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "ops_per_sec") {
		t.Fatalf("regression report missing ops_per_sec:\n%s", out.String())
	}
}

func TestGateAllowsThroughputGain(t *testing.T) {
	base := writeDoc(t, "base.json", scaleDoc)
	cand := writeDoc(t, "cand.json", strings.ReplaceAll(scaleDoc, `"ops_per_sec": 14000`, `"ops_per_sec": 20000`))
	var out strings.Builder
	if err := run([]string{"-baseline", base, "-candidate", cand}, &out); err != nil {
		t.Fatalf("throughput improvement failed the gate: %v\n%s", err, out.String())
	}
}

func TestGateThroughputAbsoluteFloor(t *testing.T) {
	// A 50% relative drop that is only 5 ops/s absolute stays under the
	// default -min-delta-per-sec floor.
	base := writeDoc(t, "base.json", `{
  "experiment": "scale",
  "results": [{"shards": "1", "ops_per_sec": 10, "p99_us": 45000}]
}`)
	cand := writeDoc(t, "cand.json", `{
  "experiment": "scale",
  "results": [{"shards": "1", "ops_per_sec": 5, "p99_us": 45000}]
}`)
	if err := run([]string{"-baseline", base, "-candidate", cand}, os.Stdout); err != nil {
		t.Fatalf("sub-floor throughput drop failed the gate: %v", err)
	}
	if err := run([]string{"-baseline", base, "-candidate", cand, "-min-delta-per-sec", "1"}, os.Stdout); err == nil {
		t.Fatal("drop above a 1 ops/s floor passed")
	}
}

func TestGateInflateWorsensThroughput(t *testing.T) {
	// The CI dry run must catch throughput regressions too: -inflate divides
	// *_per_sec while it multiplies *_us, so identical artifacts fail on
	// both metric kinds.
	base := writeDoc(t, "base.json", scaleDoc)
	cand := writeDoc(t, "cand.json", scaleDoc)
	var out strings.Builder
	err := run([]string{"-baseline", base, "-candidate", cand, "-inflate", "1.2"}, &out)
	if err == nil {
		t.Fatalf("-inflate 1.2 on identical scale artifacts passed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "ops_per_sec") {
		t.Fatalf("inflate did not worsen throughput:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "p99_us") {
		t.Fatalf("inflate did not worsen latency:\n%s", out.String())
	}
}

func TestGateFailsOnMissingCandidateRow(t *testing.T) {
	// A configuration deleted or renamed since the baseline was taken must not
	// leave the gate green on the rows that happen to remain.
	base := writeDoc(t, "base.json", baselineDoc)
	cand := writeDoc(t, "cand.json", strings.ReplaceAll(baselineDoc, `"config": "cache"`, `"config": "held"`))
	var out strings.Builder
	err := run([]string{"-baseline", base, "-candidate", cand}, &out)
	if err == nil {
		t.Fatalf("renamed config passed against its old baseline:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "MISSING: fastpath [config=cache workload=1get1put]") {
		t.Fatalf("report does not name the unmeasured baseline row:\n%s", out.String())
	}
}

func TestGateRejectsMismatchedExperiments(t *testing.T) {
	base := writeDoc(t, "base.json", baselineDoc)
	cand := writeDoc(t, "cand.json", strings.ReplaceAll(baselineDoc, "fastpath", "transport"))
	if err := run([]string{"-baseline", base, "-candidate", cand}, os.Stdout); err == nil {
		t.Fatal("mismatched experiments accepted")
	}
}
