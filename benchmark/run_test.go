package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in spec.go and workload.go")

// TestWANRunsAreDeterministic: the virtual-time workloads are functions of
// the seed and nothing else, so two runs with one seed agree to the byte and
// another seed gives other numbers. setup_s and section_cpu_us are wall-clock
// measurements of the simulator itself and are left out of the comparison.
func TestWANRunsAreDeterministic(t *testing.T) {
	virtual := func(r *runResult) string {
		m := make(map[string]metricValue)
		for name, v := range r.Metrics {
			if name != "setup_s" && name != "section_cpu_us" {
				m[name] = v
			}
		}
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	for _, name := range []string{"wan_section", "wan_contended"} {
		w, _ := workloadByName(name)
		run := func(seed int64) string {
			r, err := runWorkload(w, seed, 1, false)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if !r.Correct {
				t.Fatalf("%s seed %d: %d operations failed: %v", name, seed, r.Failed, r.Errors)
			}
			return virtual(r)
		}
		a, b, c := run(7), run(7), run(8)
		if a != b {
			t.Errorf("%s: two runs with seed 7 differ:\n%s\n%s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave identical metrics", name)
		}
	}
}

// TestEveryWorkloadReportsEveryMetric runs each workload briefly, untraced
// and traced: outputs must check out, every metric of the dictionary must be
// present with its unit, and no end-to-end metric may be zero.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all five workloads twice")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			r, err := runWorkload(w, 3, 1, traced)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.Name, traced, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s traced=%t: correct=%t failed=%d attempted=%d: %v", w.Name, traced, r.Correct, r.Failed, r.Attempted, r.Errors)
			}
			dict := endToEndMetrics
			if traced {
				dict = layerMetrics
			}
			for _, m := range dict {
				v, ok := r.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s traced=%t: metric %s missing or in unit %q, want %q", w.Name, traced, m.Name, v.Unit, m.Unit)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, must be positive", w.Name, m.Name, v.Value)
				}
			}
			var line struct {
				Correct   *bool
				Attempted *int
				Failed    *int
				Metrics   map[string]map[string]any
			}
			if err := json.Unmarshal([]byte(contractLine(r)), &line); err != nil {
				t.Fatalf("%s: result line: %v", w.Name, err)
			}
			if line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(dict) {
				t.Errorf("%s traced=%t: result line carries %d metrics, want %d, or lacks a key", w.Name, traced, len(line.Metrics), len(dict))
			}
		}
	}
}

// benchmarkManifest renders BENCHMARK.json from the tables above, so the
// file the driver reads cannot drift from what the program reports (a test
// compares the two).
func benchmarkManifest() string {
	type workloadEntry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type boundedEntry struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerEntry struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string        `json:"command"`
		Paths      []string        `json:"paths"`
		RunSeconds int             `json:"run_seconds"`
		Workloads  []workloadEntry `json:"workloads"`
		EndToEnd   []boundedEntry  `json:"end_to_end"`
		PerLayer   []layerEntry    `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: nominalSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadEntry{w.Name, w.Why})
	}
	for _, m := range endToEndMetrics {
		doc.EndToEnd = append(doc.EndToEnd, boundedEntry{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range layerMetrics {
		doc.PerLayer = append(doc.PerLayer, layerEntry{m.Name, m.Unit, "lower"})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("benchmark: manifest: %v", err)) // strings and numbers always marshal
	}
	return string(out)
}

// TestManifestMatchesBenchmarkJSON keeps the file the driver reads equal to
// what the program's own tables say.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", []byte(benchmarkManifest()+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if got := benchmarkManifest(); strings.TrimSpace(string(onDisk)) != got {
		t.Errorf("BENCHMARK.json is stale; regenerate it with `go test -run TestManifestMatchesBenchmarkJSON -update`")
	}
	for _, w := range workloads {
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	seen := make(map[string]bool)
	for _, m := range append(append([]metric(nil), endToEndMetrics...), layerMetrics...) {
		if seen[m.Name] || len(m.Name) > 64 || len(m.Unit) > 16 {
			t.Errorf("metric %q: duplicate, or name/unit too long", m.Name)
		}
		seen[m.Name] = true
	}
	for _, m := range endToEndMetrics {
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("end-to-end metric %s: better %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g is outside the gate's (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// set builds a result file with the given values of one metric on one
// workload, everything else absent.
func set(workload, name string, values ...float64) resultFile {
	var f resultFile
	for i, v := range values {
		f.Runs = append(f.Runs, runResult{Workload: workload, Seed: int64(i + 1), Metrics: map[string]metricValue{name: {Value: v}}})
	}
	return f
}

func TestCompareVerdicts(t *testing.T) {
	verdict := func(base, change resultFile, workload, name string) compareRow {
		for _, r := range compareSets(base, change) {
			if r.Workload == workload && r.Metric == name {
				return r
			}
		}
		t.Fatalf("no row for %s × %s", workload, name)
		return compareRow{}
	}
	tight := []float64{500, 501, 502, 503, 504}
	for _, c := range []struct {
		why      string
		workload string
		metric   string
		base     []float64
		change   []float64
		want     string
	}{
		{"within the 15% bound", "tcp_section", "section_us_p50", tight, []float64{550, 551, 552, 553, 554}, verdictOK},
		{"20% slower, both sets steady", "tcp_section", "section_us_p50", tight, []float64{600, 601, 602, 603, 604}, verdictRegressed},
		{"20% faster", "tcp_section", "section_us_p50", tight, []float64{400, 401, 402, 403, 404}, verdictImproved},
		{"the change's own spread exceeds the bound", "tcp_section", "section_us_p50", tight, []float64{400, 480, 520, 560, 640}, verdictUnresolved},
		{"higher is better: 20% fewer sections", "tcp_section", "sections_per_s", []float64{2000, 2001, 2002}, []float64{1600, 1601, 1602}, verdictRegressed},
		{"set-up has the loosest bound", "tcp_section", setupS, []float64{0.100, 0.101, 0.102}, []float64{0.120, 0.121, 0.122}, verdictOK},
		{"2% slower passes on TCP", "tcp_section", "section_us_p50", tight, []float64{510, 511, 512, 513, 514}, verdictOK},
		{"2% slower is most of a WAN round on virtual time", "wan_section", "section_us_p50", tight, []float64{510, 511, 512, 513, 514}, verdictRegressed},
		{"same seeds on virtual time: the seeds' own spread is not noise", "wan_contended", "handoff_us_p50", []float64{44, 46, 48, 50, 52}, []float64{44, 46, 48.2, 50, 52}, verdictOK},
		{"other seeds on virtual time: now it is", "wan_contended", "handoff_us_p50", []float64{44, 46, 48, 50, 52}, []float64{44, 46, 48.2, 50}, verdictUnresolved},
		{"the simulator's CPU is wall-clock even on wan_*", "wan_section", "section_cpu_us", tight, []float64{510, 511, 512, 513, 514}, verdictOK},
		{"failures may not rise at all", "tcp_held", failedOpsFrac, []float64{0, 0, 0}, []float64{0, 0.001, 0.001}, verdictRegressed},
		{"no failures either side", "tcp_held", failedOpsFrac, []float64{0, 0, 0}, []float64{0, 0, 0}, verdictOK},
		{"absent from the change", "tcp_reuse", "reuse_slowdown", []float64{7, 7.1}, nil, verdictMissing},
	} {
		got := verdict(set(c.workload, c.metric, c.base...), set(c.workload, c.metric, c.change...), c.workload, c.metric)
		if got.Verdict != c.want {
			t.Errorf("%s: verdict %q (worse %+.3f, spreads %.3f/%.3f, bound %.2f), want %q",
				c.why, got.Verdict, got.Worse, got.BaseSpread, got.ChangeSpread, got.Bound, c.want)
		}
	}

	var out bytes.Buffer
	same := set("tcp_section", "section_us_p50", tight...)
	if bad := printCompare(&out, same, same, compareSets(same, same)); bad == 0 {
		t.Errorf("every other pairing is missing from these sets; printCompare must say so")
	}
	if !strings.Contains(out.String(), "tcp_section") || !strings.Contains(out.String(), verdictMissing) {
		t.Errorf("comparison table lacks its rows:\n%s", out.String())
	}
}

// TestKeyChoosers: wan_contended draws from 16 shared keys, skewed to the
// hottest and the same for one seed; tcp_reuse walks its 8 keys in turn;
// everything else mints a key per section.
func TestKeyChoosers(t *testing.T) {
	draw := func(name string, client int, seed int64, n int) []string {
		w, _ := workloadByName(name)
		k := newKeyChooser(w, client, seed, "run")
		keys := make([]string, n)
		for i := range keys {
			keys[i] = k.next()
		}
		return keys
	}
	count := func(keys []string) map[string]int {
		c := make(map[string]int)
		for _, k := range keys {
			c[k]++
		}
		return c
	}

	hot := draw("wan_contended", 0, 7, 3000)
	c := count(hot)
	if len(c) > 16 || c["run-s7-hot-0"] < 3*3000/16 {
		t.Errorf("wan_contended: %d distinct keys, hottest drawn %d of 3000 times; want ≤16 and well above a uniform share", len(c), c["run-s7-hot-0"])
	}
	if again := draw("wan_contended", 0, 7, 3000); strings.Join(hot, " ") != strings.Join(again, " ") {
		t.Errorf("wan_contended: one seed and client drew two key sequences")
	}
	if other := draw("wan_contended", 1, 7, 3000); strings.Join(hot, " ") == strings.Join(other, " ") {
		t.Errorf("wan_contended: two clients drew the same key sequence")
	}

	for key, n := range count(draw("tcp_reuse", 0, 7, 4000)) {
		if n != 500 {
			t.Errorf("tcp_reuse: key %s locked %d times in 4000 sections, want 500", key, n)
		}
	}
	if c := count(draw("tcp_section", 0, 7, 1000)); len(c) != 1000 {
		t.Errorf("tcp_section: %d distinct keys in 1000 sections, want a fresh one each", len(c))
	}
}
