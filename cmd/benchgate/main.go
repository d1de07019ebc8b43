// Command benchgate compares a freshly measured BENCH_*.json artifact
// against its committed baseline and exits non-zero if any headline latency
// metric regressed beyond the threshold. It is the CI bench-regression
// gate:
//
//	musicbench -exp fastpath -json new.json
//	benchgate -baseline BENCH_fastpath.json -candidate new.json
//
// Rows are matched by their identity fields (every string-valued field:
// workload, config, op, backend, ...) and each numeric field ending in
// "_us" (lower is better) or "_per_sec" (higher is better) is compared. A
// latency metric regresses when it exceeds the baseline by more than
// -threshold (relative) AND by more than -min-delta-us (absolute); a
// throughput metric regresses when it falls below the baseline by more
// than -threshold AND by more than -min-delta-per-sec. The absolute floors
// keep noise in real-time-measured metrics from tripping the relative
// check. Improvements never fail. A baseline row with no candidate
// counterpart fails: a deleted or renamed configuration must refresh the
// baseline in the same change instead of silently leaving the gate.
//
// -inflate worsens every candidate metric before comparison (multiplies
// latencies, divides throughputs); CI uses -inflate 1.2 as a dry run
// proving the gate actually fails on a 20% regression.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

type doc struct {
	Experiment string           `json:"experiment"`
	Results    []map[string]any `json:"results"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	var (
		baseline   = fs.String("baseline", "", "committed baseline JSON (required)")
		candidate  = fs.String("candidate", "", "freshly measured JSON (required)")
		threshold  = fs.Float64("threshold", 0.10, "max allowed relative regression per metric")
		minDelta   = fs.Float64("min-delta-us", 2000, "ignore latency regressions smaller than this many µs")
		minDeltaPS = fs.Float64("min-delta-per-sec", 50, "ignore throughput regressions smaller than this many ops/s")
		inflate    = fs.Float64("inflate", 1.0, "worsen candidate metrics before comparing (CI dry-run)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *baseline == "" || *candidate == "" {
		return fmt.Errorf("both -baseline and -candidate are required")
	}
	base, err := load(*baseline)
	if err != nil {
		return err
	}
	cand, err := load(*candidate)
	if err != nil {
		return err
	}
	if base.Experiment != cand.Experiment {
		return fmt.Errorf("experiment mismatch: baseline %q vs candidate %q", base.Experiment, cand.Experiment)
	}

	baseRows := index(base.Results)
	var regressions []string
	checked := 0
	for _, row := range cand.Results {
		id := identity(row)
		bRow, ok := baseRows[id]
		if !ok {
			// New configurations have no baseline yet; the next baseline
			// refresh picks them up.
			fmt.Fprintf(out, "benchgate: %s [%s]: no baseline row, skipped\n", cand.Experiment, id)
			continue
		}
		delete(baseRows, id)
		for _, metric := range metricNames(row) {
			bVal, bOK := number(bRow[metric])
			cVal, cOK := number(row[metric])
			if !bOK || !cOK {
				continue
			}
			checked++
			if strings.HasSuffix(metric, "_per_sec") {
				// Higher is better: -inflate worsens by dividing.
				if *inflate != 0 {
					cVal /= *inflate
				}
				drop := bVal - cVal
				if bVal > 0 && drop > *minDeltaPS && drop/bVal > *threshold {
					regressions = append(regressions,
						fmt.Sprintf("%s [%s] %s: %.0f/s -> %.0f/s (-%.1f%%, threshold %.1f%%)",
							cand.Experiment, id, metric, bVal, cVal, 100*drop/bVal, 100**threshold))
				}
				continue
			}
			cVal *= *inflate
			delta := cVal - bVal
			if bVal > 0 && delta > *minDelta && delta/bVal > *threshold {
				regressions = append(regressions,
					fmt.Sprintf("%s [%s] %s: %.0fµs -> %.0fµs (+%.1f%%, threshold %.1f%%)",
						cand.Experiment, id, metric, bVal, cVal, 100*delta/bVal, 100**threshold))
			}
		}
	}
	if checked == 0 {
		return fmt.Errorf("no comparable metrics between %s and %s", *baseline, *candidate)
	}
	// Matched rows were deleted from baseRows above; what is left was not measured.
	for _, row := range base.Results {
		if id := identity(row); baseRows[id] != nil {
			fmt.Fprintf(out, "MISSING: %s [%s]: baseline row has no candidate row\n", base.Experiment, id)
		}
	}
	for _, r := range regressions {
		fmt.Fprintln(out, "REGRESSION:", r)
	}
	if len(baseRows) > 0 {
		return fmt.Errorf("%d baseline row(s) not measured by the candidate", len(baseRows))
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d metric(s) regressed beyond %.0f%%", len(regressions), 100**threshold)
	}
	fmt.Fprintf(out, "benchgate: %s: %d metrics within %.0f%% of baseline\n",
		cand.Experiment, checked, 100**threshold)
	return nil
}

func load(path string) (doc, error) {
	var d doc
	data, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(data, &d); err != nil {
		return d, fmt.Errorf("%s: %v", path, err)
	}
	if d.Experiment == "" || len(d.Results) == 0 {
		return d, fmt.Errorf("%s: not a bench artifact (missing experiment/results)", path)
	}
	return d, nil
}

// identity joins a row's string-valued fields into a stable row key.
func identity(row map[string]any) string {
	keys := make([]string, 0, len(row))
	for k, v := range row {
		if _, ok := v.(string); ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%s", k, row[k]))
	}
	return strings.Join(parts, " ")
}

// metricNames lists a row's gated metrics: numeric fields ending in "_us"
// (lower is better) or "_per_sec" (higher is better).
func metricNames(row map[string]any) []string {
	var names []string
	for k, v := range row {
		if _, ok := number(v); ok && (strings.HasSuffix(k, "_us") || strings.HasSuffix(k, "_per_sec")) {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	return names
}

func number(v any) (float64, bool) {
	f, ok := v.(float64)
	return f, ok
}

func index(rows []map[string]any) map[string]map[string]any {
	m := make(map[string]map[string]any, len(rows))
	for _, row := range rows {
		m[identity(row)] = row
	}
	return m
}
