package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// envelope says where and on what a result file was measured.
type envelope struct {
	Benchmark  string `json:"benchmark"`
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Host       string `json:"host"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Time       string `json:"time"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
}

// resultFile is what -out writes and -compare reads: one envelope, then
// every run (each carries its workload's parameters).
type resultFile struct {
	Envelope envelope    `json:"envelope"`
	Runs     []runResult `json:"runs"`
}

func newEnvelope(seed int64, seconds int) envelope {
	host, err := os.Hostname()
	if err != nil {
		host = "unknown"
	}
	return envelope{
		Benchmark: "music-critical-section/1", Commit: commit(),
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Host: host, OS: runtime.GOOS, Arch: runtime.GOARCH,
		Time: time.Now().UTC().Format(time.RFC3339), Seed: seed, Seconds: seconds,
	}
}

// commit asks git for the checkout's HEAD; outside a git checkout (the
// benchmark driver's copy) the answer is "unknown".
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(out))
	if dirty, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(dirty) > 0 {
		rev += "-dirty"
	}
	return rev
}

func writeResultFile(path string, f resultFile) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (resultFile, error) {
	var f resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// printRun writes one run as a table: every metric by name, with its value,
// unit and the sample behind it.
func printRun(w io.Writer, r *runResult) {
	kind := "end-to-end, tracing off"
	order := endToEndMetrics
	if r.Traced {
		kind, order = "per layer, traced", layerMetrics
	}
	fmt.Fprintf(w, "\n%s  seed %d  %d s  (%s; %.1f s wall)\n", r.Workload, r.Seed, r.Seconds, kind, r.WallS)
	fmt.Fprintf(w, "  wall and CPU time in reference µs: the yardstick took %.4g µs here (median of %d readings), %g µs on the reference host\n",
		r.YardstickUS, r.YardstickStops, refCallMicros)
	if !r.Traced {
		order = append(order[:len(order):len(order)], metric{Name: failedOpsFrac})
	}
	wl, _ := workloadByName(r.Workload)
	unlisted := false
	for _, m := range order {
		v := r.Metrics[m.Name]
		note := ""
		if v.Percentile > 0 {
			note = fmt.Sprintf("  (p%g)", v.Percentile*100)
		}
		if !r.Traced && !m.listedOn(wl) {
			note += "  *"
			unlisted = true
		}
		fmt.Fprintf(w, "  %-42s %16.6g %-6s n=%d%s\n", m.Name, v.Value, v.Unit, v.N, note)
	}
	if unlisted {
		fmt.Fprintln(w, "  * not one of this metric's workloads; reported because the gate wants every metric from every workload")
	}
	fmt.Fprintf(w, "  operations: %d attempted, %d failed; outputs correct: %t\n", r.Attempted, r.Failed, r.Correct)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  ! %s\n", e)
	}
}

// contractLine is the last line of a driver-invoked run: exactly the keys
// the benchmark contract names.
func contractLine(r *runResult) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	order := endToEndMetrics
	if r.Traced {
		order = layerMetrics
	}
	metrics := make(map[string]mv, len(order))
	for _, m := range order {
		metrics[m.Name] = mv{Value: r.Metrics[m.Name].Value, Unit: m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(fmt.Sprintf("benchmark: result line: %v", err)) // plain numbers and strings always marshal
	}
	return string(line)
}

// compareRow is one workload × end-to-end metric verdict.
type compareRow struct {
	Workload, Metric, Unit   string
	Base, Change             float64 // medians
	BaseSpread, ChangeSpread float64
	Worse                    float64 // change vs base in the metric's bad direction, as a share of base
	Bound                    float64
	Listed                   bool // the workload is one the metric is defined for
	Verdict                  string
}

// Verdicts of -compare.
const (
	verdictOK         = "ok"
	verdictImproved   = "improved"
	verdictRegressed  = "REGRESSED"
	verdictUnresolved = "unresolved"
	verdictMissing    = "missing"
)

// compareSets judges change against base on every workload × end-to-end
// metric, by the rule the metrics guide fixes: the change's median may be
// worse than the base's by at most the metric's bound; where either set's
// own quartile spread exceeds that bound the pairing is unresolved, not
// unchanged. Two exceptions: failed_ops_frac must not rise at all, and a
// virtual-clock metric measured on the same seeds in both sets has no noise
// to resolve — what spread it shows is the seeds' inputs differing, equally
// on both sides.
func compareSets(base, change resultFile) []compareRow {
	values := func(f resultFile, workload, name string) (vs []float64, seeds string) {
		for _, r := range f.Runs {
			if r.Workload == workload && !r.Traced {
				if v, ok := r.Metrics[name]; ok {
					vs = append(vs, v.Value)
					seeds += fmt.Sprint(r.Seed, " ")
				}
			}
		}
		return vs, seeds
	}
	var rows []compareRow
	for _, w := range workloads {
		metrics := append([]metric(nil), endToEndMetrics...)
		metrics = append(metrics, metric{Name: failedOpsFrac, Unit: unitRatio, Better: "lower"})
		for _, m := range metrics {
			a, seedsA := values(base, w.Name, m.Name)
			b, seedsB := values(change, w.Name, m.Name)
			noiseless := onVirtualClock(m, w) && seedsA == seedsB
			row := compareRow{Workload: w.Name, Metric: m.Name, Unit: m.Unit, Bound: boundFor(m, w), Listed: m.listedOn(w)}
			if len(a) == 0 || len(b) == 0 {
				row.Verdict = verdictMissing
				rows = append(rows, row)
				continue
			}
			row.Base, row.Change = median(a), median(b)
			row.BaseSpread, row.ChangeSpread = quartileSpread(a), quartileSpread(b)
			diff := row.Change - row.Base
			if m.Better == "higher" {
				diff = -diff
			}
			switch {
			case m.Name == failedOpsFrac:
				// 0 by design: any rise is a regression, whatever its size.
				row.Bound = 0
				row.Worse = diff
				row.Verdict = verdictOK
				if diff > 0 {
					row.Verdict = verdictRegressed
				}
			default:
				row.Worse = diff / row.Base
				switch {
				case !noiseless && max(row.BaseSpread, row.ChangeSpread) > row.Bound:
					row.Verdict = verdictUnresolved
				case row.Worse > row.Bound:
					row.Verdict = verdictRegressed
				case row.Worse < -row.Bound:
					row.Verdict = verdictImproved
				default:
					row.Verdict = verdictOK
				}
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// printCompare writes the rows and returns how many regressed or are
// missing from one of the sets.
func printCompare(w io.Writer, base, change resultFile, rows []compareRow) (bad int) {
	fmt.Fprintf(w, "base:   commit %s  host %s  %s  GOMAXPROCS %d\n", base.Envelope.Commit, base.Envelope.Host, base.Envelope.GoVersion, base.Envelope.GOMAXPROCS)
	fmt.Fprintf(w, "change: commit %s  host %s  %s  GOMAXPROCS %d\n\n", change.Envelope.Commit, change.Envelope.Host, change.Envelope.GoVersion, change.Envelope.GOMAXPROCS)
	fmt.Fprintf(w, "%-14s %-16s %14s %14s %-6s %8s %8s %8s %7s  %s\n",
		"workload", "metric", "base p50", "change p50", "unit", "worse", "spread-b", "spread-c", "bound", "verdict")
	for _, r := range rows {
		mark := ""
		if !r.Listed {
			mark = " *"
		}
		fmt.Fprintf(w, "%-14s %-16s %14.3f %14.3f %-6s %+7.2f%% %7.2f%% %7.2f%% %6.1f%%  %s%s\n",
			r.Workload, r.Metric, r.Base, r.Change, r.Unit, 100*r.Worse, 100*r.BaseSpread, 100*r.ChangeSpread, 100*r.Bound, r.Verdict, mark)
		if r.Verdict == verdictRegressed || r.Verdict == verdictMissing {
			bad++
		}
	}
	counts := make(map[string]int)
	for _, r := range rows {
		counts[r.Verdict]++
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintln(w)
	for _, k := range keys {
		fmt.Fprintf(w, "%s: %d  ", k, counts[k])
	}
	fmt.Fprintln(w, "\n* not one of the metric's workloads; the gate holds it to the metric's bound all the same")
	return bad
}
