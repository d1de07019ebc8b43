// Package bench regenerates every table and figure of the paper's
// evaluation (§VIII and appendix §X-B) against the simulated substrates:
// one experiment per artifact, each building fresh deterministic clusters,
// driving closed-loop load generators in virtual time, and emitting the
// same rows/series the paper reports. cmd/musicbench is the CLI front end;
// bench_test.go exposes each experiment as a testing.B benchmark.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// Table is one rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the table as a GitHub table.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Columns)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	b.WriteString("\n")
	return b.String()
}

// Options tunes experiment scale.
type Options struct {
	// Quick shrinks measurement windows and sweep points so the whole
	// suite runs in seconds (used by tests and -quick).
	Quick bool
	// Workers is the closed-loop generator population per site for
	// throughput experiments. Defaults to 160 (60 in Quick mode).
	Workers int
	// Log receives progress lines (nil discards them).
	Log io.Writer
	// JSON, when non-empty, makes the experiments that keep a machine-
	// readable perf trajectory (fastpath, soak, scale, readpath)
	// also write their per-config results to this path — the BENCH_<id>.json
	// artifact. One path holds one experiment: run them one at a time.
	JSON string
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	if o.Quick {
		return 60
	}
	return 160
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// writeJSON writes experiment exp's results document to o.JSON (a no-op
// when no path was asked for).
func (o Options) writeJSON(exp string, doc any) {
	if o.JSON == "" {
		return
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("bench: %s json: %v", exp, err))
	}
	if err := os.WriteFile(o.JSON, append(data, '\n'), 0o644); err != nil {
		panic(fmt.Sprintf("bench: %s json: %v", exp, err))
	}
	o.logf("  %s: wrote %s", exp, o.JSON)
}

// Experiment is one runnable artifact reproduction.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) []Table
}

// Experiments returns the registry in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"table2", "Latency profiles used for 3-site deployments (Table II)", runTable2},
		{"fig4a", "Peak throughput of CassaEV / MUSIC / MSCP across latency profiles (Fig 4a)", runFig4a},
		{"fig4b", "Peak throughput vs cluster size, IUs profile, fully sharded (Fig 4b)", runFig4b},
		{"fig5a", "Mean operation latency across latency profiles (Fig 5a)", runFig5a},
		{"fig5b", "Latency breakdown of MUSIC operations, IUs profile (Fig 5b)", runFig5b},
		{"trace", "Causal span tree of one critical section per profile (internal/obs)", runTrace},
		{"fig6a", "MUSIC vs MSCP vs ZooKeeper: throughput vs critical-section batch size (Fig 6a)", runFig6a},
		{"fig6b", "MUSIC vs MSCP vs ZooKeeper: throughput vs data size, batch 100 (Fig 6b)", runFig6b},
		{"fig7a", "MUSIC vs CockroachDB critical section: latency vs batch size (Fig 7a)", runFig7a},
		{"fig7b", "MUSIC vs CockroachDB critical section: latency vs data size, batch 100 (Fig 7b)", runFig7b},
		{"fig8", "Latency CDFs for MUSIC and MSCP, profiles 11 and IUs (Fig 8)", runFig8},
		{"fig9", "YCSB workloads R / UR / U: MUSIC vs MSCP (Fig 9)", runFig9},
		{"ablation", "Design-choice ablations: synchFlag dirty bit and local peek (DESIGN.md)", runAblation},
		{"faults", "Fault-injection campaign: retries, cross-site failover, healthy-path overhead (§III-A)", runFaults},
		{"fastpath", "Critical-section fast path: grant piggyback, holder cache, write-behind", runFastpath},
		{"explore", "Seeded chaos explorer: randomized fault schedules checked against ECF (internal/history)", runExplore},
		{"soak", "Soak scenarios over TCP with chaosnet faults: SLO report per scenario (internal/chaosnet)", runSoak},
		{"scale", "Sharded lock/data plane scale-out: YCSB over a million-key uniform space, shards 1/2/4/8", runScale},
		{"readpath", "Adaptive read plane: quorum vs holder leases vs monitored ONE reads, metro fabric", runReadpath},
	}
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs lists all experiment ids.
func IDs() []string {
	var ids []string
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}

// Run executes the named experiments ("all" for everything) and returns
// their tables in registry order.
func Run(ids []string, opts Options) ([]Table, error) {
	want := make(map[string]bool)
	all := false
	for _, id := range ids {
		if id == "all" {
			all = true
			continue
		}
		if _, ok := Find(id); !ok {
			return nil, fmt.Errorf("bench: unknown experiment %q (have %s)", id, strings.Join(IDs(), ", "))
		}
		want[id] = true
	}
	var out []Table
	for _, e := range Experiments() {
		if !all && !want[e.ID] {
			continue
		}
		opts.logf("running %s: %s", e.ID, e.Title)
		out = append(out, e.Run(opts)...)
	}
	return out, nil
}
