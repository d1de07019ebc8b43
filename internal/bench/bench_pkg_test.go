package bench

import (
	"strconv"
	"strings"
	"testing"
)

func findTable(t *testing.T, tables []Table, id string) Table {
	t.Helper()
	for _, tb := range tables {
		if tb.ID == id {
			return tb
		}
	}
	t.Fatalf("table %s missing", id)
	return Table{}
}

// parseTP turns a formatted throughput cell back into a float.
func parseTP(t *testing.T, s string) float64 {
	t.Helper()
	mult := 1.0
	if strings.HasSuffix(s, "K") {
		mult = 1000
		s = strings.TrimSuffix(s, "K")
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v * mult
}

// parseLat turns a formatted latency cell into milliseconds.
func parseLat(t *testing.T, s string) float64 {
	t.Helper()
	switch {
	case strings.HasSuffix(s, "µs"):
		v, err := strconv.ParseFloat(strings.TrimSuffix(s, "µs"), 64)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		return v / 1000
	case strings.HasSuffix(s, "ms"):
		v, err := strconv.ParseFloat(strings.TrimSuffix(s, "ms"), 64)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		return v
	case strings.HasSuffix(s, "s"):
		v, err := strconv.ParseFloat(strings.TrimSuffix(s, "s"), 64)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		return v * 1000
	}
	t.Fatalf("unrecognized latency %q", s)
	return 0
}

func TestRegistryAndRunValidation(t *testing.T) {
	if len(Experiments()) != 19 {
		t.Fatalf("experiments = %d, want 19 (every paper artifact + ablation + trace + faults + fastpath + explore + soak + scale + readpath)", len(Experiments()))
	}
	if _, err := Run([]string{"nope"}, Options{Quick: true}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if _, ok := Find("fig4a"); !ok {
		t.Fatal("fig4a missing")
	}
	if _, ok := Find("trace"); !ok {
		t.Fatal("trace missing")
	}
	if _, ok := Find("soak"); !ok {
		t.Fatal("soak missing")
	}
}

// TestTraceShape checks the rendered span tree of the trace experiment: one
// table per profile, and the IUs section must show the full causal chain —
// the lock-store enqueue LWT with its Paxos phases and cross-site RPC legs
// broken into NIC/transit components, and the quorum critical put.
func TestTraceShape(t *testing.T) {
	tables := quick(t, "trace").tables
	if len(tables) != 3 {
		t.Fatalf("tables = %d, want one per profile", len(tables))
	}
	tb := findTable(t, tables, "trace-IUs")
	var tree strings.Builder
	for _, row := range tb.Rows {
		tree.WriteString(row[0] + "\n")
	}
	s := tree.String()
	for _, want := range []string{
		"criticalSection",
		"music.createLockRef",
		"lockstore.enqueue",
		"store.cas",
		"paxos.prepare",
		"paxos.read",
		"paxos.propose",
		"paxos.commit",
		"music.acquireLock.peek",
		"music.acquireLock.grant",
		"music.criticalPut",
		"rpc:store.apply",
		"music.releaseLock",
		"net.nic",
		"net.transit",
		"serve:store.prepare",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("trace tree missing %q", want)
		}
	}
	// The quorum critical put must reach at least two distinct sites.
	if !(strings.Contains(s, "ohio") && (strings.Contains(s, "ncalifornia") || strings.Contains(s, "oregon"))) {
		t.Errorf("trace tree missing cross-site routes:\n%s", s)
	}
	if strings.Contains(s, "FAILED") {
		t.Errorf("healthy critical section has failed spans:\n%s", s)
	}
}

func TestTable2Shape(t *testing.T) {
	tables := quick(t, "table2").tables
	tb := findTable(t, tables, "table2")
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 profiles", len(tb.Rows))
	}
	if tb.Rows[1][0] != "IUs" {
		t.Fatalf("row order: %v", tb.Rows)
	}
	if s := tb.String(); !strings.Contains(s, "IUsEu") {
		t.Fatalf("render missing profile:\n%s", s)
	}
	if md := tb.Markdown(); !strings.Contains(md, "| Profile |") {
		t.Fatalf("markdown malformed:\n%s", md)
	}
}

func TestFig4aShape(t *testing.T) {
	tb := findTable(t, quick(t, "fig4a").tables, "fig4a")
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		ev := parseTP(t, row[1])
		music := parseTP(t, row[2])
		mscp := parseTP(t, row[3])
		// The paper's ordering: CassaEV ≫ MUSIC > MSCP.
		if !(ev > music && music > mscp) {
			t.Errorf("%s: ordering violated: ev=%v music=%v mscp=%v", row[0], ev, music, mscp)
		}
		// MUSIC ≈ 1.2-1.5x MSCP.
		if r := music / mscp; r < 1.1 || r > 1.9 {
			t.Errorf("%s: MUSIC/MSCP = %.2f, want ~1.3", row[0], r)
		}
	}
}

func TestFig5aShape(t *testing.T) {
	tb := findTable(t, quick(t, "fig5a").tables, "fig5a")
	for _, row := range tb.Rows {
		ev := parseLat(t, row[1])
		music := parseLat(t, row[2])
		mscp := parseLat(t, row[3])
		if !(ev < music && music < mscp) {
			t.Errorf("%s: latency ordering violated: ev=%v music=%v mscp=%v", row[0], ev, music, mscp)
		}
	}
}

func TestFig5bShape(t *testing.T) {
	tb := findTable(t, quick(t, "fig5b").tables, "fig5b")
	lat := make(map[string]float64)
	for _, row := range tb.Rows {
		lat[row[0]] = parseLat(t, row[2])
	}
	if lat["acquireLock peek"] > 2 {
		t.Errorf("peek = %.2fms, want local sub-ms", lat["acquireLock peek"])
	}
	if !(lat["createLockRef"] > 3*lat["criticalPut (MUSIC)"]) {
		t.Errorf("createLockRef %.0fms not ≈4x quorum put %.0fms", lat["createLockRef"], lat["criticalPut (MUSIC)"])
	}
	if !(lat["criticalPut (MSCP)"] > 2.5*lat["criticalPut (MUSIC)"]) {
		t.Errorf("LWT put %.0fms not ≫ quorum put %.0fms", lat["criticalPut (MSCP)"], lat["criticalPut (MUSIC)"])
	}
}

func TestFig6aShape(t *testing.T) {
	tb := findTable(t, quick(t, "fig6a").tables, "fig6a")
	if len(tb.Rows) < 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	first, last := tb.Rows[0], tb.Rows[len(tb.Rows)-1]
	musicFirst, zk := parseTP(t, first[1]), parseTP(t, first[3])
	musicLast, zkLast := parseTP(t, last[1]), parseTP(t, last[3])
	// Batch 1: ZooKeeper ahead of MUSIC; large batches: MUSIC ahead.
	if musicFirst >= zk {
		t.Errorf("batch 1: MUSIC %v not below ZK %v", musicFirst, zk)
	}
	if musicLast <= zkLast {
		t.Errorf("batch %s: MUSIC %v not above ZK %v", last[0], musicLast, zkLast)
	}
	// Amortization: MUSIC throughput grows with batch size.
	if musicLast < 2*musicFirst {
		t.Errorf("MUSIC did not amortize: %v -> %v", musicFirst, musicLast)
	}
}

func TestFig8Shape(t *testing.T) {
	tb := findTable(t, quick(t, "fig8").tables, "fig8")
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 (2 systems × 2 profiles)", len(tb.Rows))
	}
	// On IUs the MUSIC median sits left of MSCP's.
	var musicP50, mscpP50 float64
	for _, row := range tb.Rows {
		if row[1] != "IUs" {
			continue
		}
		if row[0] == "MUSIC" {
			musicP50 = parseLat(t, row[4])
		} else {
			mscpP50 = parseLat(t, row[4])
		}
	}
	if !(musicP50 < mscpP50) {
		t.Errorf("IUs p50: MUSIC %v not below MSCP %v", musicP50, mscpP50)
	}
}

func TestFaultsShape(t *testing.T) {
	tables := quick(t, "faults").tables
	if len(tables) != 2 {
		t.Fatalf("tables = %d, want campaign + overhead", len(tables))
	}
	campaign, overhead := tables[0], tables[1]
	for _, row := range campaign.Rows {
		if row[2] != row[1] {
			t.Errorf("seed %s: completed %s of %s sections despite failover", row[0], row[2], row[1])
		}
		if row[4] == "0" {
			t.Errorf("seed %s: partition produced no failover", row[0])
		}
		if row[5] != "ncalifornia" {
			t.Errorf("seed %s: client ended on %q, want ncalifornia", row[0], row[5])
		}
	}
	// The retry layer must be free on the healthy path: every variant
	// within 1% of the NoRetry baseline.
	base := parseLat(t, overhead.Rows[0][1])
	for _, row := range overhead.Rows[1:] {
		got := parseLat(t, row[1])
		if diff := got - base; diff > base/100 || diff < -base/100 {
			t.Errorf("%s CS latency %.1fms, want within 1%% of NoRetry %.1fms", row[0], got, base)
		}
	}
}

// TestReadpathShape checks the adaptive-consistency acceptance criteria on
// the quick sweep: holder leases must serve gets at least 3x below the
// quorum plane's median, and under injected staleness the monitor must trip
// (violations seen), flip the sites to QUORUM, and see nothing after the
// flip.
func TestReadpathShape(t *testing.T) {
	tb := findTable(t, quick(t, "readpath").tables, "readpath")
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 configs", len(tb.Rows))
	}
	rows := make(map[string][]string)
	for _, row := range tb.Rows {
		rows[row[0]] = row
	}
	quorumP50 := parseLat(t, rows["quorum"][1])
	leaseP50 := parseLat(t, rows["lease"][1])
	adaptiveP50 := parseLat(t, rows["adaptive"][1])
	if quorumP50 < 3*leaseP50 {
		t.Errorf("lease p50 %.2fms not ≥3x below quorum p50 %.2fms", leaseP50, quorumP50)
	}
	if adaptiveP50 >= quorumP50 {
		t.Errorf("adaptive ONE p50 %.2fms not below quorum p50 %.2fms", adaptiveP50, quorumP50)
	}
	for _, cfg := range []string{"quorum", "lease", "adaptive"} {
		if rows[cfg][4] != "0" || rows[cfg][6] != "false" {
			t.Errorf("%s: clean run saw violations=%s flipped=%s", cfg, rows[cfg][4], rows[cfg][6])
		}
	}
	stale := rows["adaptive_stale"]
	if stale[4] == "0" {
		t.Errorf("adaptive_stale: injected staleness produced no monitor violations")
	}
	if stale[5] != "0" {
		t.Errorf("adaptive_stale: %s violations after the flip, want 0", stale[5])
	}
	if stale[6] != "true" {
		t.Errorf("adaptive_stale: monitor never flipped the site to QUORUM")
	}
}

func TestAblationShape(t *testing.T) {
	tb := findTable(t, quick(t, "ablation").tables, "ablation")
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 variants", len(tb.Rows))
	}
	base := parseLat(t, tb.Rows[0][1])
	noSynchFlag := parseLat(t, tb.Rows[1][1])
	noLocalPeek := parseLat(t, tb.Rows[2][1])
	// Both ablations must cost extra quorum round trips per section.
	if noSynchFlag < base+80 {
		t.Errorf("always-synchronize CS %.0fms not ≫ baseline %.0fms", noSynchFlag, base)
	}
	if noLocalPeek < base+80 {
		t.Errorf("quorum-peek CS %.0fms not ≫ baseline %.0fms", noLocalPeek, base)
	}
}
