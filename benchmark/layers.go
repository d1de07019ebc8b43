package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/history"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Transport services the account names.
const (
	svcApply   = "store.apply"
	svcRead    = "store.read"
	svcPrepare = "store.prepare"
	svcPropose = "store.propose"
	svcCommit  = "store.commit"
	svcEcho    = "benchmark.echo"
)

// tracedShare is the share of a run's length each of the two passes of a
// traced run gets; the rest goes to the store-level and REST measurements.
const tracedShare = 3

// layerRun is everything a traced run produced.
type layerRun struct {
	tally
	Metrics map[string]float64
	SampleN map[string]int
}

func (l *layerRun) set(name string, v float64, n int) {
	l.Metrics[name], l.SampleN[name] = v, n
}

// runLayers is the traced pass of one workload: the same sections, driven
// alternately through music.Client and core.Replica over the counting
// wrapper with a history recorder attached; an untraced pass of the same
// length for the tracing overhead and the allocation counts; the store and
// lock store timed on a deployment of their own; and the section once more
// through the REST front end.
func runLayers(w workload, seed int64, seconds int, clock *refClock) (*layerRun, error) {
	out := &layerRun{Metrics: make(map[string]float64), SampleN: make(map[string]int)}
	for _, m := range layerMetrics {
		out.set(m.Name, 0, 0)
	}
	opt := runOptions{seconds: max(seconds/tracedShare, 1), seed: seed}

	untracedP50, err := untracedPass(w, opt, clock, out)
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	if err := tracedPass(w, opt, clock, untracedP50, out); err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	if err := storePass(w.Plane, seed, clock, out); err != nil {
		return nil, fmt.Errorf("store pass: %w", err)
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.set("process.gc_cpu_frac", ms.GCCPUFraction, int(ms.NumGC))
	out.set("process.rss_mb_end", residentMB(&ms), 1)
	return out, nil
}

// untracedPass runs the workload as the end-to-end runs do and books the
// allocation counts; it returns the section median the traced pass is
// compared with.
func untracedPass(w workload, opt runOptions, clock *refClock, out *layerRun) (float64, error) {
	d, err := deploy(w.Plane, opt.seed, false, clock)
	if err != nil {
		return 0, err
	}
	defer d.close()
	var segs []segmentData
	var before, after runtime.MemStats
	err = d.run(func() {
		clients := newClients(d, w, opt.seed)
		out.absorb(&warmUp(d, w, clients, opt.seed).tally)
		runtime.ReadMemStats(&before)
		segs = measure(d, w, clients, opt)
		runtime.ReadMemStats(&after)
	})
	if err != nil {
		return 0, err
	}
	all := pool(segs)
	out.absorb(&all.tally)
	n := len(all.Recs)
	if n == 0 {
		return 0, fmt.Errorf("no section completed")
	}
	out.set("process.allocs_per_section", float64(after.Mallocs-before.Mallocs)/float64(n), n)
	out.set("process.alloc_bytes_per_section", float64(after.TotalAlloc-before.TotalAlloc)/float64(n), n)
	return sectionTiming(all.Recs, false).P50, nil
}

// tracedPass runs the workload over the counting wrapper and derives every
// metric that comes from timing calls into music and core or from what the
// wrapper saw; the REST comparison runs on the same deployment afterwards.
func tracedPass(w workload, opt runOptions, clock *refClock, untracedP50 float64, out *layerRun) error {
	d, err := deploy(w.Plane, opt.seed, true, clock)
	if err != nil {
		return err
	}
	defer d.close()
	opt.alternateCore = true
	var segs []segmentData
	var s0, s1 snapshot
	var restErr error
	err = d.run(func() {
		clients := newClients(d, w, opt.seed)
		out.absorb(&warmUp(d, w, clients, opt.seed).tally)
		d.stats.resetServe()
		s0 = d.stats.snapshot()
		segs = measure(d, w, clients, opt)
		s1 = d.stats.snapshot()
		restErr = restPass(d, opt.seed, out)
	})
	if err != nil {
		return err
	}
	if restErr != nil {
		return fmt.Errorf("rest pass: %w", restErr)
	}
	all := pool(segs)
	out.absorb(&all.tally)
	n := len(all.Recs)
	if n == 0 {
		return fmt.Errorf("no section completed")
	}
	sections := float64(n)

	viaMusic := sectionTiming(all.Recs, false)
	puts := (w.Shape.Ops + w.Shape.PutEvery - 1) / w.Shape.PutEvery
	perSection := [numOps]int{opCreate: 1, opAcquire: 1, opPut: puts, opGet: w.Shape.Ops - puts, opRelease: 1}
	sumOfMedians := 0.0
	for op, name := range opNames {
		m, c := summarize(all.Ops[op], 0.5), summarize(all.CoreOps[op], 0.5)
		out.set("music."+name+"_us_p50", m.P50, m.N)
		out.set("core."+name+"_us_p50", c.P50, c.N)
		sumOfMedians += m.P50 * float64(perSection[op])
	}
	out.set("music.closure_frac", sumOfMedians/viaMusic.P50, viaMusic.N)
	out.set("music.section_us_p50", viaMusic.P50, viaMusic.N)
	out.set("music.section_us_p99", viaMusic.Tail, viaMusic.N)
	out.set("trace.overhead_frac", viaMusic.P50/untracedP50, viaMusic.N)

	inv := func(svc string) float64 { return float64(s1.svcInvocations[svc] - s0.svcInvocations[svc]) }
	paxosRounds := inv(svcPrepare) + inv(svcPropose) + inv(svcCommit)
	out.set("paxos.rounds_per_section", paxosRounds/sections, n)
	out.set("paxos.prepares_per_section", inv(svcPrepare)/sections, n)
	out.set("nettrans.rpcs_per_section", float64(s1.calls-s0.calls)/sections, n)
	out.set("nettrans.multicasts_per_section", float64(s1.multicasts-s0.multicasts)/sections, n)
	out.set("nettrans.bytes_per_section", float64(s1.bytes-s0.bytes)/sections, n)

	// Self time: what the callers waited, minus one median handler run per
	// invocation. The legs of a multicast are served in parallel, so only
	// one of them blocks the caller.
	callTime := float64(s1.callTime-s0.callTime) / float64(time.Microsecond)
	handlerTime := 0.0
	for svc := range s1.svcInvocations {
		handlerTime += inv(svc) * summarize(d.stats.serveTimes(svc), 0.5).P50
	}
	out.set("nettrans.time_us_per_section", callTime/sections, n)
	out.set("nettrans.self_us_per_section", (callTime-handlerTime)/sections, n)

	apply, read := summarize(d.stats.serveTimes(svcApply), 0.5), summarize(d.stats.serveTimes(svcRead), 0.5)
	paxosServe := append(append(d.stats.serveTimes(svcPrepare), d.stats.serveTimes(svcPropose)...), d.stats.serveTimes(svcCommit)...)
	px := summarize(paxosServe, 0.5)
	out.set("store.serve_apply_us_p50", apply.P50, apply.N)
	out.set("store.serve_read_us_p50", read.P50, read.N)
	out.set("store.serve_paxos_us_p50", px.P50, px.N)

	firstLat, lastLat, firstBytes, lastBytes, tenth := deciles(segs, s0.bytes)
	out.set("music.section_us_p50_first_decile", firstLat, tenth)
	out.set("music.section_us_p50_last_decile", lastLat, tenth)
	out.set("nettrans.bytes_per_section_first_decile", firstBytes, tenth)
	out.set("nettrans.bytes_per_section_last_decile", lastBytes, tenth)

	if w.Plane == planeWAN {
		msgs := float64((s1.legs - s0.legs) + (s1.replies - s0.replies))
		out.set("simnet.msgs_per_section", msgs/sections, n)
	}
	var wall time.Duration
	for _, seg := range segs {
		wall += seg.Wall
	}
	out.set("sim.wall_us_per_section", float64(wall)/float64(time.Microsecond)/sections, n)

	wirePass(d.stats.capturedMessages(), clock, out)

	if overlaps := overlappingHolders(all.Recs); len(overlaps) > 0 {
		out.fail("%d overlapping holder intervals, first: %s", len(overlaps), overlaps[0])
	}
	res := history.Check(d.rec.Ops(), history.CheckOptions{})
	if !res.Ok() {
		detail := fmt.Sprintf("%d unbounded keys", len(res.Unbounded))
		if len(res.Violations) > 0 {
			detail = res.Violations[0].String()
		}
		out.fail("history.Check: %d violations over %d ops, first: %s", len(res.Violations), res.Ops, detail)
	}
	return nil
}

// pool merges a run's windows into one: layer metrics are pooled over the
// whole pass, not reduced per segment.
func pool(segs []segmentData) segmentData {
	var all segmentData
	for i := range segs {
		all.merge(&segs[i].sample)
		all.Clock += segs[i].Clock
		all.CPU += segs[i].CPU
		all.Wall += segs[i].Wall
	}
	return all
}

// sectionTiming summarises the latency of the sections driven one way.
func sectionTiming(recs []sectionRec, viaCore bool) timing {
	var picked []sectionRec
	for _, r := range recs {
		if r.ViaCore == viaCore {
			picked = append(picked, r)
		}
	}
	return summarize(latencies(picked), 0.99)
}

// deciles compares the first and the last tenth of each window's sections
// — the two ends reuse_slowdown is the ratio of — in section latency and in
// bytes put on the plane, from the byte counter sampled at each section's
// end, and returns the medians over the windows. With several clients a
// section's bytes include its neighbours'; the tenths still compare like
// with like.
func deciles(segs []segmentData, startBytes int64) (firstLat, lastLat, firstBytes, lastBytes float64, tenth int) {
	var fl, ll, fb, lb []float64
	for _, seg := range segs {
		rs, t := byCompletion(seg.Recs)
		if t == 0 {
			continue
		}
		n := len(rs)
		tenth = t
		fl = append(fl, summarize(latencies(rs[:t]), 0.5).P50)
		ll = append(ll, summarize(latencies(rs[n-t:]), 0.5).P50)
		fb = append(fb, float64(rs[t-1].BytesEnd-startBytes)/float64(t))
		lb = append(lb, float64(rs[n-1].BytesEnd-rs[n-1-t].BytesEnd)/float64(t))
		startBytes = rs[n-1].BytesEnd // nothing runs between two windows
	}
	if tenth == 0 {
		return 0, 0, 0, 0, 0
	}
	return median(fl), median(ll), median(fb), median(lb), tenth
}

// wirePass times the codec over the messages the wrapper captured.
func wirePass(encoded [][]byte, clock *refClock, out *layerRun) {
	if len(encoded) == 0 {
		return
	}
	msgs := make([]any, 0, len(encoded))
	total := 0
	clock.tick()
	start := clock.Now()
	for _, b := range encoded {
		m, err := wire.Unmarshal(b)
		if err != nil {
			out.fail("wire.Unmarshal of a captured message: %v", err)
			return
		}
		msgs = append(msgs, m)
		total += len(b)
	}
	unmarshal := clock.Now() - start
	clock.tick()
	start = clock.Now()
	for _, m := range msgs {
		if _, err := wire.Marshal(m); err != nil {
			out.fail("wire.Marshal of a captured message: %v", err)
			return
		}
	}
	marshal := clock.Now() - start
	n := len(encoded)
	out.set("wire.marshal_ns_per_msg", float64(marshal.Nanoseconds())/float64(n), n)
	out.set("wire.unmarshal_ns_per_msg", float64(unmarshal.Nanoseconds())/float64(n), n)
	out.set("wire.bytes_per_msg", float64(total)/float64(n), n)
}

// storePass times the lock store and the store beneath MUSIC on a
// deployment of their own, and the plane's bare RPC with a 256 B echo.
func storePass(plane string, seed int64, clock *refClock, out *layerRun) error {
	d, err := deployStore(plane, seed, clock)
	if err != nil {
		return err
	}
	defer d.close()
	iters := 400
	if plane == planeWAN {
		iters = 40 // every iteration is a dozen WAN rounds of simulation
	}
	d.tr(1).Handle(1, svcEcho, func(_ transport.NodeID, req any) (any, error) { return req, nil })

	var opErr error
	timed := func(ds *[]time.Duration, fn func() error) {
		if opErr != nil {
			return
		}
		clock.tick()
		t0 := d.now()
		if err := fn(); err != nil {
			opErr = err
			return
		}
		*ds = append(*ds, d.now()-t0)
	}
	mallocs := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}

	var enqueue, peek, grant, dequeue, putQ, getQ, getOne, cas, echo []time.Duration
	var putAllocs, getAllocs, casAllocs float64
	const table = "benchmark"
	cell := func(i int) store.Row {
		v := make([]byte, 256)
		v[0] = byte(i)
		return store.Row{"v": store.Cell{Value: v}}
	}
	err = d.run(func() {
		for i := 0; i < iters && opErr == nil; i++ {
			key := fmt.Sprintf("ls-s%d-%d", seed, i)
			var ref int64
			timed(&enqueue, func() (err error) { ref, err = d.locks.GenerateAndEnqueue(key); return err })
			timed(&peek, func() error { _, _, err := d.locks.Peek(key); return err })
			timed(&grant, func() error {
				applied, _, _, err := d.locks.SetGrantLWT(key, ref, d.st.Cluster().NowMicros()+1, 0, 1)
				if err == nil && !applied {
					err = fmt.Errorf("setGrantLWT %s/%d not applied", key, ref)
				}
				return err
			})
			timed(&dequeue, func() error { return d.locks.Dequeue(key, ref) })
		}
		// One loop per store operation, so the malloc delta around it
		// belongs to that operation alone.
		m0 := mallocs()
		for i := 0; i < iters; i++ {
			timed(&putQ, func() error { return d.st.Put(table, fmt.Sprintf("st-%d", i), cell(i), store.Quorum) })
		}
		m1 := mallocs()
		for i := 0; i < iters; i++ {
			timed(&getQ, func() error { _, err := d.st.Get(table, fmt.Sprintf("st-%d", i), store.Quorum); return err })
		}
		m2 := mallocs()
		for i := 0; i < iters; i++ {
			timed(&getOne, func() error { _, err := d.st.Get(table, fmt.Sprintf("st-%d", i), store.One); return err })
		}
		m3 := mallocs()
		for i := 0; i < iters; i++ {
			timed(&cas, func() error {
				res, err := d.st.CAS(table, fmt.Sprintf("cas-%d", i), nil, cell(i))
				if err == nil && !res.Applied {
					err = fmt.Errorf("unconditional CAS not applied")
				}
				return err
			})
		}
		m4 := mallocs()
		putAllocs, getAllocs, casAllocs = float64(m1-m0)/float64(iters), float64(m2-m1)/float64(iters), float64(m4-m3)/float64(iters)
		payload := cell(0)
		for i := 0; i < iters; i++ {
			timed(&echo, func() error { _, err := d.tr(0).Call(0, 1, svcEcho, payload); return err })
		}
	})
	if err != nil {
		return err
	}
	if opErr != nil {
		return opErr
	}
	for name, ds := range map[string][]time.Duration{
		"lockstore.enqueue_us_p50": enqueue, "lockstore.peek_us_p50": peek,
		"lockstore.setGrantLWT_us_p50": grant, "lockstore.dequeue_us_p50": dequeue,
		"store.put_quorum_us_p50": putQ, "store.get_quorum_us_p50": getQ,
		"store.get_one_us_p50": getOne, "store.cas_us_p50": cas,
		"nettrans.call_us_p50": echo,
	} {
		t := summarize(ds, 0.5)
		out.set(name, t.P50, t.N)
	}
	out.set("store.put_quorum_allocs", putAllocs, iters)
	out.set("store.get_quorum_allocs", getAllocs, iters)
	out.set("store.cas_allocs", casAllocs, iters)
	return nil
}

// residentMB is the process's resident set from /proc, falling back to the
// memory the Go runtime obtained from the OS where /proc is not there.
func residentMB(ms *runtime.MemStats) float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
				fields := strings.Fields(rest)
				if len(fields) >= 1 {
					if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	return float64(ms.Sys) / (1 << 20)
}
