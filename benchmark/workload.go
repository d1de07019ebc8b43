package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/sim"
	"repro/internal/ycsb"
	"repro/music"
)

// nominalSeconds is the run length BENCHMARK.json fixes. Count-based
// workloads size themselves as a share of it, so `-seconds 5` is a quick
// look and `-seconds 25` is the gated run, with identical inputs per seed.
const nominalSeconds = 25

// wallSegments is how many windows a time-based run is cut into. Every
// metric is computed per window and the run reports the median of the
// windows, so a neighbour's burst on the shared host has to hit three of
// the five to move a number.
const wallSegments = 5

// reusePasses is how many times tcp_reuse runs its 4000 sections, each pass
// on fresh keys and each a window of its own. reuse_slowdown is the ratio of
// two medians of 400 sections, the first of them a quarter of a second long,
// and ten single passes spread 19 % between their quartiles on a host the
// other metrics hold still on; the median of three spreads two thirds of that.
const reusePasses = 3

// workload is one row of the benchmark's workload table.
type workload struct {
	Name    string
	Plane   string
	Clients int    // closed-loop callers
	Length  string // how long a run is, in the workload's own terms
	Why     string
	Shape   shape

	// Segments is the number of measurement windows: wallSegments on the
	// time-based workloads; on the count-based ones, how many times the
	// count is run.
	Segments int
	// PerClient > 0 makes a window a fixed count of sections per client (at
	// nominalSeconds) instead of a length of wall time.
	PerClient int
	// HotKeys > 0 has every client draw its keys Zipfian(Theta) from that
	// many shared keys (the internal/ycsb chooser) instead of minting a
	// fresh key per section.
	HotKeys int
	Theta   float64
	// ReuseKeys > 0 walks that many keys round-robin instead, every window
	// on keys of its own.
	ReuseKeys int
	// Attempts > 0 replaces the client retry policy's attempt budget
	// (music.DefaultRetryPolicy: 4), the one shipped default a workload may
	// depart from.
	Attempts int
	// WarmUp is the number of sections each client runs, on keys of their
	// own, before measurement; it is part of setup_s.
	WarmUp int
}

var workloads = []workload{
	{
		Name: "wan_section", Plane: planeWAN, Clients: 3, Segments: 1, PerClient: 1000, WarmUp: 50,
		Length: "3 clients (one per site) × 1000 sections, a fresh key every section",
		Shape:  tableISection,
		Why:    "virtual time over Table II IUs RTTs (ms: Ohio-NCal 53.79, Ohio-Oregon 72.14, NCal-Oregon 24.2): latency is WAN rounds x RTT and nothing else, so only protocol changes move it",
	},
	{
		Name: "wan_contended", Plane: planeWAN, Clients: 6, Segments: 1, PerClient: 300, HotKeys: 16, Theta: 0.99, Attempts: 16, WarmUp: 25,
		Length: "6 clients (two per site) × 300 sections, keys Zipfian θ=0.99 over 16 hot keys",
		Shape:  tableISection,
		Why:    "multi-site mutual exclusion is the product: grant recording, ONE-level peek staleness and AwaitLock's 1-64 ms backoff sit on the handoff path and on no other workload",
	},
	{
		Name: "tcp_section", Plane: planeTCP, Clients: 1, Segments: wallSegments, WarmUp: 200,
		Length: "1 client at site-a; 5 windows of seconds/5; a fresh key every section",
		Shape:  tableISection,
		Why:    "no injected delay: the CPU, syscall and alloc cost of music, core, lockstore, store, wire and nettrans, with the lock path doing most of the work",
	},
	{
		Name: "tcp_held", Plane: planeTCP, Clients: 1, Segments: wallSegments, WarmUp: 100,
		Length: "1 client; 5 windows of seconds/5; each section holds a fresh key for 32 critical ops, 3 gets : 1 put, 1 KiB values",
		Shape:  shape{Ops: 32, PutEvery: 4, ValueSize: 1024},
		Why:    "amortises the lock path so the data path does the work; gets and puts timed apart so a read-plane gain that taxes writes shows",
	},
	{
		Name: "tcp_reuse", Plane: planeTCP, Clients: 1, Segments: reusePasses, PerClient: 4000, ReuseKeys: 8, WarmUp: 200,
		Length: "1 client; fixed count: 4000 sections round-robin over 8 keys (500 per key), three times over, each time on 8 keys of its own",
		Shape:  tableISection,
		Why:    "long-lived lock rows instead of fresh ones: every past lockRef leaves a tombstone in its music_locks row and sections slow down",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sectionsPerClient scales a count-based run to the requested run length,
// keeping a floor that still gives the first and last tenth of a client's
// sections a few samples each.
func (w workload) sectionsPerClient(seconds int) int {
	return max(w.PerClient*seconds/nominalSeconds, 30)
}

// params is the workload's configuration as recorded in a result file.
func (w workload) params(seconds int) map[string]any {
	p := map[string]any{
		"plane": w.Plane, "clients": w.Clients, "seconds": seconds,
		"ops_per_section": w.Shape.Ops, "put_every": w.Shape.PutEvery, "value_bytes": w.Shape.ValueSize,
		"warm_up_sections_per_client": w.WarmUp, "set_ups": setups,
		"yardstick_ref_us": refCallMicros, "yardstick_every_ms": burstEvery.Milliseconds(),
	}
	p["segments"], p["length"] = w.Segments, w.Length
	if w.PerClient > 0 {
		p["sections_per_client"] = w.sectionsPerClient(seconds)
	}
	if w.HotKeys > 0 {
		p["hot_keys"], p["zipfian_theta"] = w.HotKeys, w.Theta
	}
	if w.ReuseKeys > 0 {
		p["reuse_keys"] = w.ReuseKeys
	}
	if w.Attempts > 0 {
		p["client_retry_attempts"] = w.Attempts
	}
	if w.Plane == planeWAN {
		p["profile"] = "IUs"
	}
	return p
}

// keyChooser yields the keys one client locks, from the run's seed alone.
type keyChooser struct {
	w      workload
	client int
	seed   int64
	phase  string        // "warm" or "run": warm-up never touches measured keys
	zipf   *ycsb.Zipfian // set when the workload has hot keys
	n      int
	// perWindow > 0 moves a reuse workload on to fresh keys after that many
	// sections.
	perWindow int
}

func newKeyChooser(w workload, client int, seed int64, phase string) *keyChooser {
	k := &keyChooser{w: w, client: client, seed: seed, phase: phase}
	if w.HotKeys > 0 {
		// One stream per client, so a client's draws do not depend on how
		// the scheduler interleaves it with the others.
		rng := rand.New(rand.NewSource(seed*64 + int64(client)))
		k.zipf = ycsb.NewZipfian(w.HotKeys, w.Theta, rng)
	}
	return k
}

func (k *keyChooser) next() string {
	k.n++
	switch {
	case k.zipf != nil:
		return fmt.Sprintf("%s-s%d-hot-%d", k.phase, k.seed, k.zipf.Next())
	case k.w.ReuseKeys > 0:
		pass := 0
		if k.perWindow > 0 {
			pass = (k.n - 1) / k.perWindow
		}
		return fmt.Sprintf("%s-s%d-reuse-%d-%d", k.phase, k.seed, pass, k.n%k.w.ReuseKeys)
	default:
		return fmt.Sprintf("%s-s%d-c%d-%d", k.phase, k.seed, k.client, k.n)
	}
}

// segmentData is what the run gathered in one measurement window. Wall and
// CPU time are reference time (yardstick.go), the yardstick's own left out.
type segmentData struct {
	sample
	Clock time.Duration // window length on the workload's clock
	CPU   time.Duration // process user+sys CPU burned in the window
	Wall  time.Duration // wall time of the window (≠ Clock on the WAN plane)
}

// runOptions selects how the sections of a run are driven.
type runOptions struct {
	seconds int
	seed    int64
	// alternateCore drives every second section on the site's core.Replica
	// (traced runs: the session layer's self time is the difference).
	alternateCore bool
}

// newClients builds the workload's closed-loop callers over d. Client i is
// homed at site i mod 3, so wan_contended puts two at every site.
func newClients(d *deployment, w workload, seed int64) []*client {
	rng := rand.New(rand.NewSource(seed))
	filler := make([]byte, w.Shape.ValueSize)
	rng.Read(filler)
	cs := make([]*client, w.Clients)
	for i := range cs {
		cs[i] = &client{id: i, now: d.now, clock: d.clock, filler: filler, stats: d.stats}
	}
	return cs
}

// opsFor returns the two ways client i's sections can be driven.
func opsFor(d *deployment, w workload, i int) (viaMusic, viaCore sectionOps) {
	site := d.sites[i%len(d.sites)]
	c := d.cluster(i % len(d.sites))
	attempts := music.DefaultRetryPolicy.Attempts
	var opts []music.ClientOption
	if w.Attempts > 0 {
		attempts = w.Attempts
		opts = append(opts, music.WithRetry(music.RetryPolicy{Attempts: attempts}))
	}
	return musicOps{c.Client(site, opts...)}, coreOps{rep: c.Replica(site), rt: d.rt, attempts: attempts}
}

// warmUp runs every client's warm-up sections, concurrently on the WAN
// plane as in the measured run. It must be called on the plane's clock.
func warmUp(d *deployment, w workload, clients []*client, seed int64) *sample {
	total := &sample{}
	each(d, clients, func(i int, c *client) *sample {
		s := &sample{}
		viaMusic, _ := opsFor(d, w, i)
		keys := newKeyChooser(w, i, seed, "warm")
		for n := 0; n < w.WarmUp; n++ {
			c.section(viaMusic, false, keys.next(), w.Shape, s)
		}
		return s
	}, total)
	return total
}

// each runs fn once per client — as concurrent tasks of the plane's runtime
// when there are several, inline when there is one — and merges the results.
func each(d *deployment, clients []*client, fn func(i int, c *client) *sample, into *sample) {
	if len(clients) == 1 {
		into.merge(fn(0, clients[0]))
		return
	}
	done := sim.NewMailbox[*sample](d.rt)
	for i, c := range clients {
		i, c := i, c
		d.rt.Go(func() { done.Send(fn(i, c)) })
	}
	for range clients {
		s, err := done.Recv()
		if err != nil {
			panic(fmt.Sprintf("benchmark: client mailbox: %v", err))
		}
		into.merge(s)
	}
}

// measure runs the workload's measured part on an already warmed-up
// deployment and returns one segmentData per window. It must be called on
// the plane's clock.
func measure(d *deployment, w workload, clients []*client, opt runOptions) []segmentData {
	choosers := make([]*keyChooser, len(clients))
	viaMusic, viaCore := make([]sectionOps, len(clients)), make([]sectionOps, len(clients))
	per := w.sectionsPerClient(opt.seconds)
	for i := range clients {
		choosers[i] = newKeyChooser(w, i, opt.seed, "run")
		choosers[i].perWindow = per
		viaMusic[i], viaCore[i] = opsFor(d, w, i)
	}
	one := func(i int, c *client, s *sample, n int) {
		if opt.alternateCore && n%2 == 1 {
			c.section(viaCore[i], true, choosers[i].next(), w.Shape, s)
			return
		}
		c.section(viaMusic[i], false, choosers[i].next(), w.Shape, s)
	}
	window := func(body func(i int, c *client) *sample) segmentData {
		var seg segmentData
		cpu0, wall0, clock0 := d.clock.CPU(), d.clock.Now(), d.now()
		each(d, clients, body, &seg.sample)
		seg.Clock, seg.Wall, seg.CPU = d.now()-clock0, d.clock.Now()-wall0, d.clock.CPU()-cpu0
		return seg
	}

	segDur := time.Duration(opt.seconds) * time.Second / time.Duration(w.Segments)
	issued := make([]int, len(clients))
	segs := make([]segmentData, 0, w.Segments)
	for k := 0; k < w.Segments; k++ {
		segs = append(segs, window(func(i int, c *client) *sample {
			s := &sample{}
			if w.PerClient > 0 {
				for n := 0; n < per; n++ {
					one(i, c, s, issued[i])
					issued[i]++
				}
				return s
			}
			for deadline := d.rt.Now() + segDur; d.rt.Now() < deadline; issued[i]++ {
				one(i, c, s, issued[i])
			}
			return s
		}))
	}
	return segs
}

// endToEnd computes one window's end-to-end metrics. The names and units are
// the ones BENCHMARK.json lists; sampleN records how many samples stand
// behind each number and tailQ which percentile the two tails are. The two
// throughputs are not here: they are taken over the whole run.
func endToEnd(w workload, seg segmentData, sampleN map[string]int, tailQ map[string]float64) map[string]float64 {
	m := make(map[string]float64)
	// A section belongs to a client, and under contention one starved
	// client can fill the pooled tail on its own (README, finding 2), so the
	// tail percentile needs its ten samples beyond it from every client:
	// p99 with 1000 sections per client, p90 with wan_contended's 300.
	lat := latencies(seg.Recs)
	sec := summarizeAt(lat, highestSupported(len(lat)/w.Clients, 0.99))
	m["section_us_p50"], m["section_us_p99"] = sec.P50, sec.Tail
	sampleN["section_us_p50"], sampleN["section_us_p99"] = sec.N, sec.N
	tailQ["section_us_p99"] = sec.TailQ

	get, put := summarize(seg.Ops[opGet], 0.5), summarize(seg.Ops[opPut], 0.5)
	m["get_us_p50"], m["put_us_p50"] = get.P50, put.P50
	sampleN["get_us_p50"], sampleN["put_us_p50"] = get.N, put.N

	// Clients that share keys hand the lock to each other; a client with
	// keys of its own never queues behind anybody, and the driver still
	// wants a number from it: the grant time with nobody to wait for.
	queued, alone := handoffs(seg.Recs)
	ho := summarize(alone, 0.99)
	if w.HotKeys > 0 {
		ho = summarize(queued, 0.99)
	}
	m["handoff_us_p50"], m["handoff_us_p99"] = ho.P50, ho.Tail
	sampleN["handoff_us_p50"], sampleN["handoff_us_p99"] = ho.N, ho.N
	tailQ["handoff_us_p99"] = ho.TailQ

	m["section_cpu_us"] = float64(seg.CPU) / float64(time.Microsecond) / float64(max(len(seg.Recs), 1))
	sampleN["section_cpu_us"] = sec.N
	m["reuse_slowdown"], sampleN["reuse_slowdown"] = slowdown(seg.Recs)
	return m
}

// slowdown is reuse_slowdown within one window: the median latency of the
// last tenth of a client's sections over that of its first tenth, and the
// median of that ratio over the clients (they sit at sites with different
// round trips, so their sections are not pooled). Host speed cancels; what
// is left is how much a section slows down as the rows it touches age.
// tenth is the sample behind each of the two medians.
func slowdown(recs []sectionRec) (ratio float64, tenth int) {
	byClient := make(map[int][]sectionRec)
	for _, r := range recs {
		byClient[r.Client] = append(byClient[r.Client], r)
	}
	var ratios []float64
	for _, own := range byClient {
		rs, t := byCompletion(own)
		if t == 0 {
			continue
		}
		tenth = t
		first, last := summarize(latencies(rs[:t]), 0.5), summarize(latencies(rs[len(rs)-t:]), 0.5)
		ratios = append(ratios, last.P50/first.P50)
	}
	if len(ratios) == 0 {
		return 1, 0
	}
	return median(ratios), tenth
}
