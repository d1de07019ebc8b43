package main

import (
	"fmt"
	"time"
)

// setups is how many times a run deploys and warms up. setup_s is the median
// of them, as a wall-clock metric is the median of its windows, and the
// measurement runs on the last deployment. A set-up is a tenth of a second
// of CPU-bound work, which a single sample on a shared host would not pin
// down; the gate asks for several.
const setups = 7

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples behind the value (per window, where the
	// run has several).
	N int `json:"n,omitempty"`
	// Percentile is set on tails: the percentile the rule "highest with ten
	// samples beyond it, at most p99" selected.
	Percentile float64 `json:"percentile,omitempty"`
	// Segments holds the per-window values Value was chosen from, so a
	// result file shows whether the host left the run alone.
	Segments []float64 `json:"segments,omitempty"`
}

// runResult is one run of one workload, traced or not.
type runResult struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Seconds  int            `json:"seconds"`
	Traced   bool           `json:"traced"`
	Params   map[string]any `json:"params"`
	Correct  bool           `json:"correct"`
	tally
	Metrics map[string]metricValue `json:"metrics"`
	WallS   float64                `json:"wall_s"`
	// YardstickUS is the median yardstick call over the run, in the host's
	// own µs, and YardstickStops how many readings were taken: wall and CPU
	// metrics are in reference time, and a host µs was worth
	// refCallMicros ÷ YardstickUS of it (yardstick.go).
	YardstickUS    float64 `json:"yardstick_us"`
	YardstickStops int     `json:"yardstick_stops"`
}

// runWorkload runs w once. Untraced it yields every end-to-end metric,
// traced every layer metric; either way every output the program produced
// has been checked, and anything wrong is counted in Failed.
func runWorkload(w workload, seed int64, seconds int, traced bool) (*runResult, error) {
	start := time.Now()
	res := &runResult{
		Workload: w.Name, Seed: seed, Seconds: seconds, Traced: traced,
		Params: w.params(seconds), Metrics: make(map[string]metricValue),
	}
	clock, err := newRefClock()
	if err != nil {
		return nil, err
	}
	defer clock.close()
	if traced {
		err = res.layers(w, clock)
	} else {
		err = res.endToEnd(w, clock)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	res.YardstickUS, res.YardstickStops = clock.yardstickMicros()
	res.Correct = res.Failed == 0
	res.WallS = time.Since(start).Seconds()
	return res, nil
}

func (res *runResult) layers(w workload, clock *refClock) error {
	l, err := runLayers(w, res.Seed, res.Seconds, clock)
	if err != nil {
		return err
	}
	res.tally = l.tally
	for _, m := range layerMetrics {
		res.Metrics[m.Name] = metricValue{Value: l.Metrics[m.Name], Unit: m.Unit, N: l.SampleN[m.Name]}
	}
	return nil
}

func (res *runResult) endToEnd(w workload, clock *refClock) error {
	opt := runOptions{seconds: res.Seconds, seed: res.Seed}
	var setupTimes []float64
	var segs []segmentData
	for i := 0; i < setups; i++ {
		clock.tick()
		t0 := clock.Now()
		d, err := deploy(w.Plane, res.Seed, false, clock)
		if err != nil {
			return err
		}
		var warm *sample
		err = d.run(func() {
			clients := newClients(d, w, res.Seed)
			warm = warmUp(d, w, clients, res.Seed)
			setupTimes = append(setupTimes, (clock.Now() - t0).Seconds())
			if i == setups-1 {
				segs = measure(d, w, clients, opt)
			}
		})
		d.close()
		if err != nil {
			return err
		}
		res.absorb(&warm.tally)
	}

	sampleN, tailQ := make(map[string]int), make(map[string]float64)
	perSegment := make([]map[string]float64, 0, len(segs))
	var all []sectionRec
	for i := range segs {
		res.absorb(&segs[i].tally)
		if len(segs[i].Recs) == 0 {
			return fmt.Errorf("a measurement window completed no section: %v", res.Errors)
		}
		perSegment = append(perSegment, endToEnd(w, segs[i], sampleN, tailQ))
		all = append(all, segs[i].Recs...)
	}

	for _, overlap := range overlappingHolders(all) {
		res.fail("%s", overlap)
	}
	// The throughputs are completed work over the whole measured interval,
	// slow windows included.
	var measured time.Duration
	ops := 0
	for _, seg := range segs {
		measured += seg.Clock
		ops += len(seg.Ops[opGet]) + len(seg.Ops[opPut])
	}
	for _, m := range endToEndMetrics {
		v := metricValue{Unit: m.Unit, N: sampleN[m.Name], Percentile: tailQ[m.Name]}
		switch m.Name {
		case "setup_s":
			v.Value, v.N = median(setupTimes), setups
		case "sections_per_s":
			v.Value, v.N = float64(len(all))/measured.Seconds(), len(all)
		case "ops_per_s":
			v.Value, v.N = float64(ops)/measured.Seconds(), ops
		default:
			windows := make([]float64, len(perSegment))
			for i, seg := range perSegment {
				windows[i] = seg[m.Name]
			}
			v.Value = median(windows)
			if len(windows) > 1 {
				v.Segments = windows
			}
		}
		res.Metrics[m.Name] = v
	}
	res.Metrics[failedOpsFrac] = metricValue{
		Value: float64(res.Failed) / float64(max(res.Attempted, 1)), Unit: unitRatio, N: res.Attempted,
	}
	return nil
}
