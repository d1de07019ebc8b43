// Package obs is the observability subsystem: a lock-cheap metrics registry
// (counters, gauges, latency histograms with per-site/per-node labels) and a
// causal tracer whose spans follow one logical operation across tasks, RPCs
// and sites — the measurement layer behind the paper's per-operation
// breakdown (Fig 5b) and the queueing analyses of §VIII.
//
// Both halves are clocked by sim.Runtime, never time.Now(), so the same
// instrumentation yields exact virtual-time measurements under the
// simulator and wall-clock measurements in live mode.
//
// Everything is nil-safe by design: a nil *Obs, *Tracer, *Registry, *Span,
// *Counter, … turns every method into a no-op, so instrumented code paths
// carry no conditionals and — crucially — no allocations when observability
// is disabled (the default). obs_test.go proves the zero-allocation claim.
package obs

import (
	"repro/internal/sim"
)

// Obs bundles the two halves of the subsystem. The zero value of *Obs (nil)
// is the disabled state.
type Obs struct {
	reg    *Registry
	tracer *Tracer
}

// spanRing is the capacity of the completed-span ring buffer backing trace
// assembly (/traces, -exp trace).
const spanRing = 8192

// New builds an enabled Obs over rt.
func New(rt sim.Runtime) *Obs {
	return &Obs{
		reg:    newRegistry(rt),
		tracer: newTracer(rt, spanRing),
	}
}

// Metrics returns the metrics registry (nil when disabled).
func (o *Obs) Metrics() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Tracer returns the causal tracer (nil when disabled).
func (o *Obs) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.tracer
}
