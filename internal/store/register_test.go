package store

import (
	"maps"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// recordingTransport notes how each service was registered on the transport
// it wraps: "goroutine" through HandleWithCost. It does not offer
// transport.InlineHandler; inlineRecorder adds that.
type recordingTransport struct {
	transport.Transport
	how map[string]string
}

func (r *recordingTransport) HandleWithCost(node transport.NodeID, svc string, h transport.Handler, base, perKB time.Duration) {
	r.how[svc] = "goroutine"
	r.Transport.HandleWithCost(node, svc, h, base, perKB)
}

// inlineRecorder is a recordingTransport that offers the inline capability
// and notes its registrations as "inline".
type inlineRecorder struct{ *recordingTransport }

func (r inlineRecorder) HandleInline(node transport.NodeID, svc string, h transport.Handler, base, perKB time.Duration) {
	r.how[svc] = "inline"
	r.Transport.HandleWithCost(node, svc, h, base, perKB)
}

// stepProbe is simnet with each inline registration wrapped to note, per
// service, whether its requests ran with no task current: a step has no
// task-local to set.
type stepProbe struct {
	*simnet.Network
	v     *sim.Virtual
	steps map[string]bool
}

func (p stepProbe) HandleInline(node transport.NodeID, svc string, h transport.Handler, base, perKB time.Duration) {
	p.Network.HandleInline(node, svc, func(from transport.NodeID, req any) (any, error) {
		p.v.SetTaskLocal(true)
		p.steps[svc] = p.v.TaskLocal() == nil
		p.v.SetTaskLocal(nil)
		return h(from, req)
	}, base, perKB)
}

// TestPerRowServicesRegisterInline pins which replica services may run
// without a task or goroutine of their own: exactly the five that work on
// one row under one stripe lock and never wait. The whole-table scan and
// the state-transfer responder keep a goroutine each, and a transport
// without the capability gets every service the way it always did. The
// simulated plane offers the capability, and serves a per-row request in a
// step, with no task current.
func TestPerRowServicesRegisterInline(t *testing.T) {
	v := sim.New(1)
	net := simnet.New(v, simnet.Config{Profile: simnet.ProfileIUs})
	if _, ok := transport.Transport(net).(transport.InlineHandler); !ok {
		t.Fatal("simnet does not offer transport.InlineHandler; the simulated plane must serve per-row requests as steps")
	}
	one := Config{LocalNodes: []transport.NodeID{0}}

	rec := &recordingTransport{Transport: net, how: map[string]string{}}
	New(inlineRecorder{rec}, one)
	want := map[string]string{
		svcApply:    "inline",
		svcRead:     "inline",
		svcPrepare:  "inline",
		svcPropose:  "inline",
		svcCommit:   "inline",
		svcScan:     "goroutine",
		svcTransfer: "goroutine",
	}
	if !maps.Equal(rec.how, want) {
		t.Errorf("registrations with the capability = %v, want %v", rec.how, want)
	}

	plain := &recordingTransport{Transport: net, how: map[string]string{}}
	New(plain, one)
	for svc := range want {
		want[svc] = "goroutine"
	}
	if !maps.Equal(plain.how, want) {
		t.Errorf("registrations without the capability = %v, want %v", plain.how, want)
	}

	probe := stepProbe{Network: simnet.New(v, simnet.Config{Profile: simnet.ProfileIUs}), v: v, steps: map[string]bool{}}
	c := New(probe, Config{})
	err := v.Run(func() {
		if err := c.Client(0).Put(tbl, "k", val("x"), Quorum); err != nil {
			t.Errorf("Put: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran, ok := probe.steps[svcApply]; !ok || !ran {
		t.Errorf("a %s request on simnet ran in a step: %v (served: %v); want true", svcApply, ran, ok)
	}
}
