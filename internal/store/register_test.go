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

// TestPerRowServicesRegisterInline pins which replica services may run on a
// connection's read loop: exactly the six that work on one row under one
// stripe lock and never wait. The whole-table scan and the state-transfer
// responder keep a goroutine each, and a transport without the capability —
// simnet, the WAN plane — gets every service the way it always did.
func TestPerRowServicesRegisterInline(t *testing.T) {
	net := simnet.New(sim.New(1), simnet.Config{Profile: simnet.ProfileIUs})
	if _, ok := transport.Transport(net).(transport.InlineHandler); ok {
		t.Fatal("simnet offers transport.InlineHandler; the simulated plane must serve every request as its own task")
	}
	one := Config{LocalNodes: []transport.NodeID{0}}

	rec := &recordingTransport{Transport: net, how: map[string]string{}}
	New(inlineRecorder{rec}, one)
	want := map[string]string{
		svcApply:    "inline",
		svcRead:     "inline",
		svcDigest:   "inline",
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
}
