package nettrans_test

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// countedReply is a reply payload whose codec counts its decodes.
type countedReply struct{}

var countedDecodes atomic.Int64

func init() {
	wire.Register(921, "nettrans.countedReply",
		func(*wire.Encoder, countedReply) {},
		func(*wire.Decoder) countedReply {
			countedDecodes.Add(1)
			return countedReply{}
		})
}

// TestStragglerReplyNotDecoded: a reply whose caller has stopped waiting is
// dropped before its payload is decoded. A two-leg Multicast needing one
// reply returns on the fast leg; the slow leg answers afterwards, and only
// the fast leg's reply may have been decoded once the straggler is in.
func TestStragglerReplyNotDecoded(t *testing.T) {
	c := newCluster(t, 3)
	defer c.Close()
	release := make(chan struct{})
	c.ts[1].Handle(1, "straggle", func(transport.NodeID, any) (any, error) {
		return countedReply{}, nil
	})
	// Inline handlers run in order on the connection's read loop, so the
	// "after" reply is written behind the straggler's on the same
	// connection, and its caller's reply pump reads it second.
	c.ts[2].HandleInline(2, "straggle", func(transport.NodeID, any) (any, error) {
		<-release
		return countedReply{}, nil
	}, 0, 0)
	c.ts[2].HandleInline(2, "after", func(transport.NodeID, any) (any, error) {
		return "done", nil
	}, 0, 0)

	before := countedDecodes.Load()
	results := c.ts[0].Multicast(0, []transport.NodeID{1, 2}, "straggle", "ping", 1, 5*time.Second)
	close(release)
	if len(results) != 1 || results[0].From != 1 || results[0].Err != nil {
		t.Fatalf("Multicast = %+v, want the fast leg's reply alone", results)
	}
	if _, err := c.ts[0].CallTimeout(0, 2, "after", "ping", 5*time.Second); err != nil {
		t.Fatalf("Call after the straggler: %v", err)
	}
	if got := countedDecodes.Load() - before; got != 1 {
		t.Fatalf("reply payloads decoded = %d, want 1: the straggler's was decoded with nobody waiting", got)
	}
}
