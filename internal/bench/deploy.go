package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/crdb"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/zk"
)

// musicWorld is a fresh MUSIC deployment for one measurement: each store
// node hosts a colocated MUSIC replica (Fig 1), and load-generator workers
// bind to their site's replicas.
type musicWorld struct {
	rt   *sim.Virtual
	net  *simnet.Network
	st   *store.Cluster
	obs  *obs.Obs        // nil unless built traced
	reps []*core.Replica // one per node, node-indexed
}

// buildMUSIC constructs the deployment. T is sized generously so long
// critical sections (batch 1000 × quorum put) never hit the expiry guard.
func buildMUSIC(profile *simnet.Profile, nodesPerSite int, mode core.Mode, seed int64) *musicWorld {
	return buildMUSICWorld(profile, nodesPerSite, mode, seed, false)
}

// buildMUSICTraced is buildMUSIC with the observability subsystem on; the
// trace and fig5b experiments read span trees and per-span aggregates off
// w.obs.
func buildMUSICTraced(profile *simnet.Profile, nodesPerSite int, mode core.Mode, seed int64) *musicWorld {
	return buildMUSICWorld(profile, nodesPerSite, mode, seed, true)
}

// buildMUSICWorld wires store and replicas by hand rather than through
// music.NewOverTransport: the paper's experiments run one MUSIC replica per
// store node (not one per site, sharded over the site's nodes), and the
// MSCP baseline's core.ModeLWT, which the music topology does not offer.
func buildMUSICWorld(profile *simnet.Profile, nodesPerSite int, mode core.Mode, seed int64, traced bool) *musicWorld {
	rt := sim.New(seed)
	var ob *obs.Obs
	if traced {
		ob = obs.New(rt)
	}
	net := simnet.New(rt, simnet.Config{Profile: profile, NodesPerSite: nodesPerSite, Obs: ob})
	st := store.New(net, store.Config{RF: 3})
	w := &musicWorld{rt: rt, net: net, st: st, obs: ob}
	for _, id := range net.Nodes() {
		w.reps = append(w.reps, core.NewReplica(st.Client(id), core.Config{
			T:             10 * time.Minute,
			OrphanTimeout: 5 * time.Second,
			Mode:          mode,
		}))
	}
	return w
}

// replicaFor returns the MUSIC replica a worker at the given index uses:
// workers are spread round-robin across all nodes (and hence sites).
func (w *musicWorld) replicaFor(worker int) *core.Replica {
	return w.reps[worker%len(w.reps)]
}

// lock creates a lockRef for key at rep and polls AcquireLock every poll
// until the lock is granted; waited reports whether any poll found another
// holder ahead.
func lock(rt *sim.Virtual, rep *core.Replica, key string, poll time.Duration) (ref int64, waited bool, err error) {
	if ref, err = rep.CreateLockRef(key); err != nil {
		return 0, false, err
	}
	for {
		ok, err := rep.AcquireLock(key, ref)
		if err != nil || ok {
			return ref, waited, err
		}
		waited = true
		rt.Sleep(poll)
	}
}

// runCS executes one full MUSIC critical section over key: createLockRef,
// acquire (polling every 1ms), batch criticalPuts of value, release — the
// Fig 4/6 write unit. Keys are per-worker, so acquisition succeeds
// immediately.
func runCS(rt *sim.Virtual, rep *core.Replica, key string, batch int, value []byte) error {
	ref, _, err := lock(rt, rep, key, time.Millisecond)
	if err != nil {
		return err
	}
	for i := 0; i < batch; i++ {
		if err := rep.CriticalPut(key, ref, value); err != nil {
			return err
		}
	}
	return rep.ReleaseLock(key, ref)
}

// zkWorld is a fresh ZooKeeper-baseline deployment.
type zkWorld struct {
	rt  *sim.Virtual
	net *simnet.Network
	c   *zk.Cluster
}

func buildZK(profile *simnet.Profile, seed int64) (*zkWorld, error) {
	rt := sim.New(seed)
	net := simnet.New(rt, simnet.Config{Profile: profile})
	c, err := zk.New(net, net.Nodes())
	if err != nil {
		return nil, err
	}
	return &zkWorld{rt: rt, net: net, c: c}, nil
}

// crdbWorld is a fresh CockroachDB-baseline deployment.
type crdbWorld struct {
	rt  *sim.Virtual
	net *simnet.Network
	c   *crdb.Cluster
}

func buildCRDB(profile *simnet.Profile, seed int64) (*crdbWorld, error) {
	rt := sim.New(seed)
	net := simnet.New(rt, simnet.Config{Profile: profile})
	c, err := crdb.New(net, net.Nodes())
	if err != nil {
		return nil, err
	}
	return &crdbWorld{rt: rt, net: net, c: c}, nil
}

// value returns a payload of the given size.
func value(size int) []byte {
	v := make([]byte, size)
	for i := range v {
		v[i] = byte('a' + i%26)
	}
	return v
}

// fmtBytes renders a data size the way the paper labels its x-axes.
func fmtBytes(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
