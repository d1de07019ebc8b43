package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/history"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/store"
)

// readWorld is fixture with one history recorder shared by the store and the
// replicas, so a test sees both which note core put on a get and whether the
// store ran a quorum read for it.
type readWorld struct {
	*world
	rec *history.Recorder
}

func readFixture(t *testing.T, mk func(rec *history.Recorder) Config, fn func(w *readWorld)) {
	t.Helper()
	rt := sim.New(11)
	net := simnet.New(rt, simnet.Config{Profile: simnet.ProfileIUs})
	rec := history.New(rt)
	st := store.New(net, store.Config{History: rec})
	w := &readWorld{world: &world{rt: rt, net: net, st: st}, rec: rec}
	cfg := mk(rec)
	cfg.History = rec
	for i := 0; i < 3; i++ {
		w.rep[i] = NewReplica(st.Client(simnet.NodeID(i)), cfg)
	}
	if err := rt.Run(func() { fn(w) }); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// quorumReads counts the store's quorum reads of key's data row so far.
func (w *readWorld) quorumReads(key string) int {
	n := 0
	for _, op := range w.rec.Ops() {
		if op.Kind == history.KindStoreGet && op.Key == DataTable+"/"+key {
			n++
		}
	}
	return n
}

// lastGet returns the most recently completed critical get of key.
func (w *readWorld) lastGet(t *testing.T, key string) history.Op {
	t.Helper()
	ops := w.rec.Ops()
	for i := len(ops) - 1; i >= 0; i-- {
		if ops[i].Kind == history.KindGet && ops[i].Key == key {
			return ops[i]
		}
	}
	t.Fatalf("no critical get of %s recorded", key)
	return history.Op{}
}

// TestReadLadder pins the read plane's one decision: for each state of the
// grant record and each kind of reader, which rung of
// guard → held value → monitored ONE → quorum serves, told apart by the note
// on the recorded op and by whether the store ran a quorum read.
func TestReadLadder(t *testing.T) {
	const key = "k"
	session := func(r *Replica, ref int64) ([]byte, error) { return r.SessionGet(key, ref) }
	tableI := func(r *Replica, ref int64) ([]byte, error) { return r.CriticalGet(key, ref) }
	put := func(t *testing.T, r *Replica, ref int64, v string) {
		t.Helper()
		if err := r.CriticalPut(key, ref, []byte(v)); err != nil {
			t.Fatalf("CriticalPut %s: %v", v, err)
		}
	}
	shortLease := Config{Leases: true, LeaseTTL: time.Second, LeaseSkew: 50 * time.Millisecond}
	var mon *history.Monitor
	adaptive := func(rec *history.Recorder) Config {
		mon = history.NewMonitor()
		rec.Attach(mon)
		return Config{AdaptiveReads: true, Monitor: mon, Mutation: MutationStaleReads}
	}

	cases := []struct {
		name string
		cfg  func(rec *history.Recorder) Config
		// setup runs with the lock granted to ref at rep[0] and returns the
		// replica the read goes to.
		setup      func(t *testing.T, w *readWorld, ref int64) *Replica
		read       func(r *Replica, ref int64) ([]byte, error)
		wantNote   string
		wantQuorum int // store quorum reads the get may cost
		want       string
	}{
		{name: "seeded/session", read: session, wantNote: history.NoteCache, want: "seed"},
		{name: "seeded/tableI", read: tableI, wantQuorum: 1, want: "seed"},
		{name: "after write/session", read: session, wantNote: history.NoteCache, want: "w1",
			setup: func(t *testing.T, w *readWorld, ref int64) *Replica {
				put(t, w.rep[0], ref, "w1")
				return w.rep[0]
			}},
		{name: "after failed write/session", read: session, wantQuorum: 1, want: "seed",
			setup: func(t *testing.T, w *readWorld, ref int64) *Replica {
				// An LWT put that loses its quorum leaves nothing behind, so
				// the quorum read the dropped record forces still sees seed.
				w.net.PartitionSites([]string{"ohio"}, []string{"ncalifornia", "oregon"})
				if err := w.rep[0].CriticalPut(key, ref, []byte("unacked")); !errors.Is(err, ErrUnavailable) {
					t.Fatalf("partitioned put = %v, want ErrUnavailable", err)
				}
				w.net.Heal()
				return w.rep[0]
			},
			cfg: func(*history.Recorder) Config { return Config{Mode: ModeLWT} }},
		{name: "refreshed by quorum read/session", read: session, wantNote: history.NoteCache, want: "seed",
			setup: func(t *testing.T, w *readWorld, ref int64) *Replica {
				w.rep[0].dropHeld(key, ref)
				if _, err := w.rep[0].SessionGet(key, ref); err != nil {
					t.Fatalf("refreshing get: %v", err)
				}
				return w.rep[0]
			}},
		{name: "adopted grant/session", read: session, wantQuorum: 1, want: "seed",
			setup: func(t *testing.T, w *readWorld, ref int64) *Replica {
				w.rt.Sleep(time.Second) // the async grant cell reaches rep[1]
				return w.rep[1]
			}},
		{name: "lease live/tableI", read: tableI, wantNote: history.NoteLease, want: "seed",
			cfg: func(*history.Recorder) Config { return shortLease }},
		{name: "lease closed/tableI", read: tableI, wantQuorum: 1, want: "seed",
			cfg: func(*history.Recorder) Config { return shortLease },
			setup: func(t *testing.T, w *readWorld, ref int64) *Replica {
				w.rt.Sleep(1200 * time.Millisecond)
				return w.rep[0]
			}},
		{name: "lease closed/session", read: session, wantNote: history.NoteCache, want: "seed",
			cfg: func(*history.Recorder) Config { return shortLease },
			setup: func(t *testing.T, w *readWorld, ref int64) *Replica {
				w.rt.Sleep(1200 * time.Millisecond)
				return w.rep[0]
			}},
		{name: "adaptive weak/tableI", read: tableI, wantNote: history.NoteWeak, want: "seed", cfg: adaptive},
		{name: "adaptive flipped/tableI", read: tableI, wantQuorum: 1, want: "c", cfg: adaptive,
			setup: func(t *testing.T, w *readWorld, ref int64) *Replica {
				// The injected staleness serves every weak read after the
				// first one write behind; the third such violation flips
				// the site.
				r := w.rep[0]
				put(t, r, ref, "w0")
				if _, err := r.CriticalGet(key, ref); err != nil {
					t.Fatalf("weak get 0: %v", err)
				}
				prev := "w0"
				for _, next := range []string{"a", "b", "c"} {
					put(t, r, ref, next)
					if v, err := r.CriticalGet(key, ref); err != nil || string(v) != prev {
						t.Fatalf("weak get after %s = (%q, %v), want the injected stale %s", next, v, err, prev)
					}
					prev = next
				}
				if !mon.Flipped(r.site) {
					t.Fatal("monitor did not flip")
				}
				return r
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			if cfg == nil {
				cfg = func(*history.Recorder) Config { return Config{} }
			}
			readFixture(t, cfg, func(w *readWorld) {
				// A previous section leaves "seed" for the grant to piggyback.
				ref0, _ := w.rep[2].CreateLockRef(key)
				awaitLock(t, w.world, w.rep[2], key, ref0)
				put(t, w.rep[2], ref0, "seed")
				if err := w.rep[2].ReleaseLock(key, ref0); err != nil {
					t.Fatalf("seeding release: %v", err)
				}
				ref, err := w.rep[0].CreateLockRef(key)
				if err != nil {
					t.Fatalf("CreateLockRef: %v", err)
				}
				awaitLock(t, w.world, w.rep[0], key, ref)
				r := w.rep[0]
				if tc.setup != nil {
					r = tc.setup(t, w, ref)
				}

				before := w.quorumReads(key)
				v, err := tc.read(r, ref)
				if err != nil || string(v) != tc.want {
					t.Fatalf("read = (%q, %v), want %s", v, err, tc.want)
				}
				if got := w.quorumReads(key) - before; got != tc.wantQuorum {
					t.Errorf("store quorum reads = %d, want %d", got, tc.wantQuorum)
				}
				if op := w.lastGet(t, key); op.Note != tc.wantNote || op.Site != r.site {
					t.Errorf("recorded get = %s, want note %q at %s", op, tc.wantNote, r.site)
				}
				if res := history.CheckECF(w.rec.Ops()); len(res) > 0 {
					t.Errorf("history does not check: %v", res)
				}
			})
		})
	}
}
