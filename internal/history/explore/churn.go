package explore

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/simnet"
	"repro/music"
)

// MembershipEvent is one timed reconfiguration in a churn script: at At, the
// driver proposes the change and retries until it commits (reconfiguration
// RPCs legitimately fail while a concurrent fault window is open).
type MembershipEvent struct {
	At   time.Duration
	Op   string // "join", "retire", or "replace"
	Site string // the site joining, retiring, or being replaced
	With string // replace only: the spare taking Site's place
}

// String renders the event as one membership-script line.
func (e MembershipEvent) String() string {
	detail := " site=" + e.Site
	if e.Op == "replace" {
		detail += " with=" + e.With
	}
	return fmt.Sprintf("%-9s at=%-8v%s", e.Op, e.At, detail)
}

// ChurnClasses returns the set of reconfiguration ops the script exercises.
func (s Script) ChurnClasses() map[string]bool {
	m := make(map[string]bool, 3)
	for _, ev := range s.Membership {
		m[ev.Op] = true
	}
	return m
}

// GenerateChurn derives a live-membership churn Script from a seed. It is a
// separate generator from Generate so the pinned fault-exploration seeds stay
// byte-stable. Every script starts the three-site cluster with two spare
// sites provisioned and draws one of the three reconfiguration scenarios the
// membership design must survive:
//
//   - join-during-section: a spare joins while clients hold sections whose
//     keys the new epoch may move;
//   - retire-of-lockholder-site: a spare joins early, then the home site of
//     the busiest client retires while that client is mid-section, driving
//     the epoch fence + failover re-bind path;
//   - replace-under-partition: one site is partitioned off (or crashed) and
//     replaced by a spare while the fault window is still open.
//
// A third of the seeds also draw a background message-loss window, so
// reconfiguration is exercised over a lossy config log.
func GenerateChurn(seed int64) Script {
	rng := rand.New(rand.NewSource(seed))
	sites := simnet.ProfileIUs.Sites()
	s := Script{
		Seed:     seed,
		Profile:  music.ProfileIUs,
		T:        30 * time.Second,
		Deadline: 3 * time.Minute,
		Policy:   drawPolicy(rng),
		Spares:   []string{"site-d", "site-e"},
	}
	s.HolderCache = rng.Intn(2) == 1
	for i := 0; i < 1+rng.Intn(2); i++ {
		s.Keys = append(s.Keys, fmt.Sprintf("key-%c", 'a'+i))
	}

	victim := sites[rng.Intn(len(sites))]
	switch rng.Intn(3) {
	case 0: // join-during-section
		s.Membership = []MembershipEvent{
			{At: time.Duration(400+rng.Intn(400)) * time.Millisecond, Op: "join", Site: "site-d"},
		}
	case 1: // retire-of-lockholder-site (join first so three sites remain)
		join := time.Duration(200+rng.Intn(200)) * time.Millisecond
		s.Membership = []MembershipEvent{
			{At: join, Op: "join", Site: "site-d"},
			{At: join + time.Duration(400+rng.Intn(400))*time.Millisecond, Op: "retire", Site: victim},
		}
	default: // replace-under-partition
		w := Windows(rng, 1, 200*time.Millisecond)[0]
		f := FaultEvent{At: w.At, For: w.For}
		if rng.Intn(2) == 0 {
			f.Kind = FaultPartition
			for _, site := range sites {
				if site == victim {
					f.A = append(f.A, site)
				} else {
					f.B = append(f.B, site)
				}
			}
		} else {
			f.Kind, f.Site = FaultCrash, victim
		}
		s.Faults = append(s.Faults, f)
		s.Membership = []MembershipEvent{
			{At: f.At + f.For/4, Op: "replace", Site: victim, With: "site-d"},
		}
	}
	if rng.Intn(3) == 0 {
		last := s.Membership[len(s.Membership)-1].At
		s.Faults = append(s.Faults, FaultEvent{
			At:   last + time.Duration(500+rng.Intn(500))*time.Millisecond,
			For:  time.Duration(300+rng.Intn(500)) * time.Millisecond,
			Kind: FaultLoss,
			Rate: 0.02 + 0.06*rng.Float64(),
		})
	}

	// Clients: the first is homed at the victim site with sections long
	// enough in think-time spread to straddle the reconfigurations; the rest
	// spread across the remaining sites.
	nClients := 2 + rng.Intn(2)
	for ci := 0; ci < nClients; ci++ {
		home := victim
		if ci > 0 {
			others := make([]string, 0, len(sites)-1)
			for _, site := range sites {
				if site != victim {
					others = append(others, site)
				}
			}
			home = others[(ci-1)%len(others)]
		}
		plan := ClientPlan{Home: home}
		for si := 0; si < 3+rng.Intn(2); si++ {
			sec := SectionPlan{
				Key:      s.Keys[rng.Intn(len(s.Keys))],
				PreDelay: time.Duration(rng.Intn(700)) * time.Millisecond,
				Value:    fmt.Sprintf("c%d-s%d", ci, si),
			}
			switch rng.Intn(6) {
			case 0:
				sec.Value = ""
			case 1:
				sec.Value2 = sec.Value + "-b"
			case 2:
				sec.Delete = true
			}
			plan.Sections = append(plan.Sections, sec)
		}
		s.Clients = append(s.Clients, plan)
	}
	return s
}

// ExploreChurn generates and runs one churn schedule per seed — the campaign
// loop behind the pinned membership-churn CI batch and its nightly
// fresh-seed counterpart.
func ExploreChurn(seeds []int64) []Outcome {
	outs := make([]Outcome, 0, len(seeds))
	for _, seed := range seeds {
		outs = append(outs, Run(GenerateChurn(seed)))
	}
	return outs
}
