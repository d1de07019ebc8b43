// Package simnet models a multi-site cluster on top of a sim.Runtime:
// sites connected by WAN links with configurable round-trip times (Table II
// of the paper), per-node NIC bandwidth with egress serialization, per-node
// CPUs that bound throughput, and fault injection (partitions,
// message loss, crashes). All protocol traffic in this repository flows
// through a Network.
package simnet

import (
	"fmt"
	"time"
)

// Profile is a symmetric inter-site latency matrix. The paper's Table II
// profiles are predefined: Profile11, ProfileIUs and ProfileIUsEu.
type Profile struct {
	name  string
	sites []string
	rtt   map[sitePair]time.Duration
	local time.Duration // intra-site RTT between distinct nodes
}

type sitePair struct{ a, b string }

func orderedPair(a, b string) sitePair {
	if a > b {
		a, b = b, a
	}
	return sitePair{a, b}
}

// NewProfile creates an empty profile over the given sites with a default
// intra-site RTT of 200µs (the paper's same-metro figure).
func NewProfile(name string, sites ...string) *Profile {
	return &Profile{
		name:  name,
		sites: append([]string(nil), sites...),
		rtt:   make(map[sitePair]time.Duration),
		local: 200 * time.Microsecond,
	}
}

// Name returns the profile's display name.
func (p *Profile) Name() string { return p.name }

// Sites returns the site names in declaration order. The returned slice is
// a copy.
func (p *Profile) Sites() []string { return append([]string(nil), p.sites...) }

// SetRTT sets the symmetric round-trip time between sites a and b.
func (p *Profile) SetRTT(a, b string, rtt time.Duration) {
	p.rtt[orderedPair(a, b)] = rtt
}

// RTT returns the round-trip time between two sites. Same-site pairs use
// the intra-site RTT.
func (p *Profile) RTT(a, b string) time.Duration {
	if a == b {
		return p.local
	}
	if d, ok := p.rtt[orderedPair(a, b)]; ok {
		return d
	}
	panic(fmt.Sprintf("simnet: profile %q has no RTT for %s-%s", p.name, a, b))
}

// OneWay returns half the round-trip time between two sites.
func (p *Profile) OneWay(a, b string) time.Duration { return p.RTT(a, b) / 2 }

// Extend returns a copy of p (renamed to name) with additional sites
// appended — the substrate for live-membership scenarios, where a cluster
// starts on p's sites and spare sites join later. Every link touching a
// new site defaults to the worst inter-site RTT already in p (or the
// intra-site RTT when p has none); callers can override with SetRTT.
func (p *Profile) Extend(name string, spares ...string) *Profile {
	out := &Profile{
		name:  name,
		sites: append(p.Sites(), spares...),
		rtt:   make(map[sitePair]time.Duration, len(p.rtt)),
		local: p.local,
	}
	worst := p.local
	for k, d := range p.rtt {
		out.rtt[k] = d
		if d > worst {
			worst = d
		}
	}
	for _, s := range spares {
		for _, other := range out.sites {
			if other == s {
				continue
			}
			pair := orderedPair(s, other)
			if _, ok := out.rtt[pair]; !ok {
				out.rtt[pair] = worst
			}
		}
	}
	return out
}

// The paper's Table II latency profiles. RTTs are given in the order
// Site1-Site2, Site1-Site3, Site2-Site3 and mirror AWS inter-region
// measurements.
var (
	// Profile11 keeps all sites within one region (Ohio, Ohio, N. Virginia).
	Profile11 = tableII("11", "ohio-a", "ohio-b", "nvirginia",
		200*time.Microsecond, 15140*time.Microsecond, 15140*time.Microsecond)

	// ProfileIUs spans the continental US (Ohio, N. California, Oregon).
	ProfileIUs = tableII("IUs", "ohio", "ncalifornia", "oregon",
		53790*time.Microsecond, 72140*time.Microsecond, 24200*time.Microsecond)

	// ProfileIUsEu adds a transatlantic site (Ohio, N. California, Frankfurt).
	ProfileIUsEu = tableII("IUsEu", "ohio", "ncalifornia", "frankfurt",
		53790*time.Microsecond, 100560*time.Microsecond, 150740*time.Microsecond)

	// ProfileLocal is a fast three-site profile for examples and live demos.
	ProfileLocal = tableII("local", "site-a", "site-b", "site-c",
		2*time.Millisecond, 2*time.Millisecond, 2*time.Millisecond)
)

func tableII(name, s1, s2, s3 string, rtt12, rtt13, rtt23 time.Duration) *Profile {
	p := NewProfile(name, s1, s2, s3)
	p.SetRTT(s1, s2, rtt12)
	p.SetRTT(s1, s3, rtt13)
	p.SetRTT(s2, s3, rtt23)
	return p
}

// Profiles returns the paper's three evaluation profiles in Table II order.
func Profiles() []*Profile { return []*Profile{Profile11, ProfileIUs, ProfileIUsEu} }

// Named returns the predefined profile called name — one of Table II's
// ("11", "IUs", "IUsEu") or ProfileLocal's "local" — or nil.
func Named(name string) *Profile {
	for _, p := range append(Profiles(), ProfileLocal) {
		if p.name == name {
			return p
		}
	}
	return nil
}
