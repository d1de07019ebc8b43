package store

import (
	"sort"

	"repro/internal/placement"
	"repro/internal/transport"
)

// fnv64a is hash/fnv's 64-bit FNV-1a inlined over a string so the hot
// paths (ring placement, shard routing) stay allocation-free.
func fnv64a(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// ShardOf maps key to one of shards partitions. It is a pure function of
// the key bytes, so every site and every process routes a given key to the
// same shard index — the property the sharded lock/data plane relies on
// for cross-site grant adoption and failover. shards <= 1 short-circuits
// to 0 so unsharded deployments pay nothing.
func ShardOf(key string, shards int) int {
	if shards <= 1 {
		return 0
	}
	return int(fnv64a(key) % uint64(shards))
}

// RingNode names one placement participant: a node and the site hosting
// it. It aliases placement.Node so membership can cross layer boundaries
// (store, history's epoch checker, admin tooling) without conversion.
type RingNode = placement.Node

// ring places keys on replicas. It has two modes:
//
// Static (walk != nil): nodes are arranged in a site-interleaved walk
// (site1[0], site2[0], site3[0], site1[1], ...) and a key takes RF
// consecutive entries starting at hash(key) mod len(walk), spreading its
// replicas across sites — the paper's deployment keeps one copy of every
// key-value pair per site (NetworkTopologyStrategy in Cassandra terms).
// This is the historical placement for fixed-membership clusters; every
// pinned fault/explorer seed was recorded against it, so it must stay
// byte-identical.
//
// Consistent-hash (cons != nil): placement delegates to a
// placement.Ring — the epoch-versioned dynamic-membership mode with
// bounded key movement on join/retire. See package placement.
type ring struct {
	walk   []transport.NodeID
	sets   [][]transport.NodeID // static: the replica set starting at each walk position
	cons   *placement.Ring
	rf     int
	nsites int
	sites  map[transport.NodeID]string
}

// buildRing derives sites from the transport and builds a static
// (site-interleaved modulo) ring — the fixed-membership path.
func buildRing(tr transport.Transport, nodes []transport.NodeID, rf int) ring {
	bySite := make(map[string][]transport.NodeID)
	var sites []string
	r := ring{sites: make(map[transport.NodeID]string, len(nodes))}
	for _, id := range nodes {
		site := tr.SiteOf(id)
		r.sites[id] = site
		if len(bySite[site]) == 0 {
			sites = append(sites, site)
		}
		bySite[site] = append(bySite[site], id)
	}
	sort.Strings(sites)
	r.nsites = len(sites)
	for _, site := range sites {
		ids := bySite[site]
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	}

	for i := 0; ; i++ {
		added := false
		for _, site := range sites {
			if i < len(bySite[site]) {
				r.walk = append(r.walk, bySite[site][i])
				added = true
			}
		}
		if !added {
			break
		}
	}
	if rf > len(r.walk) {
		rf = len(r.walk)
	}
	r.rf = rf
	// A key's replicas are the rf walk entries from its start position, so
	// the ring has only len(walk) replica sets: build each once, over one
	// backing array, and hand them out read-only.
	all := make([]transport.NodeID, 0, len(r.walk)*rf)
	r.sets = make([][]transport.NodeID, len(r.walk))
	for pos := range r.walk {
		start := len(all)
		for i := 0; i < rf; i++ {
			all = append(all, r.walk[(pos+i)%len(r.walk)])
		}
		r.sets[pos] = all[start:len(all):len(all)]
	}
	return r
}

// buildRingMembers builds a consistent-hash ring for an explicit member
// set — the dynamic-membership path. rf is clamped to the node count.
func buildRingMembers(members []RingNode, rf int) ring {
	cons := placement.New(members, rf)
	r := ring{
		cons:   cons,
		rf:     cons.RF(),
		nsites: cons.Sites(),
		sites:  make(map[transport.NodeID]string, len(members)),
	}
	for _, m := range members {
		r.sites[m.ID] = m.Site
	}
	return r
}

// replicasFor returns the RF nodes responsible for key. On the static ring
// the slice is shared by every key that starts at the same walk position:
// callers must not modify it. The consistent-hash ring builds a fresh one.
func (r ring) replicasFor(key string) []transport.NodeID {
	if r.cons != nil {
		return r.cons.ReplicasFor(key)
	}
	if len(r.walk) == 0 || r.rf == 0 {
		return nil
	}
	return r.sets[fnv64a(key)%uint64(len(r.walk))]
}

// replicasInto appends key's replicas to *out (reusable buffer form).
func (r ring) replicasInto(key string, out *[]transport.NodeID) {
	if r.cons != nil {
		r.cons.ReplicasInto(key, out)
		return
	}
	*out = append(*out, r.replicasFor(key)...)
}

// placesSite reports whether any replica of key lives in site.
func (r ring) placesSite(key, site string) bool {
	if r.cons != nil {
		return r.cons.PlacesSite(key, site)
	}
	for _, id := range r.replicasFor(key) {
		if r.sites[id] == site {
			return true
		}
	}
	return false
}

// nodes returns the member node IDs in ascending order.
func (r ring) nodes() []transport.NodeID {
	out := make([]transport.NodeID, 0, len(r.sites))
	for id := range r.sites {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// contains reports whether id is one of the given replicas.
func contains(ids []transport.NodeID, id transport.NodeID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}
