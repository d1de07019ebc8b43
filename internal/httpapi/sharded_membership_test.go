package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/music"
)

// shardedHarness runs a 2-shard cluster behind NewSharded with one client
// per shard, the wiring cmd/musicd uses for -shards deployments.
func shardedHarness(t *testing.T, shards int) *api {
	t.Helper()
	return serve(t, func(c *music.Cluster) http.Handler {
		cls := make([]*music.Client, shards)
		for i := range cls {
			cls[i] = c.Client("site-a")
		}
		return NewSharded(cls)
	}, music.WithShards(shards), music.WithNodesPerSite(shards))
}

// keysCoveringShards returns one key per shard, so a routing bug (every
// request landing on cls[0]) cannot hide behind shard-0-only traffic.
func keysCoveringShards(t *testing.T, shards int) []string {
	t.Helper()
	keys := make([]string, shards)
	found := 0
	for i := 0; found < shards && i < 10_000; i++ {
		k := fmt.Sprintf("key-%d", i)
		if s := store.ShardOf(k, shards); keys[s] == "" {
			keys[s] = k
			found++
		}
	}
	if found < shards {
		t.Fatalf("could not find keys covering %d shards", shards)
	}
	return keys
}

func TestShardedRoutingServesEveryShard(t *testing.T) {
	const shards = 2
	a := shardedHarness(t, shards)
	a.run(func() {
		// A full critical section on a key of each shard: the per-shard client
		// must carry the whole lock lifecycle, not just reads.
		for i, key := range keysCoveringShards(t, shards) {
			ref := a.lock(key)
			val := fmt.Sprintf("shard-%d-value", i)
			resp, body := a.do("PUT", fmt.Sprintf("/v1/keys/%s?lockRef=%d", key, ref), val)
			if resp.StatusCode != http.StatusNoContent {
				t.Fatalf("criticalPut %s: %d %s", key, resp.StatusCode, body)
			}
			resp, body = a.do("GET", fmt.Sprintf("/v1/keys/%s?lockRef=%d", key, ref), "")
			if resp.StatusCode != http.StatusOK || body != val {
				t.Fatalf("criticalGet %s = %d %q, want %q", key, resp.StatusCode, body, val)
			}
			resp, body = a.do("DELETE", fmt.Sprintf("/v1/locks/%s/%d", key, ref), "")
			if resp.StatusCode != http.StatusNoContent {
				t.Fatalf("release %s: %d %s", key, resp.StatusCode, body)
			}
		}

		// The keyless listing (served by cls[0]) still sees keys of every shard:
		// sharding splits coordination, not the data plane.
		resp, body := a.do("GET", "/v1/keys", "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("keys = %d %s", resp.StatusCode, body)
		}
		for _, key := range keysCoveringShards(t, shards) {
			if !strings.Contains(body, key) {
				t.Errorf("key listing missing %s: %s", key, body)
			}
		}
	})
}

func TestNewShardedPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSharded(nil) did not panic")
		}
	}()
	NewSharded(nil)
}

func decodeMembership(t *testing.T, body string) membershipBody {
	t.Helper()
	var m membershipBody
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatalf("decode membership: %v\n%s", err, body)
	}
	return m
}

func TestMembershipEndpointsOnStaticCluster(t *testing.T) {
	a := harness(t)
	a.run(func() {
		// A fixed-membership cluster reports epoch 0 (membership not managed).
		resp, body := a.do("GET", "/v1/membership", "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET membership = %d %s", resp.StatusCode, body)
		}
		if m := decodeMembership(t, body); m.Epoch != 0 || len(m.Members) != 0 {
			t.Fatalf("static cluster membership = %+v, want epoch 0 and no members", m)
		}

		// Reconfiguring it is a 409: there is no config log to replicate through.
		resp, body = a.do("POST", "/v1/admin/membership", `{"op":"retire","site":"site-b"}`)
		if resp.StatusCode != http.StatusConflict || !strings.Contains(body, "no config log") {
			t.Fatalf("POST on static cluster = %d %s, want 409 no config log", resp.StatusCode, body)
		}
	})
}

func TestMembershipEndpointBadRequests(t *testing.T) {
	a := harness(t)
	a.run(func() {
		for _, tc := range []struct {
			body string
			want string
		}{
			{`{"op":"explode","site":"site-a"}`, "unknown action"},
			{`{"op":"join"}`, "missing site"},
			{`{"op":"replace","site":"site-a"}`, `needs \"with\"`},
			{`not json`, "bad body"},
		} {
			resp, body := a.do("POST", "/v1/admin/membership", tc.body)
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, tc.want) {
				t.Errorf("POST %s = %d %s, want 400 %s", tc.body, resp.StatusCode, body, tc.want)
			}
		}
	})
}

// TestMembershipEndpointReconfigures drives join, retire and replace through
// the admin endpoint against a live dynamic cluster and watches the epoch
// advance.
func TestMembershipEndpointReconfigures(t *testing.T) {
	a := harness(t, music.WithSpareSites("site-d"))
	a.run(func() {
		resp, body := a.do("GET", "/v1/membership", "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET membership = %d %s", resp.StatusCode, body)
		}
		if m := decodeMembership(t, body); m.Epoch != 1 {
			t.Fatalf("initial epoch = %d, want 1", m.Epoch)
		}

		post := func(reqBody string, wantEpoch int64, wantSites, wantGone []string) {
			t.Helper()
			resp, body := a.do("POST", "/v1/admin/membership", reqBody)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("POST %s = %d %s", reqBody, resp.StatusCode, body)
			}
			m := decodeMembership(t, body)
			if m.Epoch != wantEpoch {
				t.Fatalf("POST %s: epoch = %d, want %d", reqBody, m.Epoch, wantEpoch)
			}
			sites := strings.Join(m.Sites, " ")
			for _, s := range wantSites {
				if !strings.Contains(sites, s) {
					t.Fatalf("POST %s: sites %v missing %s", reqBody, m.Sites, s)
				}
			}
			for _, s := range wantGone {
				if strings.Contains(sites, s) {
					t.Fatalf("POST %s: sites %v still contain %s", reqBody, m.Sites, s)
				}
			}
		}

		post(`{"op":"join","site":"site-d"}`, 2, []string{"site-d"}, nil)

		// Joining a site twice is a 409, not a second epoch.
		resp, body = a.do("POST", "/v1/admin/membership", `{"op":"join","site":"site-d"}`)
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("double join = %d %s, want 409", resp.StatusCode, body)
		}

		post(`{"op":"retire","site":"site-d"}`, 3, nil, []string{"site-d"})
		post(`{"op":"replace","site":"site-a","with":"site-d"}`, 4, []string{"site-d"}, []string{"site-a"})

		resp, body = a.do("GET", "/v1/membership", "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET membership = %d %s", resp.StatusCode, body)
		}
		if m := decodeMembership(t, body); m.Epoch != 4 {
			t.Fatalf("final epoch = %d, want 4", m.Epoch)
		}
	})
}
