package loadtest

import (
	"context"
	"encoding/json"
	"sync"
	"testing"

	"fttt/internal/cluster"
	"fttt/internal/serve"
)

// TestClusterWave is the sharding acceptance test: several sessions
// spread across a 3-backend cluster by the placement hash, a wave of
// traffic through the router, one backend drained mid-run, the rest of
// the wave after migration — and every response body must still be
// byte-identical to the unbatched single-process serial reference
// (Expected). Alongside byte-identity it pins the exact rebalance
// counts and the zero-re-divide contract: with the shared spill dir
// pre-warmed, no backend ever builds a division — successors included
// — so fttt_fieldcache_builds_total stays 0 everywhere.
func TestClusterWave(t *testing.T) {
	const (
		backends = 3
		sessions = 6
		split    = 4 // requests per client before the drain
	)
	c, err := StartCluster(t.TempDir(), backends, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	cfgs := make([]Config, sessions)
	for i := range cfgs {
		cfgs[i] = Config{
			Clients:  2,
			Requests: 8,
			Seed:     uint64(100 + i),
			// One deployment, distinct session seeds: every session shares
			// the pre-warmed division but draws its own noise streams.
			Session: testSession(uint64(1000 + i)),
		}
	}
	if err := c.Prewarm(cfgs[0].Session); err != nil {
		t.Fatal(err)
	}

	client := c.Client()
	ids := make([]string, sessions)
	for i := range cfgs {
		if ids[i], err = CreateSession(client, c.URL, cfgs[i].Session); err != nil {
			t.Fatal(err)
		}
	}
	memberNames := make([]string, backends)
	for i, b := range c.Backends {
		memberNames[i] = b.Name
	}
	owners := make([]string, sessions)
	for i, id := range ids {
		owners[i] = cluster.Place(id, memberNames)
	}

	runWaves := func(from, to int) []*Result {
		results := make([]*Result, sessions)
		errs := make([]error, sessions)
		var wg sync.WaitGroup
		for i := range cfgs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i], errs[i] = RunWave(client, c.URL, ids[i], cfgs[i], from, to)
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		return results
	}
	first := runWaves(0, split)

	// Drain the owner of the first session (guaranteed non-empty).
	victim := owners[0]
	victimSessions := 0
	for _, o := range owners {
		if o == victim {
			victimSessions++
		}
	}
	moved, err := c.Drain(ctx, victim)
	if err != nil {
		t.Fatal(err)
	}
	if moved != victimSessions {
		t.Fatalf("drain migrated %d sessions, want exactly the victim's %d", moved, victimSessions)
	}

	// Exact rebalance: survivors keep their sessions, the victim's land
	// on their rendezvous successor.
	var survivors []string
	for _, n := range memberNames {
		if n != victim {
			survivors = append(survivors, n)
		}
	}
	wantCounts := map[string]int{}
	for i, o := range owners {
		if o == victim {
			o = cluster.Place(ids[i], survivors)
		}
		wantCounts[o]++
	}
	resp, err := c.Client().Get(c.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var listed []json.RawMessage
	err = json.NewDecoder(resp.Body).Decode(&listed)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(listed) != len(ids) {
		t.Errorf("post-drain list has %d sessions, want %d", len(listed), len(ids))
	}
	for _, n := range memberNames {
		got := c.Router.Registry().Gauge(`fttt_router_sessions{backend="` + n + `"}`).Value()
		if got != float64(wantCounts[n]) {
			t.Errorf("post-drain %s holds %v sessions, want %d", n, got, wantCounts[n])
		}
	}
	restores := 0.0
	for _, b := range c.Backends {
		restores += b.Counter("fttt_serve_session_restores_total")
	}
	if int(restores) != moved {
		t.Errorf("restore counters sum to %v, want %d", restores, moved)
	}
	if got := c.Router.Registry().Counter("fttt_router_migrations_total").Value(); got != float64(moved) {
		t.Errorf("router migrations counter %v, want %d", got, moved)
	}

	second := runWaves(split, cfgs[0].Requests)

	for i := range cfgs {
		res := first[i]
		res.Merge(second[i])
		total := cfgs[i].Clients * cfgs[i].Requests
		if res.OK != total || res.Shed != 0 || res.Deadline != 0 || res.Other != 0 {
			t.Fatalf("session %s outcomes ok=%d shed=%d deadline=%d other=%d, want %d/0/0/0 (statuses %v)",
				ids[i], res.OK, res.Shed, res.Deadline, res.Other, total, res.Statuses)
		}
		want, err := cfgs[i].Expected()
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyBodies(res, want); err != nil {
			t.Fatalf("session %s (owner %s) not byte-identical to single-process reference: %v", ids[i], owners[i], err)
		}
	}

	// The division store contract: the shared spill dir was pre-warmed,
	// so no backend — the migration successors included — ever divides
	// the field itself; each one that hosted a session disk-loaded the
	// division exactly once.
	for _, b := range c.Backends {
		if got := b.Counter("fttt_fieldcache_builds_total"); got != 0 {
			t.Errorf("%s built %v divisions, want 0 (shared spill dir is the division store)", b.Name, got)
		}
		loads := b.Counter("fttt_fieldcache_disk_loads_total")
		hosted := wantCounts[b.Name] > 0 || b.Name == victim
		if hosted && loads != 1 {
			t.Errorf("%s disk loads = %v, want exactly 1", b.Name, loads)
		}
	}
}
