package loadtest

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"

	"fttt/internal/cluster"
	"fttt/internal/fieldcache"
	"fttt/internal/obs"
	"fttt/internal/serve"
)

// ClusterBackend is one in-process fttt-serve member of a test
// cluster: its own serve.Server, obs registry, and fieldcache instance
// (sharing the cluster's spill directory, as separate processes
// would), fronted by an httptest listener.
type ClusterBackend struct {
	Name  string
	Serve *serve.Server
	Reg   *obs.Registry
	http  *httptest.Server
}

// URL is the backend's base URL.
func (b *ClusterBackend) URL() string { return b.http.URL }

// Counter reads one of the backend's counters by full metric name.
func (b *ClusterBackend) Counter(name string) float64 { return b.Reg.Counter(name).Value() }

// Cluster is the in-process sharded deployment the cluster load test
// drives: a consistent-hash router over N serve backends that share
// one field-cache spill directory (the cluster-wide division store).
type Cluster struct {
	Router   *cluster.Router
	Backends []*ClusterBackend
	// URL is the router's base URL — point waves here, not at backends.
	URL string
	// Dir is the shared field-cache spill directory.
	Dir string

	http *httptest.Server
}

// StartCluster builds n serve backends named "b1".."bn", each with a
// private registry and a fieldcache spilling to dir, plus a router
// over all of them. The serve Config's Obs and FieldCache fields are
// overridden per backend. The router's health prober is off — tests
// drive migration deterministically via Drain.
func StartCluster(dir string, n int, base serve.Config) (*Cluster, error) {
	c := &Cluster{Dir: dir}
	members := make([]cluster.Backend, 0, n)
	for i := 1; i <= n; i++ {
		reg := obs.NewRegistry()
		fc, err := fieldcache.New(fieldcache.Config{Dir: dir, Obs: reg})
		if err != nil {
			c.Close()
			return nil, err
		}
		cfg := base
		cfg.Obs = reg
		cfg.FieldCache = fc
		srv := serve.New(cfg)
		be := &ClusterBackend{
			Name:  fmt.Sprintf("b%d", i),
			Serve: srv,
			Reg:   reg,
			http:  httptest.NewServer(srv),
		}
		c.Backends = append(c.Backends, be)
		members = append(members, cluster.Backend{Name: be.Name, URL: be.http.URL})
	}
	rt, err := cluster.New(cluster.Config{Backends: members})
	if err != nil {
		c.Close()
		return nil, err
	}
	c.Router = rt
	c.http = httptest.NewServer(rt)
	c.URL = c.http.URL
	return c, nil
}

// Prewarm builds the session's field division once into the shared
// spill directory through an independent cache instance, so every
// backend's first acquire is a disk load — after which each backend's
// fttt_fieldcache_builds_total must stay 0 for the whole run,
// migrations included.
func (c *Cluster) Prewarm(sc serve.SessionConfig) error {
	cc, err := sc.CoreConfig()
	if err != nil {
		return err
	}
	fc, err := fieldcache.New(fieldcache.Config{Dir: c.Dir})
	if err != nil {
		return err
	}
	_, release, err := fc.Acquire(cc.DivisionSpec())
	if err != nil {
		return err
	}
	release()
	return nil
}

// Backend resolves a member by name.
func (c *Cluster) Backend(name string) *ClusterBackend {
	for _, b := range c.Backends {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// Client returns an HTTP client for the router listener.
func (c *Cluster) Client() *http.Client { return c.http.Client() }

// Drain takes backend name out of the cluster the way a SIGTERM with
// -migrate-grace does, but deterministically: quiesce the backend
// (new work refused, sessions stay exportable), have the router
// migrate every session onto its successor, wait for the source table
// to empty, then tear the backend down. Returns how many sessions
// moved.
func (c *Cluster) Drain(ctx context.Context, name string) (int, error) {
	be := c.Backend(name)
	if be == nil {
		return 0, fmt.Errorf("loadtest: unknown backend %q", name)
	}
	if err := be.Serve.Quiesce(ctx); err != nil {
		return 0, err
	}
	moved, err := c.Router.Migrate(ctx, name)
	if err != nil {
		return moved, err
	}
	if err := be.Serve.WaitEmpty(ctx); err != nil {
		return moved, fmt.Errorf("loadtest: %s not empty after migration: %w", name, err)
	}
	return moved, be.Serve.Drain(ctx)
}

// Close tears the whole cluster down (backends first, then router).
func (c *Cluster) Close() {
	for _, b := range c.Backends {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()           // immediate: tests have already drained what matters
		b.Serve.Drain(ctx) //nolint:errcheck
		b.http.Close()
	}
	if c.http != nil {
		c.http.Close()
	}
	if c.Router != nil {
		c.Router.Close()
	}
}
