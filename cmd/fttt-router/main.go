// Command fttt-router shards fttt-serve horizontally: a thin HTTP
// router that consistent-hashes session IDs across a static list of
// backends (internal/cluster), proxies the /v1/sessions API and SSE
// streams transparently, and migrates sessions off a backend that
// starts draining (its /healthz turns 503 after SIGTERM with
// -migrate-grace).
//
// Usage:
//
//	fttt-router -addr :8070 -backends a=http://10.0.0.2:8080,b=http://10.0.0.3:8080
//	fttt-router -backends http://127.0.0.1:8081,http://127.0.0.1:8082 -health-interval 1s
//
// Backends are name=url pairs; a bare URL gets the name bN from its
// position. Names are the placement-hash identity — keep them stable
// across router restarts or sessions will land on different owners.
// Point every backend's -field-cache-dir at one shared directory so a
// migrated session's successor loads its field division from disk
// instead of re-dividing. See README "Running a cluster".
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fttt/internal/cluster"
	"fttt/internal/obs"
)

func main() {
	var (
		addr           = flag.String("addr", ":8070", "listen address")
		backends       = flag.String("backends", "", "comma-separated backend list: name=url pairs or bare urls (required)")
		healthInterval = flag.Duration("health-interval", 2*time.Second, "backend drain-probe period (0 = prober off)")
	)
	flag.Parse()
	if err := run(*addr, *backends, *healthInterval); err != nil {
		fmt.Fprintln(os.Stderr, "fttt-router:", err)
		os.Exit(1)
	}
}

// parseBackends turns "a=http://x,b=http://y" (or bare URLs) into the
// cluster member list.
func parseBackends(spec string) ([]cluster.Backend, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("-backends is required (name=url,name=url)")
	}
	var out []cluster.Backend
	for i, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, u, ok := strings.Cut(part, "=")
		if !ok {
			name, u = fmt.Sprintf("b%d", i+1), part
		}
		out = append(out, cluster.Backend{Name: name, URL: strings.TrimRight(u, "/")})
	}
	return out, nil
}

func run(addr, backendSpec string, healthInterval time.Duration) error {
	members, err := parseBackends(backendSpec)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	build := obs.RegisterBuildInfo(reg)
	rt, err := cluster.New(cluster.Config{
		Backends:       members,
		HealthInterval: healthInterval,
		Obs:            reg,
	})
	if err != nil {
		return err
	}
	defer rt.Close()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: rt, ReadHeaderTimeout: obs.ReadHeaderTimeout}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "fttt-router: %s\n", build)
	fmt.Fprintf(os.Stderr, "fttt-router: listening on http://%s, routing %d backends (metrics at /metrics)\n",
		ln.Addr(), len(members))
	for _, m := range members {
		fmt.Fprintf(os.Stderr, "fttt-router:   backend %s = %s\n", m.Name, m.URL)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "fttt-router: %v: shutting down\n", s)
	}
	if err := hs.Close(); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "fttt-router: stopped")
	return nil
}
