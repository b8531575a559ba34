// Command dcl1serve hosts the simulator as a long-running multi-tenant
// service: tenants POST a sweep spec, get a job ID, and stream per-point
// results as NDJSON or SSE as they land. Identical points dedupe across all
// tenants and across restarts through a persistent content-addressed result
// store, overload is rejected with 429 + Retry-After instead of buffering
// without bound, and a SIGTERM drains gracefully — in-flight points finish
// and are journaled, queued work recovers on the next start, byte-identical.
//
// Usage:
//
//	dcl1serve -addr :8080 -data ./dcl1serve-data
//	dcl1serve -workers 8 -max-queued 1024 -tenant-inflight 4
//	dcl1serve -metrics-every 4096     # live metrics on /v1/jobs/{id}/metrics
//
// Example session (see README "Running as a service"):
//
//	curl -s -XPOST localhost:8080/v1/jobs -H 'X-Tenant: alice' \
//	    -d '{"app":"T-AlexNet","designs":["Baseline","Sh40+C10+Boost"]}'
//	curl -s localhost:8080/v1/jobs/<id>/stream
//	curl -s localhost:8080/statz
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dcl1sim/internal/cliflags"
	"dcl1sim/internal/serve"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		dataDir = flag.String("data", "dcl1serve-data", "persistent state directory (result store + job log)")

		maxQueued      = flag.Int("max-queued", 4096, "global bound on pending points; beyond it submissions get 429 + Retry-After")
		tenantQueued   = flag.Int("tenant-queued", 0, "per-tenant bound on pending points (0 = the global bound)")
		tenantInflight = flag.Int("tenant-inflight", 0, "per-tenant quota on leased points, local or remote (0 = the worker count; unbounded with -coordinator)")
		breaker        = flag.Int("breaker", 3, "consecutive point failures that trip a job's circuit breaker (negative disables)")

		drainTimeout = flag.Duration("drain-timeout", time.Minute, "graceful-drain bound on SIGTERM; in-flight points beyond it are canceled and recovered on restart")

		leaseTTL    = flag.Duration("lease-ttl", 15*time.Second, "farm lease TTL: a worker that misses heartbeats this long has its points requeued")
		leaseMax    = flag.Int("lease-max-points", 64, "cap on points per farm lease grant")
		poison      = flag.Int("poison", 3, "lease expiries that park a point as poison instead of requeuing it (negative disables)")
		coordinator = flag.Bool("coordinator", false, "run no local workers: farm workers (dcl1worker) do all the simulating")

		storeMaxAge   = flag.Duration("store-max-age", 0, "drop result-store entries older than this at compaction (0 = keep forever)")
		storeMaxBytes = flag.Int64("store-max-bytes", 0, "bound the compacted result store size, dropping oldest entries first (0 = unbounded)")
		compactEvery  = flag.Duration("compact-every", 0, "result-store compaction period when a bound is set (0 = hourly)")

		run  = cliflags.Run{Retries: 1, Deadline: 2 * time.Minute}
		auth cliflags.Auth
	)
	run.Register(flag.CommandLine, "health", "workers", "retries", "metrics-every")
	flag.BoolVar(&run.Verbose, "v", false, "log each point as it runs")
	auth.Register(flag.CommandLine)
	flag.Parse()

	tokens, err := auth.Load()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if err := os.MkdirAll(*dataDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	opt := serve.Options{
		DataDir:           *dataDir,
		MaxQueuedPoints:   *maxQueued,
		TenantMaxQueued:   *tenantQueued,
		TenantMaxInFlight: *tenantInflight,
		BreakerThreshold:  *breaker,
		LeaseTTL:          *leaseTTL,
		LeaseMaxPoints:    *leaseMax,
		PoisonThreshold:   *poison,
		CoordinatorOnly:   *coordinator,
		AuthTokens:        tokens,
		StoreMaxAge:       *storeMaxAge,
		StoreMaxBytes:     *storeMaxBytes,
		CompactEvery:      *compactEvery,
	}
	run.ServeOptions(&opt)
	s, err := serve.New(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "dcl1serve: listening on %s, data in %s\n", *addr, *dataDir)

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-sigCtx.Done():
		fmt.Fprintf(os.Stderr, "dcl1serve: draining (up to %v) — queued work recovers on restart\n", *drainTimeout)
		s.Drain() // flips /readyz before the listener closes
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		httpSrv.Shutdown(shutdownCtx)
		if err := s.Close(shutdownCtx); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "dcl1serve: drained cleanly")
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
