// Command dcl1worker is a farm worker: it pulls leased sweep points from a
// dcl1serve coordinator over HTTP, simulates them through the experiments
// supervisor (panic barrier, retries, per-simulation deadline), and uploads the
// results. Determinism makes the farm safe: every point a worker computes is
// byte-identical to the server running it locally, so crashed workers,
// duplicate uploads, and requeued points can never change a sweep's output.
//
// SIGTERM drains gracefully — the in-flight point finishes and uploads, then
// unstarted points are released back to the queue. SIGKILL is also safe: the
// lease TTL expires and the server requeues the points.
//
// Usage:
//
//	dcl1worker -server http://coordinator:8080
//	dcl1worker -server http://coordinator:8080 -token s3cret -name rack7-0
//	dcl1worker -server http://coordinator:8080 -max-points 8
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dcl1sim/internal/cliflags"
	"dcl1sim/internal/farm"
)

func main() {
	var (
		server    = flag.String("server", "http://127.0.0.1:8080", "dcl1serve base URL")
		token     = flag.String("token", "", "bearer token (when the server runs with -auth-tokens; visible in ps — prefer -token-env)")
		tokenEnv  = flag.String("token-env", "", "name of an environment variable holding the bearer token")
		name      = flag.String("name", "", "worker name shown in the server's /statz and journal (default host-pid)")
		maxPoints = flag.Int("max-points", 0, "cap on points per lease grant (0 = server default)")

		run = cliflags.Run{Retries: 1, Deadline: 2 * time.Minute}
	)
	run.Register(flag.CommandLine, "health", "retries")
	flag.BoolVar(&run.Verbose, "v", false, "log each point and lease event")
	flag.Parse()

	tok := *token
	if *tokenEnv != "" {
		if tok != "" {
			fmt.Fprintln(os.Stderr, "dcl1worker: -token and -token-env are mutually exclusive")
			os.Exit(1)
		}
		tok = os.Getenv(*tokenEnv)
		if tok == "" {
			fmt.Fprintf(os.Stderr, "dcl1worker: environment variable %s is empty\n", *tokenEnv)
			os.Exit(1)
		}
	}
	workerName := *name
	if workerName == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "worker"
		}
		workerName = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	opt := farm.Options{Server: *server, Token: tok, Name: workerName, MaxPoints: *maxPoints}
	run.FarmOptions(&opt)
	w := farm.New(opt)

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "dcl1worker: %s pulling from %s\n", workerName, *server)
	err := w.Run(sigCtx)
	st := w.Stats()
	fmt.Fprintf(os.Stderr, "dcl1worker: %s done: %d lease(s), %d point(s) run, %d uploaded, %d duplicate, %d stale, %d failed, %d released\n",
		workerName, st.Leases, st.Points, st.Uploaded, st.Duplicates, st.Stale, st.Failed, st.Released)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
