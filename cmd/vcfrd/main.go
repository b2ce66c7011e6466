// Command vcfrd serves the VCFR simulator over HTTP/JSON: a long-running
// service that answers "what is the overhead of config X on workload Y"
// queries concurrently. Every run executes; the shared runner reuses
// prepared apps (workload build and ILR rewrite) across requests.
//
// Usage:
//
//	vcfrd                                   # listen on 127.0.0.1:8642
//	vcfrd -addr :9000 -workers 8 -queue 128
//	vcfrd -job-timeout 5m
//
// The endpoints are listed on internal/server; docs/ARCHITECTURE.md and
// EXPERIMENTS.md walk through them.
//
// SIGINT/SIGTERM drain gracefully: intake stops, accepted jobs finish (up
// to -drain-timeout), then the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"vcfr/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "vcfrd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr       = flag.String("addr", "127.0.0.1:8642", "listen address (port 0 = ephemeral)")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent job executors")
		queue      = flag.Int("queue", 64, "bounded job queue depth; a full queue answers 429")
		jobTimeout = flag.Duration("job-timeout", 2*time.Minute, "default per-job execution deadline (0 = none)")
		retention  = flag.Int("job-retention", 256, "finished jobs kept pollable at /v1/jobs/{id}; oldest evicted past this")
		drain      = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for in-flight jobs")
	)
	flag.Parse()

	srv := server.New(server.Config{
		Addr:         *addr,
		Workers:      *workers,
		QueueDepth:   *queue,
		JobTimeout:   *jobTimeout,
		JobRetention: *retention,
	})
	if err := srv.Start(); err != nil {
		return err
	}
	// The smoke test and service managers parse this line; keep its shape.
	fmt.Fprintf(os.Stderr, "vcfrd: listening on %s (workers=%d queue=%d)\n",
		srv.Addr(), *workers, *queue)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop()

	fmt.Fprintln(os.Stderr, "vcfrd: draining in-flight jobs")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Fprintln(os.Stderr, "vcfrd: drained, exiting")
	return nil
}
