// vgiwd is the simulation-as-a-service daemon: it serves the experiment
// harness over HTTP/JSON with admission control, per-job deadlines,
// singleflight result dedup, live Prometheus metrics, and graceful drain.
// A job runs one registry kernel on the VGIW, SIMT and SGMF machines.
//
// Usage:
//
//	vgiwd                         # serve on :8077
//	vgiwd -addr 127.0.0.1:0       # ephemeral port (printed on stdout)
//	vgiwd -workers 4 -queue 128   # widen the pool and the admission queue
//	vgiwd -store-dir /var/lib/vgiwd  # persist results across restarts
//
// Endpoints:
//
//	POST   /v1/jobs           submit a job ({"kernel":...} plus the spec's
//	                          knobs); ?wait=1 blocks until terminal
//	GET    /v1/jobs           list jobs
//	GET    /v1/jobs/{id}      job status + result; ?wait=1 blocks
//	GET    /v1/jobs/{id}/trace  Chrome trace JSON (jobs with "trace":true)
//	DELETE /v1/jobs/{id}      cancel a job
//	GET    /v1/history        stored results (-store-dir); ?kernel=&key=
//	GET    /v1/history/{key}  one stored result, in full; its "metrics"
//	                          object is a benchgate baseline
//	GET    /healthz           liveness
//	GET    /readyz            readiness (503 while draining)
//	GET    /metrics           Prometheus text exposition
//
// With -store-dir, completed results persist in a content-addressed store and
// a restarted daemon serves matching submissions from it byte-identically
// (marked "cached": "store").
//
// SIGINT/SIGTERM starts a graceful drain: readiness flips, in-flight jobs
// finish (up to -drain-timeout, then they are cancelled), final metrics are
// flushed to stderr — and, with -store-dir, persisted into the store as a
// "shutdown" vgiw-metrics/v1 snapshot — and the process exits 0 on a clean
// drain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vgiw/internal/server"
	"vgiw/internal/store"
	"vgiw/internal/version"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("vgiwd", flag.ExitOnError)
	var (
		addr         = fs.String("addr", ":8077", "listen address (host:port; port 0 picks one)")
		workers      = fs.Int("workers", 0, "concurrent simulations (0 = 2)")
		queue        = fs.Int("queue", 0, "admission queue depth (0 = 64)")
		timeout      = fs.Duration("timeout", 0, "default per-job deadline (0 = 2m)")
		maxTimeout   = fs.Duration("max-timeout", 0, "cap on client-requested deadlines (0 = 10m)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "how long a drain waits before cancelling jobs")
		storeDir     = fs.String("store-dir", "", "persistent result store directory (empty = persistence disabled)")
		showVersion  = fs.Bool("version", false, "print version and exit")
	)
	fs.Parse(args) //nolint:errcheck // ExitOnError

	if *showVersion {
		fmt.Println(version.String())
		return 0
	}

	st, err := store.Open(*storeDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vgiwd: %v\n", err)
		return 1
	}

	s := server.New(server.Config{
		QueueDepth:     *queue,
		Workers:        *workers,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		Store:          st,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vgiwd: %v\n", err)
		return 1
	}
	// The drain handler is installed before the address is announced: a
	// client that has the address may signal at once, and a SIGTERM that
	// beat signal.Notify would kill the process without a drain.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)

	// The bound address goes to stdout so scripts using -addr :0 (the
	// serve-check gate, test rigs) can discover the port.
	fmt.Printf("vgiwd listening on %s\n", ln.Addr())

	hs := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "vgiwd: %v: draining (timeout %v)\n", got, *drainTimeout)
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "vgiwd: serve: %v\n", err)
		return 1
	}

	// Drain order: stop taking HTTP requests, then drain the job queue so
	// everything already admitted (and still under its own deadline) runs
	// to completion before the process exits.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "vgiwd: http shutdown: %v\n", err)
	}
	code := 0
	if err := s.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "vgiwd: drain: %v\n", err)
		if !errors.Is(err, context.DeadlineExceeded) {
			code = 1
		}
	}
	// Flush final metrics so a scrape-less deployment still gets a
	// terminal snapshot in its logs — and, when persistence is on, into the
	// store as a machine-readable vgiw-metrics/v1 snapshot.
	fmt.Fprintln(os.Stderr, "vgiwd: final metrics:")
	if err := s.WriteMetrics(os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "vgiwd: metrics flush: %v\n", err)
	}
	if err := st.PutSnapshot("shutdown", s.SnapshotRegistry(), 0); err != nil {
		fmt.Fprintf(os.Stderr, "vgiwd: shutdown snapshot: %v\n", err)
	} else if st != nil {
		fmt.Fprintf(os.Stderr, "vgiwd: shutdown snapshot persisted to %s\n", st.Dir())
	}
	fmt.Fprintln(os.Stderr, "vgiwd: drained")
	return code
}
