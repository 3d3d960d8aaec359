// Command waitfreed is the verification daemon: it serves the v1 HTTP
// API (POST /v1/jobs, GET /v1/jobs/{id}, GET /v1/jobs/{id}/events,
// DELETE /v1/jobs/{id}, GET /v1/healthz, GET /v1/stats,
// GET /v1/protocols), runs submitted jobs on a bounded worker pool with
// durable checkpointed state, and fronts them with the content-addressed
// result cache.
//
//	waitfreed -listen :8080 -data /var/lib/waitfreed -cache /var/cache/waitfreed
//
// SIGTERM/SIGINT drain gracefully: running jobs checkpoint and return to
// the durable queue, and the next start resumes them where they stopped.
//
// See DESIGN.md section 11 for the wire schema and the job lifecycle.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"waitfree"
	"waitfree/internal/explore"
	"waitfree/internal/fsx"
	"waitfree/internal/server"
)

func main() {
	listen := flag.String("listen", ":8080", "HTTP listen address")
	dataDir := flag.String("data", "", "durable job-state directory (empty: jobs do not survive restarts)")
	cacheDir := flag.String("cache", "", "result cache directory (empty: no cache)")
	cacheMem := flag.Int64("cache-mem", 0, "result cache memory budget in bytes (0: default)")
	workers := flag.Int("workers", 0, "verification worker pool size (0: GOMAXPROCS)")
	queueDepth := flag.Int("queue", 0, "admission queue depth (0: 256)")
	checkpointEvery := flag.Duration("checkpoint-every", 2*time.Second, "durable checkpoint autosave interval for resumable jobs")
	progress := flag.Duration("progress", 0, fmt.Sprintf("SSE progress stats interval (0: the engine default, %v)", explore.DefaultProgressInterval))
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget")
	maxTimeout := flag.Duration("max-timeout", 0, "cap on the per-job deadline clients may request via timeout_ms (0: no cap)")
	flag.Parse()

	logger := log.New(os.Stderr, "waitfreed: ", log.LstdFlags)
	if err := run(logger, *listen, *dataDir, *cacheDir, *cacheMem, *workers,
		*queueDepth, *checkpointEvery, *progress, *drainTimeout, *maxTimeout); err != nil {
		logger.Fatal(err)
	}
}

func run(logger *log.Logger, listen, dataDir, cacheDir string, cacheMem int64, workers, queueDepth int,
	checkpointEvery, progress, drainTimeout, maxTimeout time.Duration) error {
	var cache *waitfree.Cache
	if cacheDir != "" {
		c, err := waitfree.OpenCache(waitfree.CacheOptions{Dir: cacheDir, MemoryBudget: cacheMem})
		if err != nil {
			return fmt.Errorf("open cache: %w", err)
		}
		cache = c
	}
	// WAITFREED_FAULT_FS scripts storage faults into the job store — the
	// chaos CI leg uses it to prove the daemon degrades instead of
	// wedging on a sick disk. Testing only: never set it in production.
	var faultFS fsx.FS
	if spec := os.Getenv("WAITFREED_FAULT_FS"); spec != "" {
		rules, err := fsx.ParseRules(spec)
		if err != nil {
			return fmt.Errorf("WAITFREED_FAULT_FS: %w", err)
		}
		logger.Printf("WAITFREED_FAULT_FS=%q: injecting storage faults (testing only)", spec)
		faultFS = fsx.NewFaultFS(nil, 1, rules...)
	}
	srv, err := server.New(server.Options{
		Workers:          workers,
		QueueDepth:       queueDepth,
		DataDir:          dataDir,
		FS:               faultFS,
		Cache:            cache,
		ProgressInterval: progress,
		CheckpointEvery:  checkpointEvery,
		MaxTimeout:       maxTimeout,
		Logf:             logger.Printf,
	})
	if err != nil {
		return err
	}
	srv.Start()

	hs := &http.Server{Addr: listen, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s (api %s)", listen, server.APIVersion)
		errc <- hs.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		logger.Printf("%v: draining (budget %v)", sig, drainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	// Drain first so running jobs checkpoint and re-queue durably, then
	// close the listener; in-flight SSE streams end with the drain.
	if err := srv.Drain(ctx); err != nil {
		logger.Printf("drain: %v", err)
	}
	if err := hs.Shutdown(ctx); err != nil {
		hs.Close()
		if !errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf("shutdown: %w", err)
		}
	}
	logger.Printf("drained")
	return nil
}
