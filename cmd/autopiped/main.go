// Command autopiped runs the planner-as-a-service daemon: an HTTP/JSON API
// over the AutoPipe planning engine with a bounded worker pool, a
// content-addressed plan cache with singleflight dedup. Jobs live in memory:
// a restart forgets them, and the first request for each configuration after
// it runs one search again.
//
// Usage:
//
//	autopiped [-addr 127.0.0.1:7180] [-workers N] \
//	          [-rate N] [-burst N] [-queue-wait 2s] \
//	          [-timeout 30s] [-cpuprofile p] [-memprofile p]
//
// Each plan search runs serially inside one queue worker; the plan, and so
// the cache key, does not depend on the machine's core count.
//
// It serves until SIGINT/SIGTERM, then drains: it stops accepting
// connections, lets running requests finish for up to 10 s, and stops the
// workers. The service's checks (cache, singleflight, the kill/restart soak
// with and without seeded HTTP chaos) are tests in internal/service.
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

	"autopipe/internal/cliutil"
	"autopipe/internal/obs"
	"autopipe/internal/service"
)

func main() {
	workers := flag.Int("workers", 4, "queue workers executing jobs concurrently")
	queueDepth := flag.Int("queue", 256, "pending-job queue depth (full queue rejects with 503)")
	cacheEntries := flag.Int("cache", 1024, "content-addressed plan cache capacity; the submit memo holds as many bodies")
	sf := cliutil.RegisterService(flag.CommandLine)
	pf := cliutil.RegisterPlanner(flag.CommandLine)
	prof := cliutil.RegisterProfile(flag.CommandLine)
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		fail(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fail(err)
		}
	}()

	if err := serve(pf, sf, *workers, *queueDepth, *cacheEntries); err != nil {
		fail(err)
	}
}

// serve runs the daemon until SIGINT/SIGTERM, then drains.
func serve(pf *cliutil.PlannerFlags, sf *cliutil.ServiceFlags, workers, queueDepth, cacheEntries int) error {
	srv, err := service.New(service.Config{
		Workers:      workers,
		QueueDepth:   queueDepth,
		CacheEntries: cacheEntries,
		JobTimeout:   pf.Timeout,
		RateLimit:    sf.Rate,
		RateBurst:    sf.Burst,
		QueueWait:    sf.QueueWait,
		Obs:          obs.NewRegistry(),
	})
	if err != nil {
		return err
	}
	srv.Start()

	ln, err := net.Listen("tcp", sf.Addr)
	if err != nil {
		return fmt.Errorf("autopiped: listen: %w", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	fmt.Printf("autopiped: serving on http://%s (workers=%d)\n", ln.Addr(), workers)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Printf("autopiped: %v, draining\n", sig)
	case err := <-errCh:
		srv.Close()
		return fmt.Errorf("autopiped: serve: %w", err)
	}
	shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shCtx); err != nil {
		return fmt.Errorf("autopiped: shutdown: %w", err)
	}
	srv.Close()
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "autopiped:", err)
	if errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "autopiped: hint: raise -timeout")
	}
	os.Exit(1)
}
