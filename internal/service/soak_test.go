package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"autopipe"
	"autopipe/client"
	"autopipe/internal/errdefs"
)

// SoakOptions configures a restart soak run.
type SoakOptions struct {
	// Cycles is the number of kill/restart cycles (default 3).
	Cycles int
	// Jobs is the total number of distinct plan jobs in the stream, spread
	// evenly across the cycles (default 4 per cycle).
	Jobs int
	// Chaos, when non-nil, wraps every daemon incarnation's handler with the
	// plan's injections, so the client rides out injected faults and real
	// restarts at the same time.
	Chaos *ChaosPlan
	// Progress, when non-nil, receives a line per cycle.
	Progress io.Writer
}

// SoakReport is what a soak run proves.
type SoakReport struct {
	Cycles int
	Jobs   int
	// Completed is the number of jobs that ended with a plan which the final
	// incarnation then served again unchanged; a passing soak has
	// Completed == Jobs.
	Completed int
	// Interrupted counts the searches a kill canceled mid-run; a passing
	// soak has at least one per cycle.
	Interrupted int
	// DuplicateSearches counts engine runs for a key the same incarnation had
	// already searched: the cache and singleflight violation count. A
	// passing soak has 0.
	DuplicateSearches int
	// EngineSearches is the total number of engine runs across every
	// incarnation. A restart forgets every result, so this counts each key
	// once per incarnation that was asked for it.
	EngineSearches int
}

// Format renders the human report.
func (r *SoakReport) Format(w io.Writer) {
	fmt.Fprintf(w, "soak: %d jobs across %d kill/restart cycles\n", r.Jobs, r.Cycles)
	fmt.Fprintf(w, "  completed      %d/%d\n", r.Completed, r.Jobs)
	fmt.Fprintf(w, "  interrupted    %d searches canceled by a kill\n", r.Interrupted)
	fmt.Fprintf(w, "  once per life  %d duplicate engine searches (%d total searches)\n", r.DuplicateSearches, r.EngineSearches)
}

// soakDaemon is one daemon incarnation: a Server plus its HTTP front.
type soakDaemon struct {
	srv *Server
	hs  *http.Server
}

// kill ends the incarnation. A crash severs every client connection first
// and then stops the workers, canceling the searches in flight. A shutdown
// stops the workers first, so a waiter whose search it interrupts is
// answered 503 unavailable before the connections close. Safe on a nil
// daemon.
func (d *soakDaemon) kill(crash bool) {
	if d == nil {
		return
	}
	if crash {
		_ = d.hs.Close()
	}
	d.srv.Close()
	_ = d.hs.Close()
}

// Soak is the restart harness behind TestSoak and TestSoakWithChaos: it
// streams distinct plan jobs at an in-memory daemon while killing and
// restarting it every cycle at the same address, so client retries reconnect
// to the reborn daemon. Odd cycles crash the daemon, even cycles shut it
// down. Each cycle's first incarnation holds its searches until the kill, so
// every kill interrupts at least one search. It proves three invariants no
// interleaving may break:
//
//  1. Full completion: every job in the stream ends with a plan despite the
//     restarts, because the retrying client resubmits what a dead daemon
//     lost.
//  2. Same answer: the final incarnation serves every job's plan again, and
//     it equals the plan the stream got from whichever incarnation ran it.
//  3. One search per key per incarnation: within one daemon's life the
//     cache and singleflight never let a key reach the engine twice.
//
// Violations return an error wrapping errdefs.ErrInternal, alongside the
// report gathered so far.
func Soak(ctx context.Context, opts SoakOptions) (*SoakReport, error) {
	if opts.Cycles <= 0 {
		opts.Cycles = 3
	}
	if opts.Jobs <= 0 {
		opts.Jobs = 4 * opts.Cycles
	}
	if opts.Jobs < opts.Cycles {
		opts.Jobs = opts.Cycles
	}
	out := opts.Progress
	if out == nil {
		out = io.Discard
	}
	rep := &SoakReport{Cycles: opts.Cycles, Jobs: opts.Jobs}

	// hold parks every search the current cycle's first incarnation starts
	// until the kill cancels it; airborne reports the first one parked.
	var (
		mu          sync.Mutex
		duplicates  int
		searches    int
		interrupted int
		hold        bool
	)
	airborne := make(chan struct{}, 1)
	boot := func(addr string) (*soakDaemon, string, error) {
		srv, err := New(Config{})
		if err != nil {
			return nil, "", err
		}
		real := srv.engine
		searched := map[string]bool{} // this incarnation's keys
		srv.engine = func(ctx context.Context, req client.SubmitRequest) (json.RawMessage, error) {
			// A worker may still pick up a queued job after the kill; its
			// search starts on a canceled context and does no work.
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			mu.Lock()
			searches++
			if key, kerr := Key(req); kerr == nil {
				if searched[key] {
					duplicates++
				}
				searched[key] = true
			}
			held := hold
			mu.Unlock()
			if held {
				select {
				case airborne <- struct{}{}:
				default:
				}
				<-ctx.Done()
				mu.Lock()
				interrupted++
				mu.Unlock()
				return nil, ctx.Err()
			}
			return real(ctx, req)
		}
		srv.Start()

		ln, err := listenSoak(addr)
		if err != nil {
			srv.Close()
			return nil, "", err
		}
		d := &soakDaemon{srv: srv, hs: &http.Server{Handler: Chaos(srv.Handler(), opts.Chaos, srv.Registry())}}
		go func() { _ = d.hs.Serve(ln) }()
		return d, ln.Addr().String(), nil
	}

	// Grab a loopback port once and keep the address stable across every
	// incarnation, so retrying clients reconnect to the reborn daemon.
	d, addr, err := boot("127.0.0.1:0")
	if err != nil {
		return rep, err
	}
	defer func() { d.kill(true) }()

	c, err := client.New("http://"+addr,
		client.WithRetries(12),
		client.WithBackoff(20*time.Millisecond),
		client.WithMaxBackoff(300*time.Millisecond),
		client.WithCircuitBreaker(3, 150*time.Millisecond),
		client.WithTimeout(60*time.Second),
	)
	if err != nil {
		return rep, err
	}
	configs := soakConfigs(opts.Jobs)
	specs := make([]*autopipe.Spec, opts.Jobs)
	jobErrs := make([]error, opts.Jobs)
	fmt.Fprintf(out, "soak: %d jobs, %d kill/restart cycles\n", opts.Jobs, opts.Cycles)

	next := 0
	for cycle := 1; cycle <= opts.Cycles; cycle++ {
		// This cycle's slice of the job stream.
		end := opts.Jobs * cycle / opts.Cycles
		mu.Lock()
		hold = true
		mu.Unlock()
		var wg sync.WaitGroup
		for i := next; i < end; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				specs[i], _, jobErrs[i] = c.Plan(ctx, configs[i].model, configs[i].run, configs[i].cluster)
			}(i)
		}
		next = end

		// Pull the plug only once a search is parked mid-run, so the kill
		// interrupts at least one search.
		select {
		case <-airborne:
		case <-ctx.Done():
			wg.Wait()
			return rep, fmt.Errorf("service: soak canceled: %w", ctx.Err())
		}
		crash := cycle%2 == 1
		d.kill(crash)
		// The killed incarnation runs no more searches: lift the hold for the
		// reborn daemon and drop any later parked search's signal, so the
		// next cycle waits for a fresh one.
		mu.Lock()
		hold = false
		mu.Unlock()
		select {
		case <-airborne:
		default:
		}
		if d, _, err = boot(addr); err != nil {
			return rep, fmt.Errorf("service: soak reboot after cycle %d: %w", cycle, err)
		}
		// Drain the batch against the reborn daemon before the next kill.
		wg.Wait()
		if ctx.Err() != nil {
			return rep, fmt.Errorf("service: soak canceled: %w", ctx.Err())
		}
		how := "shut down"
		if crash {
			how = "crashed"
		}
		fmt.Fprintf(out, "  cycle %d/%d: %s mid-search and rebooted, %d jobs survived\n", cycle, opts.Cycles, how, end-(opts.Jobs*(cycle-1)/opts.Cycles))
	}

	// Final sweep: the last incarnation serves every job's plan again, and a
	// restart must not change an answer.
	var violations []string
	for i, cfg := range configs {
		if jobErrs[i] != nil {
			violations = append(violations, fmt.Sprintf("job %d never completed: %v", i, jobErrs[i]))
			continue
		}
		spec, _, err := c.Plan(ctx, cfg.model, cfg.run, cfg.cluster)
		if err != nil {
			violations = append(violations, fmt.Sprintf("job %d sweep failed: %v", i, err))
			continue
		}
		if !samePlan(spec, specs[i]) {
			violations = append(violations, fmt.Sprintf("job %d: the final daemon planned %+v, the stream got %+v", i, spec, specs[i]))
			continue
		}
		rep.Completed++
	}
	d.kill(true)

	mu.Lock()
	rep.DuplicateSearches = duplicates
	rep.EngineSearches = searches
	rep.Interrupted = interrupted
	mu.Unlock()
	if rep.DuplicateSearches != 0 {
		violations = append(violations, fmt.Sprintf("%d engine searches for a key the same incarnation had searched", rep.DuplicateSearches))
	}
	if rep.Interrupted < rep.Cycles {
		violations = append(violations, fmt.Sprintf("%d kills interrupted only %d searches", rep.Cycles, rep.Interrupted))
	}
	rep.Format(out)
	if len(violations) > 0 {
		return rep, fmt.Errorf("%w: service: soak failed:\n  %s", errdefs.ErrInternal, strings.Join(violations, "\n  "))
	}
	return rep, nil
}

// samePlan reports whether two plans agree in everything but the wall-clock
// SearchTime.
func samePlan(a, b *autopipe.Spec) bool {
	if a == nil || b == nil {
		return a == b
	}
	x, y := *a, *b
	x.SearchTime, y.SearchTime = 0, 0
	return reflect.DeepEqual(x, y)
}

// listenSoak binds addr, retrying briefly — the previous incarnation's
// listener may take a beat to release the port.
func listenSoak(addr string) (net.Listener, error) {
	var lastErr error
	for i := 0; i < 50; i++ {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln, nil
		}
		lastErr = err
		time.Sleep(20 * time.Millisecond)
	}
	return nil, fmt.Errorf("service: soak rebind %s: %w", addr, lastErr)
}

// soakConfig is one distinct planning request in the soak's job stream.
type soakConfig struct {
	model   autopipe.Model
	run     autopipe.Run
	cluster autopipe.Cluster
}

// soakConfigs builds n plan configurations with pairwise-distinct cache keys
// (the global batch varies linearly), each cheap enough to search in
// milliseconds.
func soakConfigs(n int) []soakConfig {
	out := make([]soakConfig, n)
	for i := range out {
		cluster := autopipe.DefaultCluster()
		cluster.NumGPUs = 4 + 4*(i%2)
		out[i] = soakConfig{
			model:   autopipe.GPT2_345M(),
			run:     autopipe.Run{MicroBatch: 8, GlobalBatch: 128 * (i + 2), Checkpoint: true},
			cluster: cluster,
		}
	}
	return out
}

// TestSoak runs the restart harness: 3 kill/restart cycles over 12 real plan
// jobs. It is the in-tree acceptance test for full completion through the
// retrying client, unchanged answers across restarts, and at most one search
// per key in each daemon's life, under repeated daemon death.
func TestSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("real engine searches under kill/restart in -short mode")
	}
	runSoak(t, nil)
}

// TestSoakWithChaos layers the checked-in chaos plan (latency, 503, 429, and
// truncated submit responses) on top of the kill/restart cycle: the client
// must ride out injected faults as well as real restarts, with the same
// invariants holding.
func TestSoakWithChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("real engine searches under kill/restart in -short mode")
	}
	plan, err := LoadChaos(filepath.Join("..", "..", "testdata", "chaos_basic.json"))
	if err != nil {
		t.Fatalf("LoadChaos: %v", err)
	}
	runSoak(t, plan)
}

// runSoak runs Soak at 3 cycles and 12 jobs and checks the invariants both
// soak tests share.
func runSoak(t *testing.T, plan *ChaosPlan) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var progress strings.Builder
	rep, err := Soak(ctx, SoakOptions{
		Cycles:   3,
		Jobs:     12,
		Chaos:    plan,
		Progress: &progress,
	})
	if err != nil {
		t.Fatalf("Soak: %v\n%s", err, progress.String())
	}
	t.Log(progress.String())
	if rep.Completed != rep.Jobs {
		t.Errorf("completed %d/%d jobs", rep.Completed, rep.Jobs)
	}
	if rep.DuplicateSearches != 0 {
		t.Errorf("%d duplicate searches within one incarnation", rep.DuplicateSearches)
	}
	if rep.Interrupted < rep.Cycles {
		t.Errorf("interrupted %d searches across %d kills, want at least one per kill", rep.Interrupted, rep.Cycles)
	}
}
