package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"time"

	"autopipe"
	"autopipe/client"
)

// mixedRate is the fixed svc-mixed arrival rate, in requests per second.
const mixedRate = 200

// hotRSSRequests is the svc-hot request count at which rss_peak_mb is read.
// The daemon keeps every job it has served, so its memory grows with the
// requests served; reading it at a fixed count keeps rss_peak_mb from
// following throughput.
const hotRSSRequests = 40_000

// probeRequests is how many plan-cold requests the traced plan-cold run sends
// through a daemon after its timed window. plan-cold never reaches the
// service, so this probe is where its service and client layers are measured;
// 1000 samples are the fewest a p99 may come from.
const probeRequests = 1000

// runPlanCold: one caller in a closed loop runs Planner.Plan at default
// options, then Evaluate, on seeded full passes over the grid.
func runPlanCold(r *runCtx) error {
	ctx := context.Background()
	g := grid()
	var setups []float64
	for i := 0; i < setupReps; i++ {
		done := r.setupTimer()
		cycleOrder(r.seed, 0, len(g))
		if o := planEval(ctx, warmupReq()); o.err != nil || o.evalErr != nil {
			return fmt.Errorf("set-up plan: %v", errors.Join(o.err, o.evalErr))
		}
		setups = append(setups, done())
	}
	r.set("setup_s", median(setups), fmt.Sprintf("(median of %d set-ups: request order and the first plan)", setupReps))

	type op struct {
		gi     int
		out    planOut
		traced bool
	}
	var ops []op
	var ts []timing
	var layers []planLayers
	var opBytes []float64
	kept := map[int]bool{}
	cpu0 := readCPU()
	deadline := r.elapsed() + r.seconds
	// Tracing alternates by pass, so traced and untraced operations see the
	// same mix of configurations.
loop:
	for cycle := 0; ; cycle++ {
		traced := r.rec != nil && cycle%2 == 1
		for _, gi := range cycleOrder(r.seed, cycle, len(g)) {
			ready := r.elapsed()
			if ready >= deadline {
				break loop
			}
			t := timing{Due: ready}
			var o planOut
			if traced {
				var root span
				var l planLayers
				o, root, l = tracedPlanEval(ctx, r.rec, g[gi])
				t.Start, t.End = root.Start, root.End
				layers = append(layers, l)
				opBytes = append(opBytes, float64(l.bytes))
			} else {
				t.Start = r.elapsed()
				o = planEval(ctx, g[gi])
				t.End = r.elapsed()
			}
			t.Failed = o.err != nil && !o.infeasible()
			ts = append(ts, t)
			// The checks need the block array and evaluation once per
			// configuration.
			if kept[gi] {
				o.bl, o.eval = nil, nil
			} else if o.err == nil || o.infeasible() {
				kept[gi] = true
			}
			ops = append(ops, op{gi, o, traced})
		}
	}
	cpu1 := readCPU()
	r.windowClosed()

	// Output checks, outside the timed region: each configuration's first
	// answer is checked in full, and every repeat must give the same answer.
	firsts := map[int]planOut{}
	answers := map[string]string{}
	errs := &opErrors{}
	infeasible := 0
	for _, o := range ops {
		if o.out.infeasible() {
			infeasible++
		}
		if o.out.err != nil && !o.out.infeasible() {
			errs.add("%s: %v", g[o.gi], o.out.err)
			continue
		}
		first, seen := firsts[o.gi]
		if !seen {
			firsts[o.gi] = o.out
			answers[g[o.gi].String()] = o.out.answer()
			if msg := checkPlan(g[o.gi], o.out); msg != "" {
				r.checkf("%s", msg)
			}
			continue
		}
		if a, b := o.out.answer(), first.answer(); a != b {
			r.checkf("%s: repeat returned a different plan: %s vs %s", g[o.gi], a, b)
		}
	}
	errs.print(r)
	digest(r.out, answers)
	r.attempted, r.failed = len(ts), countFailed(ts)
	fmt.Fprintf(r.out, "plan-cold: %d operations over %d configurations, %d typed infeasible answers, %d failed\n",
		len(ts), len(firsts), infeasible, r.failed)

	if r.rec == nil {
		adj, win := r.unstolen(ts)
		lat := latenciesMs(adj)
		p50, err := pct(lat, 0.5)
		if err != nil {
			return err
		}
		p99, err := pct(lat, 0.99)
		if err != nil {
			return err
		}
		perS := float64(len(ts)-r.failed) / win.Seconds()
		note := fmt.Sprintf("(n=%d Plan+Evaluate calls; with steal: p50 %.4g ms, %.4g/s)",
			len(ts), median(latenciesMs(ts)), float64(len(ts)-r.failed)/(ts[len(ts)-1].End-ts[0].Due).Seconds())
		r.set("plan_ms_p50", p50, note)
		r.set("plan_ms_p99", p99, note)
		r.set("plans_per_s", perS, note)
		// A plan-cold request is one library call, and every one is a
		// full search: the request and miss metrics are the plan metrics.
		r.set("req_ms_p50", p50, "(= plan_ms_p50)")
		r.set("req_ms_p99", p99, "(= plan_ms_p99)")
		r.set("req_per_s", perS, "(= plans_per_s)")
		r.set("miss_ms_p50", p50, "(every plan-cold call is a full search)")
		r.set("ok_share", 1-float64(r.failed)/float64(len(ts)), note)
		return nil
	}

	setPlanLayers(r, layers)
	r.set("runtime.gc_cpu_share", gcShare(cpu0, cpu1), "(GC share of the process's CPU capacity in the window)")
	r.set("runtime.alloc_kb_per_req", mean(opBytes)/1024, "(per traced Plan+Evaluate call)")
	if err := setLateness(r, ts); err != nil {
		return err
	}
	r.set("trace.overhead_share", overheadShare(ts, func(i int) bool { return ops[i].traced }),
		"(median traced over untraced Plan+Evaluate latency, minus 1)")
	return probePlanCold(r, g, answers)
}

// probePlanCold sends the first probeRequests plan-cold requests, traced,
// through a fresh daemon from one caller and reports the service-side layers.
func probePlanCold(r *runCtx, g []planReq, answers map[string]string) error {
	ctx := context.Background()
	d, err := startDaemon(r.rec)
	if err != nil {
		return err
	}
	defer d.close()
	var order []int
	for c := 0; len(order) < probeRequests; c++ {
		order = append(order, cycleOrder(r.seed, c, len(g))...)
	}
	w := openWindow(r, d)
	got := make([]string, probeRequests)
	ts := closedLoop(1, r.start, func(i int, _ time.Duration) bool { return i >= probeRequests }, func(i int) bool {
		job, err := d.send(ctx, r.rec, true, g[order[i]].submit())
		switch {
		case err == nil:
			got[i] = decodeAnswer(job.Result)
		case errors.Is(err, autopipe.ErrInfeasible):
			got[i] = "infeasible"
		default:
			got[i] = "error: " + err.Error()
		}
		return err == nil || errors.Is(err, autopipe.ErrInfeasible)
	})
	for i, a := range got {
		if want, ok := answers[g[order[i]].String()]; ok && a != want {
			r.checkf("probe: %s: daemon answered %s, library %s", g[order[i]], a, want)
		}
	}
	fmt.Fprintf(r.out, "probe: %d plan-cold requests through the daemon, %d failed\n", len(ts), countFailed(ts))
	return w.report(r, len(ts), false)
}

// setLateness reports how late the generator sent.
func setLateness(r *runCtx, ts []timing) error {
	late := latesMs(ts)
	p99, err := pct(late, 0.99)
	if err != nil {
		return fmt.Errorf("loadgen.late_ms_p99: %w", err)
	}
	note := fmt.Sprintf("(%d requests)", len(ts))
	r.set("loadgen.late_ms_p50", median(late), note)
	r.set("loadgen.late_ms_p99", p99, note)
	return nil
}

// setUp boots the daemon and sends the first plan and then every hot-set
// configuration once, setupReps times over, and keeps the last daemon and its
// hot-set results. setup_s is the median set-up. Every one of these requests
// runs an engine search, so their latencies are the daemon's cold-miss
// samples. With the first plan there are 17 distinct searches per set-up, an
// odd count, so the median sample falls inside one configuration's group of
// samples instead of on the edge between two.
func setUp(r *runCtx) (d *daemon, warm []json.RawMessage, misses []timing, err error) {
	ctx := context.Background()
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		if d != nil {
			d.close()
		}
		done := r.setupTimer()
		if d, err = startDaemon(r.rec); err != nil {
			return nil, nil, nil, err
		}
		warm = warm[:0]
		for _, pr := range append([]planReq{warmupReq()}, hotSet()...) {
			t := timing{Due: r.elapsed()}
			t.Start = t.Due
			job, err := d.c.Submit(ctx, pr.submit())
			if err != nil {
				d.close()
				return nil, nil, nil, fmt.Errorf("warm %s: %w", pr, err)
			}
			t.End = r.elapsed()
			misses = append(misses, t)
			warm = append(warm, job.Result)
		}
		warm = warm[1:]
		setups = append(setups, done())
	}
	r.set("setup_s", median(setups), fmt.Sprintf("(median of %d set-ups: daemon boot, the first plan, %d-config hot-set warm-up)", setupReps, len(warm)))
	return d, warm, misses, nil
}

// libraryPlan plans pr with the library, traced when the run is, for
// comparison with the daemon's answer.
func libraryPlan(r *runCtx, pr planReq, layers *[]planLayers) planOut {
	if r.rec == nil {
		return planEval(context.Background(), pr)
	}
	o, _, l := tracedPlanEval(context.Background(), r.rec, pr)
	*layers = append(*layers, l)
	return o
}

// checkHotSet checks the warm-up answers against the library and returns the
// canonical answer per hot-set index.
func checkHotSet(r *runCtx, warm []json.RawMessage, answers map[string]string, layers *[]planLayers) []string {
	out := make([]string, len(warm))
	for k, pr := range hotSet() {
		o := libraryPlan(r, pr, layers)
		if msg := checkPlan(pr, o); msg != "" {
			r.checkf("%s", msg)
		}
		out[k] = o.answer()
		answers["hot "+pr.String()] = out[k]
		if got := decodeAnswer(warm[k]); got != out[k] {
			r.checkf("hot %s: daemon answered %s, library %s", pr, got, out[k])
		}
	}
	return out
}

// runSvcHot: nproc callers in a closed loop send plan requests for the warmed
// hot set, so every measured request is a cache hit.
func runSvcHot(r *runCtx) error {
	ctx := context.Background()
	d, warm, misses, err := setUp(r)
	if err != nil {
		return err
	}
	defer d.close()
	hot := hotSet()
	reqs := make([]client.SubmitRequest, len(hot))
	for k, pr := range hot {
		reqs[k] = pr.submit()
	}
	seq := hotSequence(r.seed, 1<<16)
	traced := func(i int) bool { return r.rec != nil && i%2 == 1 }
	errs := &opErrors{}
	type odd struct {
		k   int
		raw json.RawMessage
	}
	var odds []odd
	var oddMu sync.Mutex

	w := openWindow(r, d)
	deadline := r.elapsed() + r.seconds
	ts := closedLoop(runtime.NumCPU(), r.start, func(_ int, now time.Duration) bool { return now >= deadline }, func(i int) bool {
		if i == hotRSSRequests {
			r.rssMiB, r.rssNote = peakRSSMiB(), fmt.Sprintf("(VmHWM of the process after %d requests)", hotRSSRequests)
		}
		k := seq[i%len(seq)]
		job, err := d.send(ctx, r.rec, traced(i), reqs[k])
		if err != nil {
			errs.add("%s: %v", hot[k], err)
			return false
		}
		// The cache serves the bytes the warm-up stored; anything else is
		// decoded and checked after the run.
		if !bytes.Equal(job.Result, warm[k]) {
			oddMu.Lock()
			odds = append(odds, odd{k, job.Result})
			oddMu.Unlock()
		}
		return true
	})
	r.windowClosed()
	if err := w.report(r, len(ts), true); err != nil {
		return err
	}

	var layers []planLayers
	answers := map[string]string{}
	want := checkHotSet(r, warm, answers, &layers)
	for _, o := range odds {
		if got := decodeAnswer(o.raw); got != want[o.k] {
			r.checkf("hot %s: daemon answered %s, library %s", hot[o.k], got, want[o.k])
		}
	}
	errs.print(r)
	digest(r.out, answers)
	r.attempted, r.failed = len(ts), countFailed(ts)

	if r.rec == nil {
		adj, win := r.unstolen(ts)
		lat := latenciesMs(adj)
		p50, err := pct(lat, 0.5)
		if err != nil {
			return err
		}
		p99, err := pct(lat, 0.99)
		if err != nil {
			return err
		}
		missAdj, _ := r.unstolen(misses)
		miss, err := pct(latenciesMs(missAdj), 0.5)
		if err != nil {
			return err
		}
		perS := float64(len(ts)-r.failed) / win.Seconds()
		note := fmt.Sprintf("(n=%d cache-hit requests, %d callers)", len(ts), runtime.NumCPU())
		r.set("req_ms_p50", p50, note)
		r.set("req_ms_p99", p99, note)
		r.set("req_per_s", perS, note)
		r.set("plan_ms_p50", p50, "(= req_ms_p50: every request is a plan)")
		r.set("plan_ms_p99", p99, "(= req_ms_p99)")
		r.set("plans_per_s", perS, "(= req_per_s)")
		r.set("miss_ms_p50", miss, fmt.Sprintf("(n=%d set-up requests, each an engine search)", len(misses)))
		r.set("ok_share", 1-float64(r.failed)/float64(len(ts)), note)
		return nil
	}
	setPlanLayers(r, layers)
	r.set("trace.overhead_share", overheadShare(ts, traced), "(median traced over untraced request latency, minus 1)")
	return setLateness(r, ts)
}

// mixedOut is the daemon's answer to one svc-mixed request.
type mixedOut struct {
	job *client.Job
	err error
}

// runSvcMixed: an open loop sends seeded Poisson arrivals at mixedRate to the
// daemon: hot-set repeats, never-seen plan configurations, and fresh simulate
// and slice profiles. The daemon runs without a job store: on a shared disk
// the store's file replacements made every latency swing by half from run to
// run, which no bound could hold.
func runSvcMixed(r *runCtx) error {
	ctx := context.Background()
	d, warm, _, err := setUp(r)
	if err != nil {
		return err
	}
	defer d.close()
	sched := mixedSchedule(r.seed, mixedRate, r.seconds)
	due := make([]time.Duration, len(sched))
	for i, m := range sched {
		due[i] = m.Due
	}
	outs := make([]mixedOut, len(sched))
	traced := func(i int) bool { return r.rec != nil && i%2 == 1 }

	w := openWindow(r, d)
	ts := openLoop(runtime.NumCPU(), time.Now(), due, func(i int) bool {
		job, err := d.send(ctx, r.rec, traced(i), sched[i].Req)
		outs[i] = mixedOut{job, err}
		return err == nil || errors.Is(err, autopipe.ErrInfeasible)
	})
	r.windowClosed()
	if err := w.report(r, len(ts), true); err != nil {
		return err
	}

	// Output checks: every answer must equal the library's for the same
	// request.
	var layers []planLayers
	answers := map[string]string{}
	want := checkHotSet(r, warm, answers, &layers)
	errs := &opErrors{}
	for i, m := range sched {
		o := outs[i]
		if o.err != nil && !errors.Is(o.err, autopipe.ErrInfeasible) {
			errs.add("request %d (%s): %v", i, m.Req.Kind, o.err)
			continue
		}
		switch {
		case m.Hot >= 0:
			if !bytes.Equal(o.job.Result, warm[m.Hot]) {
				if got := decodeAnswer(o.job.Result); got != want[m.Hot] {
					r.checkf("request %d: hot %d: daemon answered %s, library %s", i, m.Hot, got, want[m.Hot])
				}
			}
		case m.Req.Kind == client.KindPlan:
			pr := planReq{Model: m.Req.Plan.Model, Run: m.Req.Plan.Run, Cluster: m.Req.Plan.Cluster}
			lib := libraryPlan(r, pr, &layers)
			got := "infeasible"
			if o.err == nil {
				got = decodeAnswer(o.job.Result)
			}
			if want := lib.answer(); got != want {
				r.checkf("request %d: %s: daemon answered %s, library %s", i, pr, got, want)
			}
			answers[fmt.Sprintf("miss %d %s", i, pr)] = got
		default:
			got, want := checkProfile(m.Req, o)
			if got != want {
				r.checkf("request %d (%s): daemon answered %s, library %s", i, m.Req.Kind, got, want)
			}
			answers[fmt.Sprintf("%s %d", m.Req.Kind, i)] = got
		}
	}
	errs.print(r)
	digest(r.out, answers)
	r.attempted, r.failed = len(ts), countFailed(ts)

	late := latesMs(ts)
	reqP50 := median(latenciesMs(ts))
	fmt.Fprintf(r.out, "loadgen: %d requests at %d/s from %d senders, late p50 %.4f ms, request p50 %.4f ms\n",
		len(ts), mixedRate, runtime.NumCPU(), median(late), reqP50)
	if median(late) > reqP50/4 {
		fmt.Fprintf(r.out, "loadgen: note: the generator's median lateness exceeds a quarter of the request median; "+
			"requests waited for a free sender, and that wait is in their latency\n")
	}

	if r.rec == nil {
		// The arrival schedule runs on the wall clock, so the rates are over
		// the wall-clock window; latencies are less host steal.
		adj, _ := r.unstolen(ts)
		win := (ts[len(ts)-1].End - ts[0].Due).Seconds()
		var plans, misses []timing
		for i, t := range adj {
			if sched[i].Req.Kind == client.KindPlan {
				plans = append(plans, t)
				if sched[i].Hot < 0 {
					misses = append(misses, t)
				}
			}
		}
		for _, m := range []struct {
			name string
			ts   []timing
		}{{"req_ms", adj}, {"plan_ms", plans}} {
			lat := latenciesMs(m.ts)
			p50, err := pct(lat, 0.5)
			if err != nil {
				return fmt.Errorf("%s_p50: %w", m.name, err)
			}
			p99, err := pct(lat, 0.99)
			if err != nil {
				return fmt.Errorf("%s_p99: %w", m.name, err)
			}
			note := fmt.Sprintf("(n=%d, from due time)", len(m.ts))
			r.set(m.name+"_p50", p50, note)
			r.set(m.name+"_p99", p99, note)
		}
		miss, err := pct(latenciesMs(misses), 0.5)
		if err != nil {
			return fmt.Errorf("miss_ms_p50: %w", err)
		}
		r.set("miss_ms_p50", miss, fmt.Sprintf("(n=%d never-seen plan configurations)", len(misses)))
		r.set("req_per_s", float64(len(ts)-r.failed)/win, fmt.Sprintf("(completed, offered %d/s)", mixedRate))
		r.set("plans_per_s", float64(len(plans)-countFailed(plans))/win, "(completed plan requests)")
		r.set("ok_share", 1-float64(r.failed)/float64(len(ts)), fmt.Sprintf("(n=%d)", len(ts)))
		return nil
	}
	setPlanLayers(r, layers)
	r.set("trace.overhead_share", overheadShare(ts, traced), "(median traced over untraced request latency, minus 1)")
	return setLateness(r, ts)
}

// checkProfile returns the daemon's and the library's answers to a simulate
// or slice request, each as a comparable string.
func checkProfile(req client.SubmitRequest, o mixedOut) (got, want string) {
	if o.err != nil {
		return "error: " + o.err.Error(), "a result"
	}
	if req.Kind == client.KindSimulate {
		var res client.SimulateResult
		if err := json.Unmarshal(o.job.Result, &res); err != nil {
			return "undecodable: " + err.Error(), "a result"
		}
		lib, err := autopipe.SimulateProfile(*req.Profile)
		if err != nil {
			return fmt.Sprintf("%+v", res), "error: " + err.Error()
		}
		return fmt.Sprintf("%+v", res), fmt.Sprintf("%+v", client.SimulateResult{IterTime: lib.IterTime, Startup: lib.Startup, Master: lib.Master})
	}
	var res client.SliceResult
	if err := json.Unmarshal(o.job.Result, &res); err != nil {
		return "undecodable: " + err.Error(), "a result"
	}
	lib, err := autopipe.SliceProfile(*req.Profile)
	if err != nil {
		return fmt.Sprintf("%+v", res.Plan), "error: " + err.Error()
	}
	if reflect.DeepEqual(res.Plan, lib) {
		return fmt.Sprintf("%+v", lib), fmt.Sprintf("%+v", lib)
	}
	return fmt.Sprintf("%+v", res.Plan), fmt.Sprintf("%+v", lib)
}
