package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"autopipe"
	"autopipe/client"
)

// planReq is one planning request: the configuration triple Planner.Plan
// takes.
type planReq struct {
	Model   autopipe.Model
	Run     autopipe.Run
	Cluster autopipe.Cluster
}

func (r planReq) String() string {
	return fmt.Sprintf("%s g%d mbs%d gbs%d bw%.6g", r.Model.Name, r.Cluster.NumGPUs,
		r.Run.MicroBatch, r.Run.GlobalBatch, r.Cluster.Network.Bandwidth)
}

func (r planReq) submit() client.SubmitRequest {
	return client.SubmitRequest{Kind: client.KindPlan,
		Plan: &client.PlanPayload{Model: r.Model, Run: r.Run, Cluster: r.Cluster}}
}

func newPlanReq(m autopipe.Model, gpus, mbs, gbs int) planReq {
	cl := autopipe.DefaultCluster()
	cl.NumGPUs = gpus
	return planReq{Model: m, Run: autopipe.Run{MicroBatch: mbs, GlobalBatch: gbs, Checkpoint: true}, Cluster: cl}
}

// grid is the plan-cold configuration space: model zoo × GPUs × micro-batch
// × global batch, 144 configurations in a fixed order.
func grid() []planReq {
	var out []planReq
	for _, m := range autopipe.Models() {
		for _, g := range []int{4, 8, 16} {
			for _, mbs := range []int{4, 8, 16, 32} {
				for _, gbs := range []int{128, 256, 512} {
					out = append(out, newPlanReq(m, g, mbs, gbs))
				}
			}
		}
	}
	return out
}

// cycleOrder is the seeded order in which plan-cold visits the grid on its
// cycle-th pass. Every pass is a full permutation, so a run's mix of cheap
// and expensive configurations depends on the seed only through its last,
// partial pass.
func cycleOrder(seed int64, cycle, n int) []int {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(cycle))).Perm(n)
}

// warmupReq is the plan every set-up runs once: GPT-2 345M on 8 GPUs, the
// README quickstart. It is fixed, not seeded, so set-up time does not depend
// on which configuration a seed happens to draw first.
func warmupReq() planReq { return newPlanReq(autopipe.GPT2_345M(), 8, 4, 128) }

// hotSet is the fixed set of 16 plan configurations the service workloads
// repeat: every zoo model at four GPU/batch shapes. It is not seeded, so the
// set-up cost and the cache-hit response sizes are the same for every seed;
// the seed chooses the order and frequency of requests over it.
func hotSet() []planReq {
	shapes := [][3]int{{4, 4, 128}, {8, 8, 256}, {16, 16, 512}, {16, 4, 256}}
	var out []planReq
	for _, m := range autopipe.Models() {
		for _, s := range shapes {
			out = append(out, newPlanReq(m, s[0], s[1], s[2]))
		}
	}
	return out
}

// hotSequence draws n seeded, uniform picks from the hot set.
func hotSequence(seed int64, n int) []int {
	rng := rand.New(rand.NewSource(seed*7_919 + 1))
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(len(hotSet()))
	}
	return out
}

// The svc-mixed traffic mix, per block of 25 requests: 19 hot-set repeats
// (cache hits), 5 never-seen plan configurations (a fifth) and 1 fresh
// simulate or slice profile.
const (
	mixedBlock         = 25
	mixedBlockMisses   = 5
	mixedBlockProfiles = 1
)

// mixedReq is one scheduled svc-mixed request.
type mixedReq struct {
	Due time.Duration // offset of the send time from the start of the run
	// Hot is the hot-set index of a repeat, or -1.
	Hot int
	Req client.SubmitRequest
}

// mixedSchedule returns the seeded svc-mixed request list for a window. The
// arrivals are a Poisson process conditioned on its count per block of
// mixedBlock requests: each block's arrivals fall at uniform random times in
// its own slice of the window, and each block holds the same mix of kinds in
// a shuffled order. Every seed therefore offers the same load and mix at
// every scale above a block, and the seed changes only the order inside
// blocks. Misses walk seeded passes over the grid, so every seed draws about
// the same spread of search costs, and each gets a network bandwidth no other
// request has, which makes it a distinct cache key that runs a full engine
// search.
func mixedSchedule(seed int64, rate float64, window time.Duration) []mixedReq {
	rng := rand.New(rand.NewSource(seed*104_729 + 2))
	n := int(rate*window.Seconds()) / mixedBlock * mixedBlock
	slot := window / time.Duration(n/mixedBlock)
	kinds := make([]int, n) // 0 hot, 1 miss, 2 profile
	dues := make([]time.Duration, n)
	for b := 0; b < n; b += mixedBlock {
		k := kinds[b : b+mixedBlock]
		for i := range k[:mixedBlockMisses] {
			k[i] = 1
		}
		for i := range k[mixedBlockMisses : mixedBlockMisses+mixedBlockProfiles] {
			k[mixedBlockMisses+i] = 2
		}
		rng.Shuffle(len(k), func(i, j int) { k[i], k[j] = k[j], k[i] })
		start := time.Duration(b/mixedBlock) * slot
		d := dues[b : b+mixedBlock]
		for i := range d {
			d[i] = start + time.Duration(rng.Int63n(int64(slot)))
		}
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	}

	hot, base := hotSet(), grid()
	usedBW := map[float64]bool{autopipe.DefaultCluster().Network.Bandwidth: true}
	var order []int
	out := make([]mixedReq, n)
	for i, kind := range kinds {
		r := mixedReq{Due: dues[i], Hot: -1}
		switch kind {
		case 0:
			r.Hot = rng.Intn(len(hot))
			r.Req = hot[r.Hot].submit()
		case 1:
			if len(order) == 0 {
				order = rng.Perm(len(base))
			}
			pr := base[order[0]]
			order = order[1:]
			bw := 5e9 + 1e10*rng.Float64()
			for usedBW[bw] {
				bw = 5e9 + 1e10*rng.Float64()
			}
			usedBW[bw] = true
			pr.Cluster.Network.Bandwidth = bw
			r.Req = pr.submit()
		default:
			p := randomProfile(rng)
			k := client.KindSimulate
			if rng.Intn(2) == 1 {
				k = client.KindSlice
			}
			r.Req = client.SubmitRequest{Kind: k, Profile: &p}
		}
		out[i] = r
	}
	return out
}

// randomProfile draws a stage profile with 2–8 stages and 8–32 micro-batches
// and stage times of a few milliseconds.
func randomProfile(rng *rand.Rand) autopipe.StageProfile {
	p := []int{2, 4, 8}[rng.Intn(3)]
	prof := autopipe.StageProfile{
		Fwd:   make([]float64, p),
		Bwd:   make([]float64, p),
		Comm:  5e-5 + 4.5e-4*rng.Float64(),
		Micro: []int{8, 16, 32}[rng.Intn(3)],
	}
	for i := range prof.Fwd {
		prof.Fwd[i] = 1e-3 + 2e-3*rng.Float64()
		prof.Bwd[i] = prof.Fwd[i] * (1.8 + 0.4*rng.Float64())
	}
	return prof
}
