// Package parallel models and measures the parallel execution of the
// treecode. The paper parallelizes by exploiting the independence of each
// particle's tree traversal: particles are sorted in a proximity-preserving
// (Peano-Hilbert) order and force computations for runs of w particles are
// aggregated into a single thread. Here the runs are consecutive in tree
// order — the octree's depth-first particle permutation, which is equally
// proximity-preserving — rather than along a Hilbert curve.
//
// Two tools live here:
//
//  1. MeasureTraced: wall-clock runs of the real goroutine-parallel
//     evaluator at different worker counts (the POSIX-threads analogue).
//
//  2. Simulate: a deterministic cost model that reproduces the paper's
//     32-processor Origin 2000 speedup experiment (Table 2) on machines
//     without 32 CPUs. Work per chunk is the measured interaction cost
//     (multipole terms + direct pairs); chunks are placed on P virtual
//     processors; the makespan adds a communication term proportional to
//     the volume of non-local multipole series fetched. The adaptive
//     method fetches longer series, which reproduces the paper's
//     observation that its speedups are slightly lower.
package parallel

import (
	"fmt"
	"time"

	"treecode/internal/core"
	"treecode/internal/obs"
	"treecode/internal/tree"
)

// CostModel weighs the components of the simulated execution time, in
// arbitrary time units.
type CostModel struct {
	// TermCost is the cost of evaluating one multipole term. Default 1.
	TermCost float64
	// PPCost is the cost of one direct particle-particle interaction.
	// A direct interaction is a handful of flops plus a sqrt, comparable
	// to a few series terms. Default 3.
	PPCost float64
	// WordCost is the cost of fetching one remote expansion coefficient
	// (communication). Fetches are counted once per (processor, node):
	// processor-local caching is assumed, as in the paper's code where a
	// large fraction of the data is local. Default 0.5.
	WordCost float64
	// ChunkOverhead is the fixed scheduling cost per chunk. Default 50.
	ChunkOverhead float64
}

func (m *CostModel) fill() {
	if m.TermCost == 0 {
		m.TermCost = 1
	}
	if m.PPCost == 0 {
		m.PPCost = 3
	}
	if m.WordCost == 0 {
		m.WordCost = 0.5
	}
	if m.ChunkOverhead == 0 {
		m.ChunkOverhead = 50
	}
}

// Schedule selects how chunks are placed on processors.
type Schedule int

const (
	// Static assigns each processor a contiguous run of chunks balanced by
	// predicted work (costzones over the proximity order) — the locality-
	// preserving choice, and the default.
	Static Schedule = iota
	// Dynamic assigns each chunk to the currently least-loaded processor
	// (self-scheduling work queue).
	Dynamic
)

func (s Schedule) String() string {
	if s == Dynamic {
		return "dynamic"
	}
	return "static"
}

// Report summarizes one simulated run.
type Report struct {
	Procs      int
	Chunks     int
	Schedule   Schedule
	SerialCost float64   // total work, single processor, no comm/overhead
	Makespan   float64   // simulated parallel time
	Speedup    float64   // SerialCost / Makespan
	Efficiency float64   // Speedup / Procs
	WorkPer    []float64 // per-processor compute cost
	CommPer    []float64 // per-processor communication cost
	CommWords  float64   // total remote coefficient words fetched
	Imbalance  float64   // max work / mean work
	// Phases holds the wall-clock durations of the simulator's own passes
	// (profile, place, tally) — the span data of the simulation itself,
	// always populated, mirrored into the obs collector when one is given
	// to SimulateTraced.
	Phases []obs.PhaseTiming
}

// chunkProfile is the measured cost signature of one chunk of targets.
type chunkProfile struct {
	work  float64
	nodes map[*tree.Node]struct{} // expansions this chunk reads
}

// Simulate runs the cost model for the evaluator's workload: targets are the
// evaluator's own particles in tree (proximity) order, grouped into chunks
// of w, placed on procs processors.
func Simulate(e *core.Evaluator, procs, w int, sched Schedule, model CostModel) (*Report, error) {
	return SimulateTraced(e, procs, w, sched, model, nil)
}

// SimulateTraced is Simulate with an observability collector: the
// simulator's profile / place / tally passes are recorded as nested spans
// (and always mirrored into Report.Phases, collector or not).
func SimulateTraced(e *core.Evaluator, procs, w int, sched Schedule, model CostModel, col *obs.Collector) (*Report, error) {
	if procs <= 0 {
		return nil, fmt.Errorf("parallel: procs must be positive, got %d", procs)
	}
	if w <= 0 {
		w = 64
	}
	model.fill()
	root := col.Start("parallel/simulate")
	defer root.End()
	var phases []obs.PhaseTiming
	phaseStart := time.Now()
	endPhase := func(name string) {
		phases = append(phases, obs.PhaseTiming{Name: name, Dur: time.Since(phaseStart)})
		phaseStart = time.Now()
	}
	t := e.Tree
	n := len(t.Pos)
	nChunks := (n + w - 1) / w

	// Profile every chunk.
	sp := root.Child("profile")
	profiles := make([]chunkProfile, nChunks)
	for c := range profiles {
		lo, hi := c*w, (c+1)*w
		if hi > n {
			hi = n
		}
		p := chunkProfile{nodes: make(map[*tree.Node]struct{})}
		for i := lo; i < hi; i++ {
			e.VisitInteractions(t.Pos[i], i, func(nd *tree.Node, degree int) {
				p.work += float64((degree+1)*(degree+1)) * model.TermCost
				p.nodes[nd] = struct{}{}
			}, func(int) {
				p.work += model.PPCost
			})
		}
		profiles[c] = p
	}
	sp.End()
	endPhase("profile")

	// Place chunks on processors.
	sp = root.Child("place")
	owner := placeChunks(profiles, procs, sched)
	sp.End()
	endPhase("place")
	sp = root.Child("tally")

	// Node homes: the processor owning the chunk containing the node's
	// first particle owns the node's expansion.
	home := func(nd *tree.Node) int { return owner[min(nd.Start/w, nChunks-1)] }

	rep := &Report{
		Procs:    procs,
		Chunks:   nChunks,
		Schedule: sched,
		WorkPer:  make([]float64, procs),
		CommPer:  make([]float64, procs),
	}
	fetched := make([]map[*tree.Node]struct{}, procs)
	for i := range fetched {
		fetched[i] = make(map[*tree.Node]struct{})
	}
	for c, p := range profiles {
		proc := owner[c]
		rep.WorkPer[proc] += p.work + model.ChunkOverhead
		rep.SerialCost += p.work
		for nd := range p.nodes {
			if home(nd) == proc {
				continue
			}
			if _, ok := fetched[proc][nd]; ok {
				continue // cached locally after first fetch
			}
			fetched[proc][nd] = struct{}{}
			// A degree-p series stores (p+1)(p+2)/2 complex coefficients
			// = (p+1)(p+2) words.
			words := float64((nd.Degree + 1) * (nd.Degree + 2))
			rep.CommPer[proc] += words * model.WordCost
			rep.CommWords += words
		}
	}

	var maxT, sumW float64
	for p := 0; p < procs; p++ {
		if t := rep.WorkPer[p] + rep.CommPer[p]; t > maxT {
			maxT = t
		}
		sumW += rep.WorkPer[p]
	}
	rep.Makespan = maxT
	if maxT > 0 {
		rep.Speedup = rep.SerialCost / maxT
	}
	rep.Efficiency = rep.Speedup / float64(procs)
	if mean := sumW / float64(procs); mean > 0 {
		var mw float64
		for _, wk := range rep.WorkPer {
			if wk > mw {
				mw = wk
			}
		}
		rep.Imbalance = mw / mean
	}
	sp.End()
	endPhase("tally")
	rep.Phases = phases
	return rep, nil
}

// placeChunks returns the owning processor of every chunk.
func placeChunks(profiles []chunkProfile, procs int, sched Schedule) []int {
	owner := make([]int, len(profiles))
	if procs <= 0 {
		return owner // degenerate caller: everything on processor 0
	}
	switch sched {
	case Dynamic:
		// Least-loaded processor takes the next chunk (arrival order, which
		// preserves rough locality since chunks arrive in proximity order).
		load := make([]float64, procs)
		for c, p := range profiles {
			best := 0
			for q := 1; q < procs; q++ {
				if load[q] < load[best] {
					best = q
				}
			}
			owner[c] = best
			load[best] += p.work
		}
	default: // Static costzones: contiguous, equal predicted work.
		var total float64
		for _, p := range profiles {
			total += p.work
		}
		target := total / float64(procs)
		proc := 0
		var acc float64
		for c, p := range profiles {
			if acc > target*float64(proc+1) && proc < procs-1 {
				proc++
			}
			owner[c] = proc
			acc += p.work
		}
	}
	return owner
}

// MeasureTraced times the real goroutine evaluation at the given worker
// count and returns the wall-clock duration of one full potential
// evaluation, wrapped in a "parallel/measure" span of col (nil records
// nothing; the evaluator's own phase spans, if it carries a collector, nest
// independently). The worker count is passed per call and leaves the
// evaluator's Config alone; the concurrency contract is
// core.Evaluator.PotentialsWithWorkers'. In walk mode MeasureTraced does
// not mutate the evaluator and may run concurrently with other
// evaluations. In batched mode the first evaluation after core.New or
// Update builds or repairs the persistent interaction plans, so such a call
// must not overlap another evaluation (or Update); once the plan store is
// warm, further calls only read it and may run concurrently.
func MeasureTraced(e *core.Evaluator, workers int, col *obs.Collector) time.Duration {
	sp := col.Start("parallel/measure")
	start := time.Now()
	e.PotentialsWithWorkers(workers)
	d := time.Since(start)
	sp.End()
	return d
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
