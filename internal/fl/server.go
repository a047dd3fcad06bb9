package fl

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"fedca/internal/cputok"
	"fedca/internal/data"
	"fedca/internal/nn"
	"fedca/internal/telemetry"
	"fedca/internal/tensor"
)

// RoundResult summarizes one completed round.
type RoundResult struct {
	Round      int
	Start, End float64 // virtual time
	Collected  []Update
	Discarded  []Update
	Accuracy   float64 // global model accuracy after aggregation
	Plan       RoundPlan

	// Skipped marks a round that closed without aggregating: fewer valid
	// updates survived (dropout, quarantine) than the quorum requires. The
	// global model is unchanged; Collected holds the below-quorum survivors.
	Skipped bool
	// Quarantined counts updates that arrived but failed validation; they
	// sit in Discarded with Update.Quarantined set.
	Quarantined int

	MeanIterations float64
	MeanEagerSent  float64
	MeanRetrans    float64
}

// RunnerStats aggregates the run's degradation events. Snapshot via
// Runner.Stats, safe to poll from any goroutine while rounds execute.
type RunnerStats struct {
	Rounds        int `json:"rounds"`         // rounds completed (including skipped)
	SkippedRounds int `json:"skipped_rounds"` // rounds closed without aggregation (below quorum)
	Quarantined   int `json:"quarantined"`    // updates rejected by validation
	DroppedRounds int `json:"dropped_rounds"` // client-rounds lost to mid-round dropout
	LinkRetries   int `json:"link_retries"`   // failed transfer attempts that were retransmitted
	CohortClients int `json:"cohort_clients"` // client-rounds materialized into cohorts over the run
}

// Duration returns the round's virtual wall time.
func (r RoundResult) Duration() float64 { return r.End - r.Start }

// Runner drives a full FL training run for one scheme.
type Runner struct {
	Cfg    Config
	Fleet  Fleet
	Scheme Scheme
	Test   *data.Dataset
	Hist   *History

	global  *nn.Network
	flat    []float64
	workers []trainWorker   // dtype-erased training slots (see Config.DType)
	bufs    []*RoundBuffers // per-worker scratch, index-aligned with workers
	pool    *deltaPool      // owns every Update.Delta (see RunRound)
	fold    fold            // the one aggregation path, reused across rounds
	round   int
	now     float64

	// Reused per-round cohort buffers: ids, the materialized cohort slice,
	// controllers, raw updates, the completion order and the cut mask all
	// recycle across rounds, so steady-state rounds allocate no cohort-sized
	// slices.
	cohortIDs []int
	cohort    []*Client
	ctrls     []Controller
	updates   []Update
	order     []int
	inCut     []bool
	seen      map[int]bool

	// statsMu guards stats: the round loop updates it serially, but monitors
	// may poll Stats from other goroutines while a round runs.
	statsMu sync.Mutex
	stats   RunnerStats
}

// RunnerOption customizes runner construction (NewRunner, NewFleetRunner).
type RunnerOption func(*runnerOpts)

type runnerOpts struct {
	factory32 func() *nn.NetworkOf[float32]
}

// WithFloat32Workers supplies the float32 network factory the runner uses for
// its training slots when Config.DType is "f32". The factory must build the
// float32 instantiation of the same architecture as the float64 factory —
// same parameters in the same order — since the two exchange state through
// the flat float64 parameter vector. Ignored at other dtypes.
func WithFloat32Workers(factory func() *nn.NetworkOf[float32]) RunnerOption {
	return func(o *runnerOpts) { o.factory32 = factory }
}

// NewRunner wires a runner over a pre-materialized client slice (wrapped in
// a StaticFleet). factory must build fresh identically-shaped networks; the
// first one becomes the global model (its initialization is the run's
// starting point) and one extra per worker executes client training.
func NewRunner(cfg Config, clients []*Client, scheme Scheme, test *data.Dataset, factory func() *nn.Network, opts ...RunnerOption) (*Runner, error) {
	if len(clients) == 0 {
		return nil, fmt.Errorf("fl: no clients")
	}
	r, err := NewFleetRunner(cfg, NewStaticFleet(clients), scheme, test, factory, opts...)
	if err != nil {
		return nil, err
	}
	if t := r.Cfg.Telemetry; t != nil {
		// Observe every client link and name the trace tracks. Observers are
		// passive (simnet.TransferObserver), so the links' arithmetic — and
		// therefore the run — is unchanged. Virtual fleets attach observers
		// at materialization instead and skip track naming (a million named
		// tracks is not a trace anyone reads).
		for _, c := range clients {
			c.Up.Observer = t.UpObserver()
			c.Down.Observer = t.DownObserver()
			t.Tracer().NameTrack(telemetry.ClientTrack(c.ID), fmt.Sprintf("client %d", c.ID))
		}
	}
	return r, nil
}

// NewFleetRunner wires a runner over a Fleet — the entry point for virtual
// fleets where only each round's cohort is materialized. Worker networks are
// sized by min(CPU-token cap, expected cohort), so a million-client fleet at
// 1% participation builds the same handful of worker models a static testbed
// would. Config.Participation in (0,1) requires the fleet to implement
// CohortSampler.
//
// The global model is always float64 — master weights, aggregation and
// evaluation never narrow. Config.DType "f32" switches only the training
// slots to float32 and requires WithFloat32Workers.
func NewFleetRunner(cfg Config, fleet Fleet, scheme Scheme, test *data.Dataset, factory func() *nn.Network, opts ...RunnerOption) (*Runner, error) {
	if fleet == nil || fleet.Size() == 0 {
		return nil, fmt.Errorf("fl: no clients")
	}
	var ro runnerOpts
	for _, o := range opts {
		o(&ro)
	}
	global := factory()
	if err := cfg.Validate(global.NumParams()); err != nil {
		return nil, err
	}
	if cfg.DType == "f32" && ro.factory32 == nil {
		return nil, fmt.Errorf("fl: DType \"f32\" requires WithFloat32Workers")
	}
	if p := cfg.Participation; p > 0 && p < 1 {
		if _, ok := fleet.(CohortSampler); !ok {
			return nil, fmt.Errorf("fl: Participation %v requires a cohort-sampling fleet", p)
		}
	}
	// One network per potential worker, sized by the CPU-token budget at
	// construction. At round time the runner borrows tokens for however many
	// of these it may actually run concurrently.
	nWorkers := cputok.Default().Cap()
	if c := expectedCohort(cfg, fleet.Size()); nWorkers > c {
		nWorkers = c
	}
	if nWorkers < 1 {
		nWorkers = 1
	}
	workers := make([]trainWorker, nWorkers)
	bufs := make([]*RoundBuffers, nWorkers)
	pool := &deltaPool{}
	for i := range workers {
		if cfg.DType == "f32" {
			workers[i] = newTrainWorkerOf(ro.factory32())
		} else {
			workers[i] = newTrainWorkerOf(factory())
		}
		if np := workers[i].numParams(); np != global.NumParams() {
			return nil, fmt.Errorf("fl: worker factory built %d params, global model has %d", np, global.NumParams())
		}
		bufs[i] = &RoundBuffers{pool: pool}
	}
	return &Runner{
		Cfg:     cfg,
		Fleet:   fleet,
		Scheme:  scheme,
		Test:    test,
		Hist:    NewHistory(),
		global:  global,
		flat:    global.FlatParams(),
		workers: workers,
		bufs:    bufs,
		pool:    pool,
		fold:    fold{pool: pool},
		seen:    make(map[int]bool),
	}, nil
}

// expectedCohort returns the per-round cohort size a config implies: the
// participation sample when one is configured, the whole fleet otherwise.
func expectedCohort(cfg Config, fleetSize int) int {
	if p := cfg.Participation; p > 0 && p < 1 {
		k := int(math.Round(p * float64(fleetSize)))
		if k < 1 {
			k = 1
		}
		return k
	}
	return fleetSize
}

// Global returns the server's model (parameters current as of the last
// aggregation).
func (r *Runner) Global() *nn.Network { return r.global }

// GlobalFlat returns a copy of the current global parameter vector.
func (r *Runner) GlobalFlat() []float64 {
	out := make([]float64, len(r.flat))
	copy(out, r.flat)
	return out
}

// Now returns the current virtual time.
func (r *Runner) Now() float64 { return r.now }

// Round returns the number of completed rounds.
func (r *Runner) Round() int { return r.round }

// Stats snapshots the run's degradation counters. Safe to call from any
// goroutine, including while RunRound executes.
func (r *Runner) Stats() RunnerStats {
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	return r.stats
}

// selectCohort decides which client ids participate this round, reusing the
// runner's id buffer: a Selector scheme's choice (deduplicated, order
// preserved) when one is active, else a deterministic participation sample
// from the fleet's seeded sampler, else the whole fleet.
func (r *Runner) selectCohort() (ids []int, fromSelector bool) {
	ids = r.cohortIDs[:0]
	if sel, ok := r.Scheme.(Selector); ok {
		if chosen := sel.SelectClients(r.round, r.Hist, r.Fleet.Size()); len(chosen) > 0 {
			for id := range r.seen {
				delete(r.seen, id)
			}
			for _, id := range chosen {
				if r.seen[id] {
					continue
				}
				r.seen[id] = true
				ids = append(ids, id)
			}
			r.cohortIDs = ids
			return ids, true
		}
	}
	if sampler, ok := r.Fleet.(CohortSampler); ok {
		if p := r.Cfg.Participation; p > 0 && p < 1 {
			k := expectedCohort(r.Cfg, r.Fleet.Size())
			ids = sampler.SampleCohort(r.round, k, ids)
			r.cohortIDs = ids
			return ids, false
		}
	}
	for i := 0; i < r.Fleet.Size(); i++ {
		ids = append(ids, r.Fleet.ClientID(i))
	}
	r.cohortIDs = ids
	return ids, false
}

// RunRound executes one full round and returns its result.
func (r *Runner) RunRound() RoundResult {
	plan := r.Scheme.PlanRound(r.round, r.Hist)
	start := r.now

	// Cohort materialization (serial server phase): ids become live clients,
	// pooled slots for virtual fleets, plain lookups for static ones.
	ids, fromSelector := r.selectCohort()
	participants := r.cohort[:0]
	for _, id := range ids {
		c, err := r.Fleet.Materialize(id)
		if err != nil {
			if fromSelector {
				panic(fmt.Sprintf("fl: selector chose unknown client %d", id))
			}
			panic(fmt.Sprintf("fl: fleet failed to materialize client %d: %v", id, err))
		}
		if t := r.Cfg.Telemetry; t != nil {
			// Static fleets attached observers at construction; virtual
			// slots get theirs on first materialization (observers are
			// passive, so the run is unchanged either way).
			if c.Up.Observer == nil {
				c.Up.Observer = t.UpObserver()
			}
			if c.Down.Observer == nil {
				c.Down.Observer = t.DownObserver()
			}
		}
		participants = append(participants, c)
	}
	r.cohort = participants

	// Controllers are created serially (the Scheme contract): schemes may
	// mutate shared state (e.g. FedCA's per-client profiles) during
	// construction without locking against other NewController calls —
	// though stats they expose to concurrent pollers still need locks.
	if cap(r.ctrls) < len(participants) {
		r.ctrls = make([]Controller, len(participants))
	}
	ctrls := r.ctrls[:len(participants)]
	for i, c := range participants {
		ctrls[i] = r.Scheme.NewController(c, r.round, plan)
	}

	// Anchor detection is telemetry-only: schemes exposing IsAnchorRound
	// (FedCA) get their profiling client-rounds labelled in the trace.
	anchor := false
	if a, ok := r.Scheme.(interface{ IsAnchorRound(int) bool }); ok {
		anchor = a.IsAnchorRound(r.round)
	}

	// Clients run in parallel; each worker owns one network and one scratch
	// buffer set. Extra workers are borrowed from the shared CPU-token budget
	// — the calling goroutine is always the first worker, so a spent budget
	// (every token held by sibling experiment cells) degrades to the serial
	// path instead of oversubscribing. Results land in a slice indexed by
	// participant, so the outcome is order-independent.
	if cap(r.updates) < len(participants) {
		r.updates = make([]Update, len(participants))
	}
	updates := r.updates[:len(participants)]

	// Delta ownership: the runner's pool owns every Update.Delta. A delta
	// leaves the pool in the client round and goes back at the latest in the
	// cleanup below; in between only the fold or the scheme's Aggregator
	// (during its call) reads it. At full aggregation (AggregateFraction 1)
	// with the default fold, every arrived update is aggregated, so the fold
	// runs online at the in-order completion frontier while the client phase
	// still runs: peak delta memory is the out-of-order window, not the
	// cohort. With a cut the collected set depends on every completion time,
	// so the same fold runs after the cut instead.
	agg, customAgg := r.Scheme.(Aggregator)
	online := r.Cfg.AggregateFraction >= 1 && !customAgg
	validate := r.Cfg.ValidateUpdates || r.Cfg.Chaos != nil
	f := &r.fold
	f.reset(updates, len(r.flat))

	maxWorkers := len(r.workers)
	if maxWorkers > len(participants) {
		maxWorkers = len(participants)
	}
	borrowed := cputok.Default().Borrow(maxWorkers - 1)
	var next int
	var mu sync.Mutex
	clientWorker := func(w trainWorker, bufs *RoundBuffers) {
		for {
			mu.Lock()
			i := next
			next++
			mu.Unlock()
			if i >= len(participants) {
				return
			}
			u := w.run(participants[i], r.flat, &r.Cfg, plan, ctrls[i], r.round, start, bufs, anchor)
			// Validation on arrival quarantines deltas no sane server would
			// aggregate — any non-finite coordinate, or (when bounded) an
			// exploded norm — whether or not the update makes the cut, so a
			// late corrupted update cannot reach a scheme that reuses
			// stragglers either.
			if validate && !u.Dropped && !deltaValid(u.Delta, r.Cfg.MaxDeltaNorm) {
				u.Quarantined = true
				r.pool.put(u.Delta)
				u.Delta = nil
			}
			updates[i] = u
			if online {
				f.complete(i)
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(borrowed)
	for w := 1; w <= borrowed; w++ {
		go func(w trainWorker, bufs *RoundBuffers) {
			defer wg.Done()
			clientWorker(w, bufs)
		}(r.workers[w], r.bufs[w])
	}
	clientWorker(r.workers[0], r.bufs[0])
	wg.Wait()
	cputok.Default().Return(borrowed)

	// Partial aggregation: earliest AggregateFraction of updates.
	if cap(r.order) < len(updates) {
		r.order = make([]int, len(updates))
		r.inCut = make([]bool, len(updates))
	}
	order := r.order[:len(updates)]
	inCut := r.inCut[:len(updates)]
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ua, ub := updates[order[a]], updates[order[b]]
		if ua.CompletionTime != ub.CompletionTime {
			return ua.CompletionTime < ub.CompletionTime
		}
		return ua.ClientID < ub.ClientID
	})
	take := int(math.Ceil(r.Cfg.AggregateFraction * float64(len(updates))))
	if take < 1 {
		take = 1
	}
	collected := make([]Update, 0, take)
	discarded := make([]Update, 0, len(updates)-take)
	for i, oi := range order {
		// Dropped clients sort last (CompletionTime = +Inf) and are never
		// aggregated even when the survivor count falls short of the target.
		inCut[oi] = i < take && !updates[oi].Dropped
		if inCut[oi] {
			collected = append(collected, updates[oi])
		} else {
			discarded = append(discarded, updates[oi])
		}
	}

	// The round closes when the last collected update arrives. With no
	// survivors at all, it closes when the last client vanished (its burned
	// compute time) so virtual time still advances.
	end := start
	if len(collected) > 0 {
		end = collected[len(collected)-1].CompletionTime
	} else {
		for _, u := range updates {
			if t := start + u.TrainTime; t > end {
				end = t
			}
		}
	}

	// Quarantined members of the collected set move to Discarded, where they
	// stay visible next to the late quarantined updates.
	valid := collected[:0]
	for _, u := range collected {
		if u.Quarantined {
			discarded = append(discarded, u)
		} else {
			valid = append(valid, u)
		}
	}
	collected = valid
	quarantined := 0
	for _, u := range updates {
		if u.Quarantined {
			quarantined++
		}
	}

	// Graceful degradation: a round with fewer valid survivors than the
	// quorum is skipped-and-recorded — the model stays as it is and the run
	// continues — instead of panicking the whole simulation away.
	quorum := r.Cfg.MinQuorum
	if quorum < 1 {
		quorum = 1
	}
	skipped := len(collected) < quorum
	if !skipped {
		// Aggregation: schemes implementing Aggregator replace the default
		// weighted FedAvg mean (e.g. SAFA-style stale-update reuse).
		if customAgg {
			r.flat = agg.Aggregate(r.round, r.flat, collected, discarded)
			if len(r.flat) != r.global.NumParams() {
				panic("fl: aggregator returned a wrong-sized parameter vector")
			}
		} else {
			if !online {
				f.in = inCut
				for i := range updates {
					f.complete(i)
				}
			}
			f.apply(r.flat)
		}
		r.global.SetFlatParams(r.flat)
	}

	// Every delta the fold has not recycled goes back to the pool now, and
	// no Update leaves the round holding one.
	for i := range updates {
		r.pool.put(updates[i].Delta)
		updates[i].Delta = nil
	}
	for i := range collected {
		collected[i].Delta = nil
		// Timing estimates stay fresh even on skipped rounds: the survivors'
		// updates really arrived. Quarantined updates are distrusted entirely.
		r.Hist.Observe(collected[i])
	}
	for i := range discarded {
		discarded[i].Delta = nil
	}

	res := RoundResult{
		Round:       r.round,
		Start:       start,
		End:         end,
		Collected:   collected,
		Discarded:   discarded,
		Plan:        plan,
		Skipped:     skipped,
		Quarantined: quarantined,
	}
	var sumIter, sumEager, sumRetr, upBytes float64
	dropped, linkRetries := 0, 0
	for _, u := range collected {
		sumIter += float64(u.Iterations)
		sumEager += float64(u.EagerSent)
		sumRetr += float64(u.Retransmitted)
		linkRetries += u.LinkRetries
		upBytes += u.UploadBytes
	}
	for _, u := range discarded {
		linkRetries += u.LinkRetries
		upBytes += u.UploadBytes
		if u.Dropped {
			dropped++
		}
	}
	if n := float64(len(collected)); n > 0 {
		res.MeanIterations = sumIter / n
		res.MeanEagerSent = sumEager / n
		res.MeanRetrans = sumRetr / n
	}
	if r.Test != nil {
		res.Accuracy = Evaluate(r.global, r.Test, r.Cfg.EvalBatch)
	}

	r.statsMu.Lock()
	r.stats.Rounds++
	if skipped {
		r.stats.SkippedRounds++
	}
	r.stats.Quarantined += quarantined
	r.stats.DroppedRounds += dropped
	r.stats.LinkRetries += linkRetries
	r.stats.CohortClients += len(participants)
	r.statsMu.Unlock()

	r.Cfg.Telemetry.RoundDone(r.round, start, end, res.Accuracy, len(collected), quarantined, dropped, skipped)
	r.Cfg.Telemetry.ObserveCohort(r.Fleet.Size(), len(participants))

	// Journal the round serially: per-client attribution for every
	// participant, then one event per quarantine/dropout, then the round
	// summary. Like the sink, the journal is observational only.
	if j := r.Cfg.Journal; j != nil {
		for _, u := range collected {
			j.ObserveUpdate(u.ClientID, u.Iterations, u.TrainTime, u.UploadBytes, u.LinkRetries, false, false)
		}
		for _, u := range discarded {
			j.ObserveUpdate(u.ClientID, u.Iterations, u.TrainTime, u.UploadBytes, u.LinkRetries, u.Dropped, u.Quarantined)
			if u.Quarantined {
				j.Quarantine(r.round, u.ClientID, u.CompletionTime)
			}
			if u.Dropped {
				j.Dropout(r.round, u.ClientID, u.Iterations, start+u.TrainTime)
			}
		}
		j.RoundDone(r.round, end, len(collected), quarantined, dropped, skipped)
		var made, recycled int64
		if fs, ok := r.Fleet.(FleetStats); ok {
			made, recycled = fs.SlotStats()
		}
		j.Cohort(r.round, r.Fleet.Size(), len(participants), made, recycled, upBytes)
	}

	// Return cohort slots to the fleet's pool (no-op for static fleets).
	// Nothing references the clients by now: updates carry metadata only
	// (deltas recycled or nil'd above) and controllers retain just the id.
	for i, c := range participants {
		r.Fleet.Recycle(c)
		participants[i] = nil
	}

	r.round++
	r.now = end
	return res
}

// deltaValid reports whether an update vector may enter aggregation: every
// coordinate finite, and the L2 norm within maxNorm when bounded.
func deltaValid(delta []float64, maxNorm float64) bool {
	var sumsq float64
	for _, v := range delta {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
		sumsq += v * v
	}
	if math.IsInf(sumsq, 0) {
		return false
	}
	return maxNorm <= 0 || sumsq <= maxNorm*maxNorm
}

// RunUntil runs rounds until the accuracy target is reached (maxRounds as a
// stop-loss) and returns every round result. A target of 0 runs all rounds.
func (r *Runner) RunUntil(target float64, maxRounds int) []RoundResult {
	var out []RoundResult
	for i := 0; i < maxRounds; i++ {
		res := r.RunRound()
		out = append(out, res)
		if target > 0 && res.Accuracy >= target {
			break
		}
	}
	return out
}

// fold is the runner's one aggregation path: the weighted FedAvg mean of the
// aggregated updates, accumulated unnormalized in participant-index order
// (agg[j] += w·d[j], because ΣW is unknown until the last update lands) and
// divided once by apply (flat[j] += agg[j]/ΣW). complete folds at the
// in-order frontier, so every element sees the same floating-point sequence
// whether updates arrive online in any completion order at any worker count,
// or all at once after the cut. Each folded delta goes back to the pool at
// once.
type fold struct {
	agg     []float64
	updates []Update
	done    []bool
	// in masks the cut: nil folds every update that carries a delta (full
	// aggregation); otherwise update i is folded only when in[i].
	in   []bool
	next int
	pool *deltaPool

	mu     sync.Mutex
	totalW float64
}

// reset prepares the fold for a round over updates with n parameters.
func (f *fold) reset(updates []Update, n int) {
	if len(f.agg) != n {
		f.agg = make([]float64, n)
	}
	for j := range f.agg {
		f.agg[j] = 0
	}
	if cap(f.done) < len(updates) {
		f.done = make([]bool, len(updates))
	}
	f.done = f.done[:len(updates)]
	for i := range f.done {
		f.done[i] = false
	}
	f.updates, f.in, f.next, f.totalW = updates, nil, 0, 0
}

// complete marks update i finished and folds the in-order frontier. Dropped
// and quarantined updates carry no delta and are skipped. Callers must have
// published updates[i] before calling (the runner's worker loop writes the
// slot, then calls complete; the fold's mutex orders the reads).
func (f *fold) complete(i int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.done[i] = true
	for ; f.next < len(f.updates) && f.done[f.next]; f.next++ {
		u := &f.updates[f.next]
		if u.Delta == nil || (f.in != nil && !f.in[f.next]) {
			continue
		}
		w := u.Weight
		d := u.Delta
		for j := range f.agg {
			f.agg[j] += w * d[j]
		}
		f.totalW += w
		f.pool.put(u.Delta)
		u.Delta = nil
	}
}

// apply adds the folded mean to flat.
func (f *fold) apply(flat []float64) {
	for j := range flat {
		flat[j] += f.agg[j] / f.totalW
	}
}

// Evaluate computes the model's accuracy on ds, in batches of batch samples
// (0 = single pass over everything).
func Evaluate(net *nn.Network, ds *data.Dataset, batch int) float64 {
	n := ds.N()
	if n == 0 {
		return 0
	}
	if batch <= 0 || batch > n {
		batch = n
	}
	dim := ds.Dim()
	correct := 0
	xd := ds.X.Data()
	for startIdx := 0; startIdx < n; startIdx += batch {
		bs := batch
		if startIdx+bs > n {
			bs = n - startIdx
		}
		x := nnTensorView(xd, startIdx, bs, dim)
		logits := net.Forward(x, false)
		for b := 0; b < bs; b++ {
			if logits.ArgMaxRow(b) == ds.Y[startIdx+b] {
				correct++
			}
		}
	}
	return float64(correct) / float64(n)
}

// nnTensorView wraps rows [start, start+batch) of a row-major matrix without
// copying.
func nnTensorView(xd []float64, start, batch, dim int) *tensor.Tensor {
	return tensor.FromSlice(xd[start*dim:(start+batch)*dim], batch, dim)
}
