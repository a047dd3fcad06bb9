package main

import (
	"fmt"
	"os"
	"path/filepath"

	"fedca/internal/cputok"
	"fedca/internal/fl"
)

// tracedRound is what the traced run keeps of one round.
type tracedRound struct {
	anchor    bool
	untraced  roundStats
	tracedRun float64 // seconds in the traced RunRound
	ph        phases
}

// runTraced is the traced run. An untraced runner A and a traced runner T
// of the same seed alternate round by round: A gives the untraced baseline
// of trace.overhead and the runtime deltas around RunRound, T the spans,
// and their checksums must agree after every round. A layer probe follows.
func runTraced(w workload, seed uint64, seconds int, outDir string, rep *report) error {
	o := w.options(seed)
	a, err := assemble(o, nil)
	if err != nil {
		return err
	}
	rec := newRecorder()
	t, err := assemble(o, rec)
	if err != nil {
		return err
	}
	budget := cputok.Default()
	budget.ResetMax()
	// The p90 of client-round spans needs ten spans beyond it: small cohorts
	// trace more steady rounds than the untraced schedule has.
	rounds := w.rounds(seconds)
	if need := 1 + (100+t.cohort-1)/t.cohort; need > rounds {
		rounds = need
	}
	rep.Params.Rounds = rounds
	trs := make([]tracedRound, rounds)
	for r := 0; r < rounds; r++ {
		res, st := timedRound(a)

		liveHeap() // both runners start the round from a collected heap
		rec.beginRound(r)
		c0 := rec.now()
		resT := t.runner.RunRound()
		c1 := rec.now()
		accT := t.evaluate()
		c2 := rec.now()
		ph := rec.closeRound(r, roundTimes{callStart: c0, callEnd: c1, evalStart: c1, evalEnd: c2})
		rep.checkRound(a, res, rep.checkTraced(r, a, t, resT, accT))
		trs[r] = tracedRound{
			anchor:    t.fedca != nil && t.fedca.IsAnchorRound(r),
			untraced:  st,
			tracedRun: c1 - c0,
			ph:        ph,
		}
	}
	maxInflight := budget.MaxInflight()

	// The paper metrics over the untraced schedule, so they read as in a
	// --trace 0 run of the same seed.
	var plain []roundStats
	for r, tr := range trs {
		rep.Rounds = append(rep.Rounds, tr.untraced.row(r, a.cfg.BatchSize))
		if r < w.rounds(seconds) {
			plain = append(plain, tr.untraced)
		}
	}
	rep.addQuality(w, plain)
	ledgerMetrics(rep, rec, t, trs, budget.Cap(), maxInflight)
	rows, iterS, err := probe(w, o.Seed)
	if err != nil {
		return err
	}
	rep.Metrics = append(rep.Metrics, rows...)
	addCoverage(rep, rec, trs, budget.Cap(), iterS)

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, seed))
	if err := writeTrace(rec, path); err != nil {
		return err
	}
	rep.TraceFile = path
	return nil
}

// checkTraced runs the traced run's own checks on round r: the traced
// runner t lands on the untraced runner a's bits, and a direct evaluation of
// t's global model equals the accuracy its round reported. The result goes
// into a's checkRound, so a failure counts the round's client-rounds as
// failed.
func (rep *report) checkTraced(r int, a, t *federation, resT fl.RoundResult, accT float64) bool {
	ca, ct := checksum(a.runner.GlobalFlat()), checksum(t.runner.GlobalFlat())
	ok := rep.check("traced_sha256_equals_untraced", ca == ct, "round %d: untraced %s != traced %s", r, ca[:16], ct[:16])
	return rep.check("traced_eval_matches_round", accT == resT.Accuracy,
		"round %d: traced eval %.6f != %.6f", r, accT, resT.Accuracy) && ok
}

func writeTrace(rec *recorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := rec.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// spanSums are per-round sums of span durations by name, and counts.
type spanSums struct {
	dur   map[string]float64
	count map[string]int
}

// sumsByRound totals every span's duration by (round, name).
func sumsByRound(rec *recorder, rounds int) []spanSums {
	out := make([]spanSums, rounds)
	for i := range out {
		out[i] = spanSums{dur: map[string]float64{}, count: map[string]int{}}
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for _, s := range rec.spans {
		if s.round < 0 || s.round >= rounds {
			continue
		}
		out[s.round].dur[s.name] += s.end - s.start
		out[s.round].count[s.name]++
	}
	return out
}

// ledgerMetrics derives the fl, go, fleet, core, compress and cputok rows
// from the traced rounds. Per-round rows are medians over the steady rounds
// (round 0 is the warm-up); the anchor/regular splits use every round of
// their kind, since FedCA's first anchor is round 0.
func ledgerMetrics(rep *report, rec *recorder, t *federation, trs []tracedRound, tokCap, maxInflight int) {
	rounds := len(trs)
	sums := sumsByRound(rec, rounds)
	ns := rounds - 1
	// steady is the median of f over the steady rounds.
	steady := func(f func(r int) float64) float64 {
		var xs []float64
		for r := 1; r < rounds; r++ {
			xs = append(xs, f(r))
		}
		return median(xs)
	}
	// spent and calls are per-round totals of one span name.
	spent := func(name string) float64 { return steady(func(r int) float64 { return sums[r].dur[name] }) }
	calls := func(name string) float64 { return steady(func(r int) float64 { return float64(sums[r].count[name]) }) }
	kind := func(anchor bool, name string) (float64, int) {
		var xs []float64
		for r, tr := range trs {
			if tr.anchor == anchor {
				xs = append(xs, sums[r].dur[name])
			}
		}
		return median(xs), len(xs)
	}
	length := func(s span) float64 { return s.end - s.start }

	rep.add("fl.round_s", steady(func(r int) float64 { return trs[r].tracedRun }), "s", ns)
	rep.add("fl.dispatch_s", steady(func(r int) float64 { return length(trs[r].ph.dispatch) }), "s", ns)
	rep.add("fl.client_phase_s", steady(func(r int) float64 { return length(trs[r].ph.clientPhase) }), "s", ns)
	rep.add("fl.server_tail_s", steady(func(r int) float64 { return length(trs[r].ph.serverTail) }), "s", ns)
	rep.add("fl.eval_s", steady(func(r int) float64 { return length(trs[r].ph.eval) }), "s", ns)

	var clientRounds []float64
	var busy, phase float64
	rec.mu.Lock()
	for _, s := range rec.spans {
		if s.name == spClientRound && s.round >= 1 {
			clientRounds = append(clientRounds, s.end-s.start)
			busy += s.end - s.start
		}
	}
	rec.mu.Unlock()
	for _, tr := range trs[1:] {
		phase += length(tr.ph.clientPhase)
	}
	rep.add("fl.client_round_p50_s", percentile(clientRounds, 50), "s", len(clientRounds))
	if percentileAllowed(len(clientRounds), 90) {
		rep.add("fl.client_round_p90_s", percentile(clientRounds, 90), "s", len(clientRounds))
	}
	rep.add("fl.worker_busy_share", ratio(busy, float64(tokCap)*phase), "1", len(clientRounds))

	rep.add("go.alloc_bytes_per_round", steady(func(r int) float64 { return float64(trs[r].untraced.allocs) }), "B", ns)
	rep.add("go.gc_cycles_per_round", steady(func(r int) float64 { return float64(trs[r].untraced.gcCycles) }), "count", ns)

	rep.add("fleet.materialize_s", spent(spMaterialize), "s", ns)
	rep.add("fleet.materialize_calls", calls(spMaterialize), "count", ns)
	rep.add("fleet.recycle_s", spent(spRecycle), "s", ns)
	rep.add("fleet.sample_cohort_s", spent(spSampleCohort), "s", ns)
	var built int64
	reuse := 0.0
	if fs, ok := t.runner.Fleet.(fl.FleetStats); ok {
		built, _ = fs.SlotStats()
		var allCalls int
		for r := 0; r < rounds; r++ {
			allCalls += sums[r].count[spMaterialize]
		}
		reuse = 1 - ratio(float64(built), float64(allCalls))
	}
	rep.add("fleet.slots_built", float64(built), "count", 1)
	rep.add("fleet.slot_reuse_ratio", reuse, "1", rounds)

	rep.add("core.plan_s", spent(spPlan), "s", ns)
	rep.add("core.new_controller_s", spent(spNewController), "s", ns)
	for _, name := range []string{spAfterIter, spFinalize} {
		rep.add("core."+name+"_s", spent(name), "s", ns)
		v, n := kind(true, name)
		rep.add("core."+name+"_anchor_s", v, "s", n)
		v, n = kind(false, name)
		rep.add("core."+name+"_regular_s", v, "s", n)
	}

	var c roundCounts
	anchorClientRounds := 0
	rec.mu.Lock()
	for r := 0; r < rounds; r++ {
		n, ok := rec.counts[r]
		if !ok {
			continue
		}
		c.earlyStops += n.earlyStops
		c.eagerSent += n.eagerSent
		c.retransmits += n.retransmits
		c.finalized += n.finalized
		c.iterations += n.iterations
		c.compressCalls += n.compressCalls
		c.compressElems += n.compressElems
		c.compressBytes += n.compressBytes
		if trs[r].anchor {
			anchorClientRounds += n.finalized
		}
	}
	rec.mu.Unlock()
	rep.add("core.anchor_client_rounds", float64(anchorClientRounds), "count", 1)
	rep.add("core.early_stops", float64(c.earlyStops), "count", 1)
	rep.add("core.eager_sent", float64(c.eagerSent), "count", 1)
	rep.add("core.retransmits", float64(c.retransmits), "count", 1)
	rep.add("core.eager_kept_ratio", ratio(float64(c.eagerSent-c.retransmits), float64(c.eagerSent)), "1", c.eagerSent)
	rep.add("core.iters_per_client_round", ratio(float64(c.iterations), float64(c.finalized)), "count", c.finalized)
	anchored, profBytes := profilerState(t, rec)
	rep.add("core.anchored_clients", float64(anchored), "count", 1)
	rep.add("core.profiler_bytes", float64(profBytes), "B", anchored)

	rep.add("compress.s", spent(spCompress), "s", ns)
	rep.add("compress.calls", calls(spCompress), "count", ns)
	rep.add("compress.ratio", ratio(c.compressBytes, 4*float64(c.compressElems)), "1", c.compressCalls)

	rep.add("cputok.cap", float64(tokCap), "count", 1)
	rep.add("cputok.max_inflight", float64(maxInflight), "count", 1)
}

// profilerState counts the clients whose FedCA profiler holds anchor curves
// and sums Profiler.MemoryBytes over every profiler the run created.
func profilerState(t *federation, rec *recorder) (anchored int, bytes int) {
	if t.fedca == nil {
		return 0, 0
	}
	rec.mu.Lock()
	ids := make([]int, 0, len(rec.clients))
	for id := range rec.clients {
		ids = append(ids, id)
	}
	rec.mu.Unlock()
	for _, id := range ids {
		p := t.fedca.Profiler(id) // every id had a NewController, which created it
		if p.Curves() != nil {
			anchored++
		}
		bytes += p.MemoryBytes(t.fedca.Opt.K)
	}
	return anchored, bytes
}

// addCoverage adds the ledger's closing rows: how much of the traced round
// the three phases cover, how much of the workers' capacity the probe's
// per-iteration cost explains, and what tracing cost.
func addCoverage(rep *report, rec *recorder, trs []tracedRound, tokCap int, iterS float64) {
	var phases, traced, untraced, clientPhase float64
	iters := 0
	rec.mu.Lock()
	for r := 1; r < len(trs); r++ {
		if n, ok := rec.counts[r]; ok {
			iters += n.iterations
		}
	}
	rec.mu.Unlock()
	for _, tr := range trs[1:] {
		p := tr.ph
		phases += (p.dispatch.end - p.dispatch.start) + (p.clientPhase.end - p.clientPhase.start) + (p.serverTail.end - p.serverTail.start)
		clientPhase += p.clientPhase.end - p.clientPhase.start
		traced += tr.tracedRun
		untraced += tr.untraced.wall
	}
	n := len(trs) - 1
	rep.add("ledger.coverage", ratio(phases, traced), "1", n)
	rep.add("ledger.train_coverage", ratio(iterS*float64(iters), float64(tokCap)*clientPhase), "1", n)
	rep.add("trace.overhead", ratio(traced, untraced)-1, "1", n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
