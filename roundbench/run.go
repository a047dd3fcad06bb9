package main

import (
	"bufio"
	"os"
	"runtime"
	rtm "runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fedca/internal/fl"
)

// A run assembles its runner at least minSetups times and until setupSpan
// seconds of set-up have been timed, at most maxSetups times; setup_s is the
// median. Fast set-ups are repeated more, so their median is as steady as a
// slow one's. The first two copies become the measured runner and its
// same-seed repeat.
const (
	minSetups = 11
	maxSetups = 1000
	setupSpan = 2.0
)

// rtSample reads the runtime counters the benchmark diffs around calls.
type rtSample struct {
	allocBytes, gcCycles, liveHeap uint64
}

var rtNames = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles", "/gc/heap/live:bytes"}

func readRuntime() rtSample {
	s := make([]rtm.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	rtm.Read(s)
	return rtSample{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()}
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// stealSeconds is the CPU time the hypervisor has taken from this host's
// CPUs, summed over CPUs (the steal column of /proc/stat, in the kernel's
// 100 Hz ticks); 0 where the file does not exist. The result file records it
// per round so slow rounds on a shared host can be told from slow code.
func stealSeconds() float64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	if err != nil {
		return 0
	}
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

// liveHeap forces a collection and returns the live heap it found. Runs
// between rounds, never inside a timed call.
func liveHeap() uint64 {
	runtime.GC()
	return readRuntime().liveHeap
}

// roundStats is what the benchmark keeps of one measured round.
type roundStats struct {
	wall             float64 // seconds in RunRound
	clients          int     // client-rounds in the cohort
	trainSamples     float64 // Σ iterations × batch over the cohort
	upload           float64 // simulated uplink bytes
	vtimeEnd         float64 // virtual seconds at round end
	accuracy         float64
	liveHeap         uint64
	allocs, gcCycles uint64
	cpu, steal       float64 // process CPU and host steal seconds during RunRound
}

// timedRound runs one round of f, timing only the RunRound call.
func timedRound(f *federation) (fl.RoundResult, roundStats) {
	runtime.GC()
	m0, c0, s0 := readRuntime(), cpuSeconds(), stealSeconds()
	t0 := time.Now()
	res := f.runner.RunRound()
	wall := time.Since(t0).Seconds()
	m1, c1, s1 := readRuntime(), cpuSeconds(), stealSeconds()
	st := roundStats{
		wall:     wall,
		clients:  len(res.Collected) + len(res.Discarded),
		vtimeEnd: res.End,
		accuracy: res.Accuracy,
		allocs:   m1.allocBytes - m0.allocBytes,
		gcCycles: m1.gcCycles - m0.gcCycles,
		cpu:      c1 - c0,
		steal:    s1 - s0,
	}
	for _, us := range [][]fl.Update{res.Collected, res.Discarded} {
		for _, u := range us {
			st.trainSamples += float64(u.Iterations * f.cfg.BatchSize)
			st.upload += u.UploadBytes
		}
	}
	return res, st
}

// row renders one measured round for the result file.
func (s roundStats) row(round, batch int) roundRow {
	return roundRow{
		Round: round, WallS: s.wall, Clients: s.clients,
		MeanIters: s.trainSamples / float64(batch*s.clients),
		VTimeEndS: s.vtimeEnd, Accuracy: s.accuracy, LiveHeapB: s.liveHeap,
		UploadB: s.upload, AllocB: s.allocs, GCCycles: s.gcCycles,
		CPUS: s.cpu, StealS: s.steal,
	}
}

// checkRound runs the per-round output checks on f's state after res and
// books the round's client-rounds.
func (r *report) checkRound(f *federation, res fl.RoundResult, extraOK bool) {
	ok := extraOK
	acc := f.evaluate()
	ok = r.check("eval_matches_round", acc == res.Accuracy,
		"round %d: fl.Evaluate %.6f != Round.Accuracy %.6f", res.Round, acc, res.Accuracy) && ok
	ok = r.check("params_finite", allFinite(f.runner.GlobalFlat()),
		"round %d: non-finite global parameter", res.Round) && ok
	n := len(res.Collected) + len(res.Discarded)
	ok = r.check("cohort_accounted", n == f.cohort,
		"round %d: collected %d + discarded %d != cohort %d", res.Round, len(res.Collected), len(res.Discarded), f.cohort) && ok
	dropped := 0
	for _, u := range res.Discarded {
		if u.Dropped {
			dropped++
		}
	}
	r.ledger.round(n, dropped, res.Quarantined, res.Skipped, !ok)
	r.Attempted, r.Failed = r.ledger.attempted, r.ledger.failed
}

// addQuality adds the paper's metrics over the given rounds — the virtual
// time at the end of the first round whose accuracy reaches the workload's
// target (Table 1) and the accuracy after the last round — and checks that
// the target was reached. A miss fails the run and counts the last round's
// client-rounds as failed.
func (r *report) addQuality(w workload, stats []roundStats) {
	last := stats[len(stats)-1]
	vt, reached := last.vtimeEnd, false
	for _, s := range stats {
		if s.accuracy >= w.target {
			vt, reached = s.vtimeEnd, true
			break
		}
	}
	if !r.check("target_reached", reached, "accuracy never reached %.3f (final %.4f)", w.target, last.accuracy) {
		r.ledger.failed += last.clients
		if r.ledger.failed > r.ledger.attempted {
			r.ledger.failed = r.ledger.attempted
		}
		r.Failed = r.ledger.failed
	}
	r.add("quality.vtime_to_target_s", vt, "s", 1)
	r.add("quality.final_accuracy", last.accuracy, "1", 1)
}

// setup assembles the workload untraced, as often as the constants above
// say, and returns the first two copies with every set-up time.
func setup(w workload, seed uint64) (a, b *federation, times []float64, err error) {
	o := w.options(seed)
	spent := 0.0
	for i := 0; i < minSetups || (spent < setupSpan && i < maxSetups); i++ {
		runtime.GC()
		t0 := time.Now()
		f, err := assemble(o, nil)
		dt := time.Since(t0).Seconds()
		if err != nil {
			return nil, nil, nil, err
		}
		times = append(times, dt)
		spent += dt
		switch i {
		case 0:
			a = f
		case 1:
			b = f
		}
	}
	return a, b, times, nil
}

// runPlain is the untraced run: the end-to-end metrics.
func runPlain(w workload, seed uint64, seconds int, rep *report) error {
	a, b, setups, err := setup(w, seed)
	if err != nil {
		return err
	}
	rounds := w.rounds(seconds)
	var stats []roundStats
	for r := 0; r < rounds; r++ {
		res, st := timedRound(a)
		repeatOK := true
		if r == 0 {
			// Same seed, separately assembled: the repeat must land on the
			// same bits.
			b.runner.RunRound()
			ca, cb := checksum(a.runner.GlobalFlat()), checksum(b.runner.GlobalFlat())
			repeatOK = rep.check("same_seed_same_sha256", ca == cb, "round 0: %s != %s", ca[:16], cb[:16])
			// The repeat's pooled buffers stay reachable through sync.Pool
			// until a second collection; flush them so they never count
			// in the measured runner's heap.
			b = nil
			runtime.GC()
		}
		rep.checkRound(a, res, repeatOK)
		st.liveHeap = liveHeap()
		stats = append(stats, st)
		rep.Rounds = append(rep.Rounds, st.row(r, a.cfg.BatchSize))
	}

	// Round 0 is the warm-up (and FedCA's first anchor); times and rates
	// are medians over the steady rounds after it, so one round slowed by
	// the host moves them no more than any other. Heap covers every round.
	steady := stats[1:]
	var walls, sampleRates, clientRates []float64
	var upload float64
	var peak uint64
	for _, s := range stats {
		if s.liveHeap > peak {
			peak = s.liveHeap
		}
	}
	for _, s := range steady {
		walls = append(walls, s.wall)
		sampleRates = append(sampleRates, s.trainSamples/s.wall)
		clientRates = append(clientRates, float64(s.clients)/s.wall)
		upload += s.upload
	}
	n := len(steady)
	rep.SetupS = setups
	rep.add("setup_s", median(setups), "s", len(setups))
	rep.add("round_s", median(walls), "s", n)
	q1, _, q3 := quartiles(walls)
	rep.add("round_q1_s", q1, "s", n)
	rep.add("round_q3_s", q3, "s", n)
	if percentileAllowed(n, 90) {
		rep.add("round_p90_s", percentile(walls, 90), "s", n)
	}
	rep.add("train_samples_per_s", median(sampleRates), "1/s", n)
	rep.add("clients_per_s", median(clientRates), "1/s", n)
	rep.add("peak_heap_bytes", float64(peak), "B", len(stats))
	rep.add("live_heap_bytes", float64(stats[len(stats)-1].liveHeap), "B", 1)
	rep.add("upload_bytes_per_round", upload/float64(n), "B", n)
	rep.addQuality(w, stats)
	rep.add("failed_ratio", rep.ledger.ratio(), "1", rep.ledger.attempted)
	return nil
}
