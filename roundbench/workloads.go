package main

import (
	"fmt"
	"math"

	"fedca"
)

// workload is one named input set of the benchmark: facade options (the seed
// is filled in per run), the reference cost of one steady-state round, which
// turns --seconds into a fixed round schedule, and the accuracy target of
// vtime_to_target_s.
type workload struct {
	name string
	why  string
	opts fedca.Options
	// nominalRoundS is the steady-state seconds per round on the reference
	// host (2 cores). The schedule is 1 warm-up round plus
	// ceil(seconds/nominalRoundS) measured rounds, a pure function of
	// (workload, seconds): every run of a workload does the same rounds, so
	// quality metrics compare across commits and a slower commit is not
	// measured on fewer rounds.
	nominalRoundS float64
	// minRounds is the least number of measured rounds, whatever --seconds.
	minRounds int
	target    float64
	// gated workloads are the ones BENCHMARK.json lists, so regression
	// checks run and bound them. cnn-fedca stays runnable by name: its
	// round_s and clients_per_s moved by up to 0.27 of their median over
	// eight to ten seeds on the reference host, beyond any bound the
	// benchmark may set, because how far FedCA trains is fixed per seed
	// (see cnnFedCA).
	gated bool
}

// cnnFedCA is FedCA (v3) on the CNN workload, every client every round.
// fedca.DefaultOptions has 16 clients at K = 50; here 32 clients at K = 10
// train a similar number of samples per round in less time. How far FedCA
// trains before its early stop is set per seed by the anchor curves and
// stays the same until the next anchor round, so the work per round moves
// from seed to seed (interquartile range 0.125 of the median over 28
// seeds; neither 64 clients nor re-profiling every third round narrowed
// it). The run, with its same-seed repeat of the anchor round, takes about
// 43 s on two cores at --seconds 20.
func cnnFedCA() fedca.Options {
	o := fedca.DefaultOptions() // cnn, fedca, f64, 0.9 cut, batch 32
	o.Clients = 32
	o.LocalIters = 10
	o.FedCA.ProfilePeriod = 10
	return o
}

// fleetFedCAF32 is FedCA over a million-client virtual fleet, f32 workers.
func fleetFedCAF32() fedca.Options {
	o := fedca.DefaultOptions()
	o.Fleet = 1_000_000
	o.Participation = 0.0002
	o.DType = "f32"
	o.LocalIters = 3
	o.BatchSize = 10
	o.AggregateFraction = 1
	o.Compress = "qsgd7"
	o.FedCA.ProfilePeriod = 2
	return o
}

// lstmFedAvg is plain FedAvg on the LSTM workload.
func lstmFedAvg() fedca.Options {
	o := fedca.DefaultOptions()
	o.Model = "lstm"
	o.Scheme = "fedavg"
	return o
}

var workloads = []workload{
	{
		name:          "cnn-fedca",
		why:           "the paper's main path: conv-bound f64 training with FedCA early stop, eager send and an anchor round, then the 0.9 cut and reduce",
		opts:          cnnFedCA(),
		nominalRoundS: 4.5,
		minRounds:     6,
		target:        0.5,
	},
	{
		name:          "fleet-fedca-f32",
		why:           "1M-client virtual fleet: cohort materialization, retained FedCA state, online fold, qsgd7 and f32 kernels at batch 10",
		opts:          fleetFedCAF32(),
		nominalRoundS: 2.0,
		minRounds:     6,
		target:        0.6,
		gated:         true,
	},
	{
		name:          "lstm-fedavg",
		why:           "no conv, FedCA, fleet or compressor: the no-change control for those, isolating the LSTM/dense GEMMs and the runner itself",
		opts:          lstmFedAvg(),
		nominalRoundS: 3.0,
		minRounds:     6,
		target:        0.4,
		gated:         true,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// options returns the workload's facade options at seed.
func (w workload) options(seed uint64) fedca.Options {
	o := w.opts
	o.Seed = seed
	return o
}

// rounds returns the run's round count: one warm-up round plus the measured
// ones.
func (w workload) rounds(seconds int) int {
	n := int(math.Ceil(float64(seconds) / w.nominalRoundS))
	if n < w.minRounds {
		n = w.minRounds
	}
	return 1 + n
}
