package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"fedca"
	"fedca/internal/baseline"
	"fedca/internal/chaos"
	"fedca/internal/compress"
	"fedca/internal/core"
	"fedca/internal/data"
	"fedca/internal/expcfg"
	"fedca/internal/fl"
	"fedca/internal/nn"
	"fedca/internal/rng"
	"fedca/internal/trace"
)

// federation is one runner assembled from facade options, plus the handles
// the benchmark reads besides the runner.
type federation struct {
	runner *fl.Runner
	fedca  *core.Scheme // nil unless the scheme is a FedCA variant
	cfg    fl.Config    // the workload's round config (compressor unwrapped)
	cohort int          // client-rounds per round

	factory   func() *nn.Network
	factory32 func() *nn.NetworkOf[float32]
	// probeClient materializes one client of a fresh copy of the testbed,
	// for the layer probe's real batches.
	probeClient func() (*fl.Client, error)
}

// assemble builds the runner fedca.New would build for o, step for step —
// guard_test.go holds the two to identical bits. With rec non-nil the
// scheme, fleet and compressor are wrapped so every call into them is
// recorded; the wrappers only forward, so the run is unchanged. Telemetry
// and Journal are refused: the benchmark measures the round loop without
// them.
func assemble(o fedca.Options, rec *recorder) (*federation, error) {
	if o.Telemetry != nil || o.Journal != nil {
		return nil, fmt.Errorf("roundbench: Telemetry and Journal are not supported")
	}
	w, err := expcfg.ByName(o.Model)
	if err != nil {
		return nil, err
	}
	if o.Fleet <= 0 && o.Clients <= 0 {
		return nil, fmt.Errorf("roundbench: Clients must be positive")
	}
	if o.LocalIters > 0 {
		w.FL.LocalIters = o.LocalIters
	}
	if o.BatchSize > 0 {
		w.FL.BatchSize = o.BatchSize
	}
	if o.TrainSamples > 0 {
		w.TrainN = o.TrainSamples
	}
	if o.TestSamples > 0 {
		w.TestN = o.TestSamples
	}
	if o.Alpha > 0 {
		w.Alpha = o.Alpha
	}
	w.FL.DType = o.DType
	w.FL.DropoutProb = o.DropoutProb
	if o.ModelBytes > 0 {
		w.FL.ModelBytes = o.ModelBytes
	}
	ccfg, err := chaos.ParseSpec(o.Chaos)
	if err != nil {
		return nil, err
	}
	if ccfg.Enabled() {
		eng, err := chaos.NewEngine(ccfg, rng.New(o.Seed).Fork("chaos-engine").Uint64())
		if err != nil {
			return nil, err
		}
		w.FL.Chaos = eng
	}
	w.FL.MinQuorum = o.MinQuorum
	w.FL.MaxDeltaNorm = o.MaxDeltaNorm
	if o.AggregateFraction > 0 {
		w.FL.AggregateFraction = o.AggregateFraction
	}
	w.FL.Participation = o.Participation
	comp, err := compress.ByName(o.Compress)
	if err != nil {
		return nil, err
	}
	if _, isNone := comp.(compress.None); !isNone {
		w.FL.Compressor = comp
	}

	tcfg := trace.Config{}
	if o.Dynamic || o.Heterogeneous {
		tcfg = trace.PaperConfig()
		if !o.Heterogeneous {
			tcfg.HeterogeneitySigma = 0
		}
		tcfg.Dynamic = o.Dynamic
	}

	var scheme fl.Scheme
	var fedcaScheme *core.Scheme
	switch o.Scheme {
	case "fedavg":
		scheme = baseline.FedAvg{}
	case "fedprox":
		scheme = baseline.FedProx{Mu: 0.01}
	case "fedada":
		scheme = baseline.FedAda{K: w.FL.LocalIters, Tradeoff: 0.5}
	case "oort":
		scheme = baseline.NewOort(w.FL.LocalIters, 0.5, rng.New(o.Seed).Fork("oort"))
	case "safa":
		scheme = baseline.NewSAFA(0.5)
	case "fedca", "fedca-v1", "fedca-v2":
		co := o.FedCA
		if co.K == 0 {
			co = core.DefaultOptions(w.FL.LocalIters)
		}
		co.K = w.FL.LocalIters
		switch o.Scheme {
		case "fedca-v1":
			co.Eager, co.Retransmit = false, false
		case "fedca-v2":
			co.Eager, co.Retransmit = true, false
		}
		fedcaScheme = core.NewScheme(co, rng.New(o.Seed).Fork("scheme"))
		scheme = fedcaScheme
	default:
		return nil, fmt.Errorf("roundbench: unknown scheme %q", o.Scheme)
	}

	f := &federation{fedca: fedcaScheme, cfg: w.FL}
	cfg := w.FL
	if rec != nil {
		scheme = wrapScheme(scheme, rec)
		if cfg.Compressor != nil {
			cfg.Compressor = wrapCompressor(cfg.Compressor, rec)
		}
	}
	var fleet fl.Fleet
	var test *data.Dataset
	if o.Fleet > 0 {
		tb, err := expcfg.BuildFleet(w, o.Fleet, 0, tcfg, o.Seed)
		if err != nil {
			return nil, err
		}
		fleet, test, f.factory, f.factory32 = tb.Fleet, tb.Test, tb.Factory, tb.Factory32
		f.probeClient = func() (*fl.Client, error) {
			fresh, err := expcfg.BuildFleet(w, o.Fleet, 0, tcfg, o.Seed)
			if err != nil {
				return nil, err
			}
			return fresh.Fleet.Materialize(0)
		}
	} else {
		tb := expcfg.Build(w, o.Clients, tcfg, o.Seed)
		fleet, test, f.factory, f.factory32 = fl.NewStaticFleet(tb.Clients), tb.Test, tb.Factory, tb.Factory32
		f.probeClient = func() (*fl.Client, error) {
			return expcfg.Build(w, o.Clients, tcfg, o.Seed).Clients[0], nil
		}
	}
	if rec != nil {
		fleet = wrapFleet(fleet, rec)
	}
	// fl.NewRunner is NewFleetRunner over a StaticFleet (plus telemetry
	// track names, and Telemetry is nil here), so one call covers both.
	f.runner, err = fl.NewFleetRunner(cfg, fleet, scheme, test, f.factory, fl.WithFloat32Workers(f.factory32))
	if err != nil {
		return nil, err
	}
	f.cohort = f.runner.Fleet.Size()
	if p := cfg.Participation; p > 0 && p < 1 {
		f.cohort = int(math.Max(1, math.Round(p*float64(f.cohort))))
	}
	return f, nil
}

// checksum is the SHA-256 of the global parameter vector, 8-byte
// little-endian IEEE 754 bits per coordinate — fedca.Federation's
// ParamsChecksum encoding.
func checksum(flat []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range flat {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// allFinite reports whether no coordinate is NaN or infinite.
func allFinite(flat []float64) bool {
	for _, v := range flat {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// evaluate is the benchmark's own accuracy read of the runner's global
// model, with the runner's test set and eval batch.
func (f *federation) evaluate() float64 {
	r := f.runner
	return fl.Evaluate(r.Global(), r.Test, r.Cfg.EvalBatch)
}
