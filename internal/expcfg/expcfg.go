// Package expcfg centralizes the canonical experiment configurations of the
// reproduction: the three workloads (CNN, LSTM, WRN) with the paper's
// hyperparameters (Sec. 5.1), scaled-down model/data sizes that train inside
// a test harness, and a Build helper that assembles a complete simulated
// testbed (clients with Dirichlet-partitioned data, speed traces, shaped
// links, and a model factory).
package expcfg

import (
	"fmt"

	"fedca/internal/data"
	"fedca/internal/fl"
	"fedca/internal/model"
	"fedca/internal/nn"
	"fedca/internal/rng"
	"fedca/internal/simnet"
	"fedca/internal/tensor"
	"fedca/internal/trace"
)

// Workload bundles everything that defines one of the paper's three
// model/dataset pairs.
type Workload struct {
	Name string

	Img model.ImageConfig
	Seq model.SeqConfig
	Wrn model.WRNConfig

	FL fl.Config

	TrainN, TestN int
	Noise         float64
	Alpha         float64 // Dirichlet concentration (paper: 0.1)

	// TargetAccuracy is the near-optimal accuracy target of Table 1,
	// rescaled to what the synthetic workload can reach.
	TargetAccuracy float64
}

// CNN returns the LeNet-5/CIFAR-10-style workload. Base iteration time and
// model bytes are set so the compute/communication ratio matches the paper's
// CNN row (240 KB model, ≈0.1 s nominal iterations).
func CNN() Workload {
	return Workload{
		Name: "cnn",
		Img:  model.ImageConfig{Channels: 3, Height: 16, Width: 16, Classes: 10},
		FL: fl.Config{
			LocalIters:        125,
			BatchSize:         50,
			LR:                0.01,
			WeightDecay:       0.01,
			AggregateFraction: 0.9,
			BaseIterTime:      0.1,
			ModelBytes:        60e3 * 4,
			EvalBatch:         256,
		},
		TrainN: 4000, TestN: 1000,
		Noise: 1.0, Alpha: 0.1,
		TargetAccuracy: 0.55,
	}
}

// LSTM returns the LSTM/KWS-style workload (200 KB model, ≈0.2 s iterations).
func LSTM() Workload {
	return Workload{
		Name: "lstm",
		Seq:  model.SeqConfig{SeqLen: 10, FeatDim: 8, Hidden: 24, Layers: 2, Classes: 10},
		FL: fl.Config{
			LocalIters:        125,
			BatchSize:         50,
			LR:                0.05,
			WeightDecay:       0.01,
			AggregateFraction: 0.9,
			BaseIterTime:      0.2,
			ModelBytes:        50e3 * 4,
			EvalBatch:         256,
		},
		TrainN: 4000, TestN: 1000,
		Noise: 0.8, Alpha: 0.1,
		TargetAccuracy: 0.85,
	}
}

// WRN returns the WideResNet/CIFAR-100-style workload. The network is a
// scaled-down WideResNet (see DESIGN.md §2), but ModelBytes is set to the
// full 139.4 MB of WRN-28-10 so the communication bottleneck matches the
// paper's WRN row (≈81 s uploads at 13.7 Mbps vs ≈95 s nominal iterations).
func WRN() Workload {
	img := model.ImageConfig{Channels: 3, Height: 16, Width: 16, Classes: 20}
	return Workload{
		Name: "wrn",
		Img:  img,
		Wrn:  model.WRNConfig{Image: img, BlocksPerGroup: 2, Width: 8},
		FL: fl.Config{
			LocalIters:        125,
			BatchSize:         50,
			LR:                0.1,
			WeightDecay:       0.0005,
			AggregateFraction: 0.9,
			BaseIterTime:      95,
			ModelBytes:        139.4e6,
			EvalBatch:         256,
		},
		TrainN: 4000, TestN: 1000,
		Noise: 1.0, Alpha: 0.1,
		TargetAccuracy: 0.55,
	}
}

// ByName returns the named workload ("cnn", "lstm", "wrn").
func ByName(name string) (Workload, error) {
	switch name {
	case "cnn":
		return CNN(), nil
	case "lstm":
		return LSTM(), nil
	case "wrn":
		return WRN(), nil
	default:
		return Workload{}, fmt.Errorf("expcfg: unknown workload %q", name)
	}
}

// Shrink scales a workload down for fast tests: fewer local iterations,
// smaller data, smaller batches. The statistical/system mechanics are
// unchanged.
func (w Workload) Shrink(localIters, trainN, testN, batch int) Workload {
	w.FL.LocalIters = localIters
	w.TrainN, w.TestN = trainN, testN
	w.FL.BatchSize = batch
	return w
}

// NewModel instantiates the workload's network.
func (w Workload) NewModel(r *rng.RNG) *model.Model {
	return NewModelOf[float64](w, r)
}

// NewModelOf instantiates the workload's network at dtype F. Methods cannot
// take type parameters, so this is a package-level function; NewModel is its
// float64 shorthand. At every dtype the constructor draws the same
// initialization stream — a float32 model is the float64 initialization
// narrowed element-wise.
func NewModelOf[F tensor.Float](w Workload, r *rng.RNG) *model.ModelOf[F] {
	switch w.Name {
	case "cnn":
		return model.NewCNNOf[F](w.Img, r)
	case "lstm":
		return model.NewLSTMOf[F](w.Seq, r)
	case "wrn":
		return model.NewWRNOf[F](w.Wrn, r)
	default:
		panic("expcfg: workload has no model: " + w.Name)
	}
}

// Testbed is a fully assembled simulated deployment.
type Testbed struct {
	Workload Workload
	Clients  []*fl.Client
	Test     *data.Dataset
	Factory  func() *nn.Network
	// Factory32 builds the float32 instantiation of the same architecture
	// from the same model seed, for runs with Workload.FL.DType == "f32".
	Factory32 func() *nn.NetworkOf[float32]
	Seed      uint64
}

// base is what Build and BuildFleet derive from the seed before any client:
// the master RNG, the synthetic train and test sets, the per-client shard
// floor, and the float64/float32 model factories. Both factories seed from
// the one "model" fork, so the float32 network is the float64
// initialization narrowed.
type base struct {
	master      *rng.RNG
	train, test *data.Dataset
	minPer      int
	factory     func() *nn.Network
	factory32   func() *nn.NetworkOf[float32]
}

func newBase(w Workload, seed uint64) base {
	b := base{master: rng.New(seed), minPer: w.FL.BatchSize}
	switch w.Name {
	case "lstm":
		gen := data.NewSeqGenerator(data.SeqSpec{
			Classes: w.Seq.Classes, SeqLen: w.Seq.SeqLen, FeatDim: w.Seq.FeatDim, Noise: w.Noise,
		}, b.master.Fork("templates"))
		b.train = gen.Generate(w.TrainN, b.master.Fork("train"))
		b.test = gen.Generate(w.TestN, b.master.Fork("test"))
	default:
		gen := data.NewImageGenerator(data.ImageSpec{
			Classes: w.Img.Classes, Channels: w.Img.Channels, Height: w.Img.Height, Width: w.Img.Width, Noise: w.Noise,
		}, b.master.Fork("templates"))
		b.train = gen.Generate(w.TrainN, b.master.Fork("train"))
		b.test = gen.Generate(w.TestN, b.master.Fork("test"))
	}
	if b.minPer < 2 {
		b.minPer = 2
	}
	modelSeed := b.master.Fork("model").Uint64()
	b.factory = func() *nn.Network {
		return w.NewModel(rng.New(modelSeed)).Network
	}
	b.factory32 = func() *nn.NetworkOf[float32] {
		return NewModelOf[float32](w, rng.New(modelSeed)).Network
	}
	return b
}

// Build assembles numClients clients with Dirichlet-partitioned local data,
// per-client speed models from tcfg, and 13.7 Mbps shaped links. Everything
// derives from seed.
func Build(w Workload, numClients int, tcfg trace.Config, seed uint64) *Testbed {
	b := newBase(w, seed)
	master := b.master
	parts := data.DirichletPartition(b.train.Y, numClients, w.Alpha, b.minPer, master.Fork("partition"))
	speeds := trace.NewFleet(numClients, tcfg, master.Fork("speeds"))

	clients := make([]*fl.Client, numClients)
	for i := range clients {
		shard := b.train.Subset(parts[i])
		clients[i] = &fl.Client{
			ID:     i,
			Data:   shard,
			Loader: data.NewLoader(shard, w.FL.BatchSize, master.Fork("loader", i)),
			Speed:  speeds[i],
			Up:     simnet.NewLink(simnet.DefaultClientBandwidth, 0),
			Down:   simnet.NewLink(simnet.DefaultClientBandwidth, 0),
			Weight: float64(shard.N()),
			Chaos:  master.Fork("chaos", i),
		}
	}
	return &Testbed{Workload: w, Clients: clients, Test: b.test, Factory: b.factory, Factory32: b.factory32, Seed: seed}
}

// NewRunner builds an fl.Runner for the testbed with the given scheme.
func (tb *Testbed) NewRunner(scheme fl.Scheme) (*fl.Runner, error) {
	return fl.NewRunner(tb.Workload.FL, tb.Clients, scheme, tb.Test, tb.Factory,
		fl.WithFloat32Workers(tb.Factory32))
}
