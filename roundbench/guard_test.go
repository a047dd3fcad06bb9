package main

// Same-program guard: the benchmark measures the program fedca.New builds,
// and its tracing wrappers change nothing about a run.

import (
	"fmt"
	"testing"

	"fedca"
	"fedca/internal/baseline"
	"fedca/internal/compress"
	"fedca/internal/core"
	"fedca/internal/fl"
	"fedca/internal/nn"
	"fedca/internal/rng"
)

// --- optional-interface forwarding ----------------------------------------

type fakeScheme struct{}

func (fakeScheme) Name() string                            { return "fake" }
func (fakeScheme) PlanRound(int, *fl.History) fl.RoundPlan { return fl.RoundPlan{} }
func (fakeScheme) NewController(*fl.Client, int, fl.RoundPlan) fl.Controller {
	return fl.NopController{}
}

type fakeSel struct{}

func (fakeSel) SelectClients(int, *fl.History, int) []int { return nil }

type fakeAgg struct{}

func (fakeAgg) Aggregate(_ int, flat []float64, _, _ []fl.Update) []float64 { return flat }

type fakeAnchor struct{}

func (fakeAnchor) IsAnchorRound(int) bool { return false }

func TestSchemeWrapperForwardsExactly(t *testing.T) {
	schemes := []fl.Scheme{
		fakeScheme{},
		struct {
			fakeScheme
			fakeSel
		}{},
		struct {
			fakeScheme
			fakeAgg
		}{},
		struct {
			fakeScheme
			fakeAnchor
		}{},
		struct {
			fakeScheme
			fakeSel
			fakeAgg
		}{},
		struct {
			fakeScheme
			fakeSel
			fakeAnchor
		}{},
		struct {
			fakeScheme
			fakeAgg
			fakeAnchor
		}{},
		struct {
			fakeScheme
			fakeSel
			fakeAgg
			fakeAnchor
		}{},
		baseline.FedAvg{},
		baseline.NewOort(4, 0.5, rng.New(1)),
		baseline.NewSAFA(0.5),
		core.NewScheme(core.DefaultOptions(4), rng.New(1)),
	}
	for _, in := range schemes {
		out := wrapScheme(in, newRecorder())
		_, sel := in.(fl.Selector)
		_, agg := in.(fl.Aggregator)
		_, anc := in.(anchorRounder)
		_, wsel := out.(fl.Selector)
		_, wagg := out.(fl.Aggregator)
		_, wanc := out.(anchorRounder)
		if sel != wsel || agg != wagg || anc != wanc {
			t.Errorf("%T: inner sel/agg/anchor = %v/%v/%v, wrapper = %v/%v/%v", in, sel, agg, anc, wsel, wagg, wanc)
		}
	}
}

type fakeDrop struct{}

func (fakeDrop) OnDropout(int) {}

type fakeG32 struct{}

func (fakeG32) ModifyGrad32([]*nn.ParamOf[float32], []float64) {}

// bareController has none of the optional controller interfaces.
type bareController struct{}

func (bareController) ModifyGrad([]*nn.Param, []float64)         {}
func (bareController) AfterIteration(fl.IterState) fl.IterAction { return fl.IterAction{} }
func (bareController) Finalize(fl.FinalState) fl.FinalAction     { return fl.FinalAction{} }

func TestControllerWrapperForwardsExactly(t *testing.T) {
	fedcaCtrl := core.NewScheme(core.DefaultOptions(4), rng.New(1)).NewController(&fl.Client{ID: 3}, 0, fl.RoundPlan{})
	proxCtrl := baseline.FedProx{Mu: 0.01}.NewController(&fl.Client{}, 0, fl.RoundPlan{})
	ctrls := []fl.Controller{
		bareController{},
		struct {
			bareController
			fakeDrop
		}{},
		struct {
			bareController
			fakeG32
		}{},
		struct {
			bareController
			fakeDrop
			fakeG32
		}{},
		fl.NopController{},
		fedcaCtrl,
		proxCtrl,
	}
	for _, in := range ctrls {
		out := wrapController(in, newRecorder(), 0)
		_, drop := in.(fl.DropoutObserver)
		_, g32 := in.(fl.GradModifier32)
		_, wdrop := out.(fl.DropoutObserver)
		_, wg32 := out.(fl.GradModifier32)
		if drop != wdrop || g32 != wg32 {
			t.Errorf("%T: inner drop/g32 = %v/%v, wrapper = %v/%v", in, drop, g32, wdrop, wg32)
		}
	}
}

type fakeFleet struct{}

func (fakeFleet) Size() int                           { return 1 }
func (fakeFleet) ClientID(i int) int                  { return i }
func (fakeFleet) Materialize(int) (*fl.Client, error) { return nil, nil }
func (fakeFleet) Recycle(*fl.Client)                  {}

type fakeSampler struct{}

func (fakeSampler) SampleCohort(_, _ int, dst []int) []int { return dst }

type fakeSlotStats struct{}

func (fakeSlotStats) SlotStats() (int64, int64) { return 0, 0 }

func TestFleetWrapperForwardsExactly(t *testing.T) {
	virtual, err := assemble(tinyOptions("fedavg", "f64", true), nil)
	if err != nil {
		t.Fatal(err)
	}
	fleets := []fl.Fleet{
		fakeFleet{},
		struct {
			fakeFleet
			fakeSampler
		}{},
		struct {
			fakeFleet
			fakeSlotStats
		}{},
		struct {
			fakeFleet
			fakeSampler
			fakeSlotStats
		}{},
		fl.NewStaticFleet([]*fl.Client{{ID: 1}}),
		virtual.runner.Fleet,
	}
	for _, in := range fleets {
		out := wrapFleet(in, newRecorder())
		_, smp := in.(fl.CohortSampler)
		_, sts := in.(fl.FleetStats)
		_, wsmp := out.(fl.CohortSampler)
		_, wsts := out.(fl.FleetStats)
		if smp != wsmp || sts != wsts {
			t.Errorf("%T: inner sampler/stats = %v/%v, wrapper = %v/%v", in, smp, sts, wsmp, wsts)
		}
	}
}

// plainCompressor has no CompressInto.
type plainCompressor struct{}

func (plainCompressor) Name() string { return "plain" }
func (plainCompressor) Compress(v []float64) ([]float64, float64) {
	return append([]float64(nil), v...), 4 * float64(len(v))
}

func TestCompressorWrapperForwardsExactly(t *testing.T) {
	q, err := compress.ByName("qsgd7")
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []compress.Compressor{plainCompressor{}, q, compress.TopK{Frac: 0.01}} {
		out := wrapCompressor(in, newRecorder())
		_, into := in.(compress.IntoCompressor)
		_, winto := out.(compress.IntoCompressor)
		if into != winto {
			t.Errorf("%T: inner into = %v, wrapper = %v", in, into, winto)
		}
	}
}

// --- bit-identical runs ---------------------------------------------------

var facadeSchemes = []string{"fedavg", "fedprox", "fedada", "oort", "safa", "fedca", "fedca-v1", "fedca-v2"}

// tinyOptions is a few-millisecond federation that still takes every path
// the wrappers sit on: dropouts (OnDropout), qsgd uploads (the compressor),
// the 0.9 cut on static testbeds and the online fold on virtual fleets.
func tinyOptions(scheme, dtype string, virtual bool) fedca.Options {
	o := fedca.DefaultOptions()
	o.Scheme = scheme
	o.DType = dtype
	o.Seed = 7
	o.LocalIters = 3
	o.BatchSize = 4
	o.TrainSamples = 256
	o.TestSamples = 32
	o.Compress = "qsgd7"
	o.DropoutProb = 0.2
	o.FedCA = core.DefaultOptions(3)
	o.FedCA.ProfilePeriod = 2
	o.Clients = 5
	if virtual {
		o.Fleet = 60
		o.Participation = 0.1
		o.AggregateFraction = 1
	}
	return o
}

func TestWrappedRunsAreBitIdenticalToFacade(t *testing.T) {
	const rounds = 3
	for _, scheme := range facadeSchemes {
		for _, dtype := range []string{"f64", "f32"} {
			for _, virtual := range []bool{false, true} {
				o := tinyOptions(scheme, dtype, virtual)
				name := fmt.Sprintf("%s/%s/virtual=%v", scheme, dtype, virtual)
				t.Run(name, func(t *testing.T) {
					plain, err := assemble(o, nil)
					if err != nil {
						t.Fatal(err)
					}
					rec := newRecorder()
					traced, err := assemble(o, rec)
					if err != nil {
						t.Fatal(err)
					}
					fed, err := fedca.New(o)
					if err != nil {
						t.Fatal(err)
					}
					for r := 0; r < rounds; r++ {
						rec.beginRound(r)
						pr := plain.runner.RunRound()
						tr := traced.runner.RunRound()
						fr := fed.RunRound()
						cp := checksum(plain.runner.GlobalFlat())
						if ct := checksum(traced.runner.GlobalFlat()); ct != cp {
							t.Fatalf("round %d: wrapped %s != unwrapped %s", r, ct[:12], cp[:12])
						}
						if cf := fed.ParamsChecksum(); cf != cp {
							t.Fatalf("round %d: fedca.New %s != benchmark assembly %s", r, cf[:12], cp[:12])
						}
						if pr.Accuracy != tr.Accuracy || pr.Accuracy != fr.Accuracy {
							t.Fatalf("round %d: accuracies differ: %v %v %v", r, pr.Accuracy, tr.Accuracy, fr.Accuracy)
						}
					}
					if len(rec.spans) == 0 {
						t.Fatal("the wrapped run recorded no spans")
					}
				})
			}
		}
	}
}
