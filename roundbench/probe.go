package main

// The layer probe times each nn layer's Forward/Backward, the tensor kernels
// under them and the upload compressor by calling them directly, outside
// the round loop. It probes the running workload's network only. It runs
// the way a client worker does: the network comes from the workload's
// testbed factory at the workload's dtype, an arena is bound and reset
// every iteration, batches come from a real client loader through
// data.NextInto, and the probe holds the CPU tokens the runner's extra
// workers would hold, so the kernels see the budget a worker sees
// mid-round.

import (
	"fmt"
	"reflect"
	"strings"
	"time"

	"fedca/internal/compress"
	"fedca/internal/cputok"
	"fedca/internal/data"
	"fedca/internal/fl"
	"fedca/internal/nn"
	"fedca/internal/rng"
	"fedca/internal/tensor"
)

const (
	probeWarm  = 3  // untimed iterations that size the arena and pools
	probeIters = 30 // timed training iterations
	kernelReps = 64 // timed calls per kernel
)

// probe times the workload's network, the tensor kernels at its layers'
// shapes and, when the workload compresses uploads, one upload. It returns
// the rows and the median training-iteration time.
func probe(w workload, seed uint64) (rows []metric, iterS float64, err error) {
	budget := cputok.Default()
	held := budget.Borrow(budget.Cap() - 1)
	defer budget.Return(held)
	f, err := assemble(w.options(seed), nil)
	if err != nil {
		return nil, 0, err
	}
	c, err := f.probeClient()
	if err != nil {
		return nil, 0, fmt.Errorf("probe client: %w", err)
	}
	var ks []kernel
	if f.cfg.DType == "f32" {
		net := f.factory32()
		rows, iterS = probeNet(net, c.Loader, f.cfg)
		ks = kernels(net, c.Loader.BatchSize(), seed)
	} else {
		net := f.factory()
		rows, iterS = probeNet(net, c.Loader, f.cfg)
		ks = kernels(net, c.Loader.BatchSize(), seed)
	}
	if f.cfg.Compressor != nil {
		ks = append(ks, uploadKernel(f, seed))
	}
	return append(rows, timeKernels(ks)...), iterS, nil
}

// layerNames names each top-level layer: by its parameter prefix when it
// has parameters (conv1, fc3, rnn), else by type and ordinal (relu2, pool1).
func layerNames[F tensor.Float](net *nn.NetworkOf[F]) []string {
	names := make([]string, len(net.Layers))
	ordinal := map[string]int{}
	for i, l := range net.Layers {
		if ps := l.Params(); len(ps) > 0 {
			names[i], _, _ = strings.Cut(ps[0].Name, ".")
			continue
		}
		kind := typeName(l)
		switch kind {
		case "maxpool2d", "globalavgpool2d":
			kind = "pool"
		}
		ordinal[kind]++
		names[i] = fmt.Sprintf("%s%d", kind, ordinal[kind])
	}
	return names
}

// typeName is the layer's Go type name, lower-cased, without the "Of[...]"
// generic suffix: *nn.ReLUOf[float64] → "relu".
func typeName(v any) string {
	n := reflect.TypeOf(v).Elem().Name()
	if i := strings.Index(n, "Of["); i >= 0 {
		n = n[:i]
	}
	return strings.ToLower(n)
}

// probeNet times probeIters training iterations of net layer by layer and
// returns its rows, named nn.<layer>.fwd_s and so on, with the median
// iteration time. nn.fwd_s and nn.bwd_s are whole passes, every layer
// included.
func probeNet[F tensor.Float](net *nn.NetworkOf[F], loader *data.Loader, cfg fl.Config) ([]metric, float64) {
	arena := tensor.NewArena()
	net.SetArena(arena)
	defer net.SetArena(nil)
	opt := nn.NewSGDOf[F](cfg.LR, cfg.Momentum, cfg.WeightDecay)
	batch, dim := loader.BatchSize(), loader.Dim()
	y := make([]int, batch)
	names := layerNames(net)
	nl := len(net.Layers)
	// Sample buffers are sized up front so the probe's own bookkeeping does
	// not show in iter_alloc_bytes.
	buf := func() []float64 { return make([]float64, 0, probeIters) }
	fwd, bwd := make([][]float64, nl), make([][]float64, nl)
	for i := range fwd {
		fwd[i], bwd[i] = buf(), buf()
	}
	next, loss, sgd, iter, fwdAll, bwdAll := buf(), buf(), buf(), buf(), buf(), buf()
	var allocs uint64
	for it := 0; it < probeWarm+probeIters; it++ {
		timed := it >= probeWarm
		if it == probeWarm {
			allocs = readRuntime().allocBytes
		}
		t0 := time.Now()
		arena.Reset()
		x := tensor.AllocOf[F](arena, batch, dim)
		tn := time.Now()
		data.NextInto(loader, x.Data(), y)
		dNext := time.Since(tn).Seconds()
		net.ZeroGrad()
		h := x
		tf := time.Now()
		for i, l := range net.Layers {
			tl := time.Now()
			h = l.Forward(h, true)
			if timed {
				fwd[i] = append(fwd[i], time.Since(tl).Seconds())
			}
		}
		dFwd := time.Since(tf).Seconds()
		dl := tensor.AllocOf[F](arena, h.Dim(0), h.Dim(1))
		tl := time.Now()
		nn.SoftmaxCrossEntropyInto(h, y, dl)
		dLoss := time.Since(tl).Seconds()
		d := dl
		tAll := time.Now()
		for i := nl - 1; i >= 0; i-- {
			tb := time.Now()
			d = net.Layers[i].Backward(d)
			if timed {
				bwd[i] = append(bwd[i], time.Since(tb).Seconds())
			}
		}
		dBwd := time.Since(tAll).Seconds()
		ts := time.Now()
		opt.Step(net.Params())
		dSGD := time.Since(ts).Seconds()
		if timed {
			fwdAll = append(fwdAll, dFwd)
			bwdAll = append(bwdAll, dBwd)
			next = append(next, dNext)
			loss = append(loss, dLoss)
			sgd = append(sgd, dSGD)
			iter = append(iter, time.Since(t0).Seconds())
		}
	}
	allocs = readRuntime().allocBytes - allocs

	row := func(name string, xs []float64) metric {
		return metric{Name: name, Value: median(xs), Unit: "s", Samples: len(xs)}
	}
	var rows []metric
	for i, name := range names {
		rows = append(rows, row("nn."+name+".fwd_s", fwd[i]), row("nn."+name+".bwd_s", bwd[i]))
	}
	rows = append(rows,
		row("nn.fwd_s", fwdAll),
		row("nn.bwd_s", bwdAll),
		row("nn.loss_s", loss),
		row("nn.sgd_s", sgd),
		row("data.next_s", next),
		row("nn.iter_s", iter),
		metric{Name: "nn.iter_alloc_bytes", Value: float64(allocs) / probeIters, Unit: "B", Samples: probeIters})
	return rows, median(iter)
}

// uploadKernel compresses one client upload — every layer range of a
// model-sized delta — with the federation's compressor.
func uploadKernel(f *federation, seed uint64) kernel {
	ranges := f.factory().ParamRanges()
	n := ranges[len(ranges)-1].End
	r := rng.New(seed).Fork("probe-upload")
	delta, dst := make([]float64, n), make([]float64, n)
	for i := range delta {
		delta[i] = r.Normal(0, 0.01)
	}
	comp := f.cfg.Compressor
	return kernel{"compress.upload_s", func() {
		for _, rg := range ranges {
			if ic, ok := comp.(compress.IntoCompressor); ok {
				ic.CompressInto(delta[rg.Start:rg.End], dst[rg.Start:rg.End])
			} else {
				comp.Compress(delta[rg.Start:rg.End])
			}
		}
	}}
}

// dtypeName is "f64" or "f32".
func dtypeName[F tensor.Float]() string {
	var z F
	if reflect.TypeOf(z).Size() == 4 {
		return "f32"
	}
	return "f64"
}

// kernel is one tensor call at one shape; name is its metric name.
type kernel struct {
	name string
	call func()
}

// kernels builds the public tensor kernel calls at the shapes net's layers
// make them: per-sample im2col/GEMM/col2im for each convolution, the batched
// forward GEMM of the first dense layer, and the gate GEMMs of each LSTM
// layer.
func kernels[F tensor.Float](net *nn.NetworkOf[F], batch int, seed uint64) []kernel {
	r := rng.New(seed).Fork("probe-kernels")
	fill := func(n int) []F {
		s := make([]F, n)
		for i := range s {
			s[i] = F(r.Normal(0, 1))
		}
		return s
	}
	mat := func(m, n int) *tensor.TensorOf[F] { return tensor.FromSliceOf(fill(m*n), m, n) }
	dt := dtypeName[F]()
	var ks []kernel
	denseDone := false
	for _, l := range net.Layers {
		switch l := l.(type) {
		case *nn.Conv2DOf[F]:
			g := l.Geom
			pos, patch := g.ColRows(), g.ColCols()
			geo := fmt.Sprintf("c%dh%dw%dk%ds%dp%d", g.InC, g.InH, g.InW, g.KH, g.Stride, g.Pad)
			img, col := fill(g.InC*g.InH*g.InW), make([]F, pos*patch)
			colT := tensor.FromSliceOf(col, pos, patch)
			w, out, dout := mat(l.OutC, patch), mat(l.OutC, pos), mat(l.OutC, pos)
			pb := tensor.NewPackedBOf[F](pos, patch)
			dW, dcol, dimg := mat(l.OutC, patch), mat(pos, patch), make([]F, len(img))
			ks = append(ks,
				kernel{fmt.Sprintf("im2col.%s", geo), func() { tensor.Im2ColOf(g, img, col) }},
				kernel{fmt.Sprintf("gemm_nt.%dx%dx%d", l.OutC, patch, pos), func() { tensor.MatMulTransB(out, w, colT) }},
				kernel{fmt.Sprintf("im2col_packed.%s", geo), func() { tensor.Im2ColPackedOf(g, img, pb) }},
				kernel{fmt.Sprintf("gemm_packed.%dx%dx%d", l.OutC, pos, patch), func() { tensor.MatMulPacked(dW, dout, pb) }},
				kernel{fmt.Sprintf("gemm_tn.%dx%dx%d", pos, l.OutC, patch), func() { tensor.MatMulTransA(dcol, dout, w) }},
				kernel{fmt.Sprintf("col2im.%s", geo), func() { tensor.Col2ImOf(g, dcol.Data(), dimg) }},
			)
		case *nn.DenseOf[F]:
			if denseDone {
				continue
			}
			denseDone = true
			x, w, y := mat(batch, l.In), mat(l.Out, l.In), mat(batch, l.Out)
			ks = append(ks, kernel{fmt.Sprintf("gemm_nt.%dx%dx%d", batch, l.In, l.Out), func() { tensor.MatMulTransB(y, x, w) }})
		case *nn.LSTMOf[F]:
			g4 := 4 * l.Hidden
			for _, in := range []int{l.InDim, l.Hidden} {
				x, w, gates := mat(batch, in), mat(g4, in), mat(batch, g4)
				dgates, dW, dx := mat(batch, g4), mat(g4, in), mat(batch, in)
				ks = append(ks,
					kernel{fmt.Sprintf("gemm_nt.%dx%dx%d", batch, in, g4), func() { tensor.MatMulTransB(gates, x, w) }},
					kernel{fmt.Sprintf("gemm_tn.%dx%dx%d", g4, batch, in), func() { tensor.MatMulTransA(dW, dgates, x) }},
					kernel{fmt.Sprintf("gemm_nn.%dx%dx%d", batch, g4, in), func() { tensor.MatMul(dx, dgates, w) }},
				)
			}
		}
	}
	for i := range ks {
		ks[i].name = "tensor." + ks[i].name + "." + dt + "_s"
	}
	return ks
}

// timeKernels returns each kernel's median call time over kernelReps calls,
// after one untimed call that warms caches and pools. A name seen before
// (the same shape in two layers) is timed once.
func timeKernels(ks []kernel) []metric {
	out := make([]metric, 0, len(ks))
	seen := map[string]bool{}
	for _, k := range ks {
		if seen[k.name] {
			continue
		}
		seen[k.name] = true
		k.call()
		ts := make([]float64, kernelReps)
		for i := range ts {
			t0 := time.Now()
			k.call()
			ts[i] = time.Since(t0).Seconds()
		}
		out = append(out, metric{Name: k.name, Value: median(ts), Unit: "s", Samples: kernelReps})
	}
	return out
}
