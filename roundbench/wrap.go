package main

// Pass-through wrappers around the round loop's plug-in points. Each forwards
// every call unchanged to the value it wraps and records a span around it;
// each implements exactly the optional interfaces its inner value implements,
// because the runner picks code paths by type assertion (a scheme that
// suddenly looked like an fl.Aggregator would switch off the online fold).
// guard_test.go proves the wrapped runs bit-identical to unwrapped ones.

import (
	"fedca/internal/compress"
	"fedca/internal/fl"
	"fedca/internal/nn"
)

// anchorRounder is the optional scheme method the runner and this benchmark
// use to tell FedCA's profiling rounds apart.
type anchorRounder interface{ IsAnchorRound(int) bool }

// --- fl.Scheme -------------------------------------------------------------

type schemeWrap struct {
	inner fl.Scheme
	rec   *recorder
}

func (s *schemeWrap) Name() string { return s.inner.Name() }

func (s *schemeWrap) PlanRound(round int, hist *fl.History) fl.RoundPlan {
	t0 := s.rec.now()
	plan := s.inner.PlanRound(round, hist)
	s.rec.add(spPlan, round, 0, t0, s.rec.now())
	return plan
}

func (s *schemeWrap) NewController(c *fl.Client, round int, plan fl.RoundPlan) fl.Controller {
	t0 := s.rec.now()
	ctrl := s.inner.NewController(c, round, plan)
	t1 := s.rec.now()
	s.rec.mu.Lock()
	s.rec.addLocked(spNewController, round, 0, t0, t1)
	s.rec.clients[c.ID] = struct{}{}
	s.rec.mu.Unlock()
	return wrapController(ctrl, s.rec, round)
}

type selectMix struct{ s *schemeWrap }

func (m selectMix) SelectClients(round int, hist *fl.History, total int) []int {
	t0 := m.s.rec.now()
	ids := m.s.inner.(fl.Selector).SelectClients(round, hist, total)
	m.s.rec.add(spSelect, round, 0, t0, m.s.rec.now())
	return ids
}

type aggregateMix struct{ s *schemeWrap }

func (m aggregateMix) Aggregate(round int, flat []float64, collected, discarded []fl.Update) []float64 {
	t0 := m.s.rec.now()
	out := m.s.inner.(fl.Aggregator).Aggregate(round, flat, collected, discarded)
	m.s.rec.add(spAggregate, round, 0, t0, m.s.rec.now())
	return out
}

type anchorMix struct{ s *schemeWrap }

func (m anchorMix) IsAnchorRound(round int) bool {
	return m.s.inner.(anchorRounder).IsAnchorRound(round)
}

// wrapScheme returns inner wrapped, forwarding Selector, Aggregator and
// IsAnchorRound exactly when inner has them.
func wrapScheme(inner fl.Scheme, rec *recorder) fl.Scheme {
	b := &schemeWrap{inner: inner, rec: rec}
	_, sel := inner.(fl.Selector)
	_, agg := inner.(fl.Aggregator)
	_, anc := inner.(anchorRounder)
	s, a, n := selectMix{b}, aggregateMix{b}, anchorMix{b}
	switch {
	case sel && agg && anc:
		return struct {
			*schemeWrap
			selectMix
			aggregateMix
			anchorMix
		}{b, s, a, n}
	case sel && agg:
		return struct {
			*schemeWrap
			selectMix
			aggregateMix
		}{b, s, a}
	case sel && anc:
		return struct {
			*schemeWrap
			selectMix
			anchorMix
		}{b, s, n}
	case agg && anc:
		return struct {
			*schemeWrap
			aggregateMix
			anchorMix
		}{b, a, n}
	case sel:
		return struct {
			*schemeWrap
			selectMix
		}{b, s}
	case agg:
		return struct {
			*schemeWrap
			aggregateMix
		}{b, a}
	case anc:
		return struct {
			*schemeWrap
			anchorMix
		}{b, n}
	}
	return b
}

// --- fl.Controller ---------------------------------------------------------

// ctrlWrap wraps one client's controller for one round. Its client_round
// span opens at the first controller call and closes at Finalize or
// OnDropout; the upload compression that follows Finalize extends it.
type ctrlWrap struct {
	inner fl.Controller
	rec   *recorder
	round int
	span  int
}

// beginLocked opens the client_round span on the first call.
func (c *ctrlWrap) beginLocked(t float64) {
	if c.span == 0 {
		c.span = c.rec.addLocked(spClientRound, c.round, 0, t, t)
	}
}

func (c *ctrlWrap) begin() {
	t := c.rec.now()
	c.rec.mu.Lock()
	c.beginLocked(t)
	c.rec.mu.Unlock()
}

func (c *ctrlWrap) ModifyGrad(params []*nn.Param, globalFlat []float64) {
	c.begin()
	c.inner.ModifyGrad(params, globalFlat)
}

func (c *ctrlWrap) AfterIteration(st fl.IterState) fl.IterAction {
	t0 := c.rec.now()
	act := c.inner.AfterIteration(st)
	t1 := c.rec.now()
	c.rec.mu.Lock()
	c.beginLocked(t0)
	c.rec.ownLocked(st.Delta, c.span)
	c.rec.addLocked(spAfterIter, c.round, c.span, t0, t1)
	if act.Stop {
		c.rec.countsLocked(c.round).earlyStops++
	}
	c.rec.mu.Unlock()
	return act
}

func (c *ctrlWrap) Finalize(st fl.FinalState) fl.FinalAction {
	t0 := c.rec.now()
	act := c.inner.Finalize(st)
	t1 := c.rec.now()
	c.rec.mu.Lock()
	c.beginLocked(t0)
	c.rec.ownLocked(st.Delta, c.span)
	c.rec.addLocked(spFinalize, c.round, c.span, t0, t1)
	c.rec.extendLocked(c.span, t1)
	n := c.rec.countsLocked(c.round)
	n.finalized++
	n.iterations += st.Iterations
	n.eagerSent += len(st.Eager)
	n.retransmits += len(act.Retransmit)
	c.rec.mu.Unlock()
	return act
}

type dropoutMix struct{ c *ctrlWrap }

func (m dropoutMix) OnDropout(iter int) {
	t0 := m.c.rec.now()
	m.c.inner.(fl.DropoutObserver).OnDropout(iter)
	t1 := m.c.rec.now()
	m.c.rec.mu.Lock()
	m.c.beginLocked(t0)
	m.c.rec.addLocked(spOnDropout, m.c.round, m.c.span, t0, t1)
	m.c.rec.extendLocked(m.c.span, t1)
	m.c.rec.mu.Unlock()
}

type grad32Mix struct{ c *ctrlWrap }

func (m grad32Mix) ModifyGrad32(params []*nn.ParamOf[float32], globalFlat []float64) {
	m.c.begin()
	m.c.inner.(fl.GradModifier32).ModifyGrad32(params, globalFlat)
}

// wrapController forwards fl.DropoutObserver and fl.GradModifier32 exactly
// when inner has them.
func wrapController(inner fl.Controller, rec *recorder, round int) fl.Controller {
	b := &ctrlWrap{inner: inner, rec: rec, round: round}
	_, drop := inner.(fl.DropoutObserver)
	_, g32 := inner.(fl.GradModifier32)
	switch {
	case drop && g32:
		return struct {
			*ctrlWrap
			dropoutMix
			grad32Mix
		}{b, dropoutMix{b}, grad32Mix{b}}
	case drop:
		return struct {
			*ctrlWrap
			dropoutMix
		}{b, dropoutMix{b}}
	case g32:
		return struct {
			*ctrlWrap
			grad32Mix
		}{b, grad32Mix{b}}
	}
	return b
}

// --- fl.Fleet --------------------------------------------------------------

type fleetWrap struct {
	inner fl.Fleet
	rec   *recorder
}

func (f *fleetWrap) Size() int          { return f.inner.Size() }
func (f *fleetWrap) ClientID(i int) int { return f.inner.ClientID(i) }

func (f *fleetWrap) Materialize(id int) (*fl.Client, error) {
	t0 := f.rec.now()
	c, err := f.inner.Materialize(id)
	f.rec.add(spMaterialize, -1, 0, t0, f.rec.now())
	return c, err
}

func (f *fleetWrap) Recycle(c *fl.Client) {
	t0 := f.rec.now()
	f.inner.Recycle(c)
	f.rec.add(spRecycle, -1, 0, t0, f.rec.now())
}

type samplerMix struct{ f *fleetWrap }

func (m samplerMix) SampleCohort(round, k int, dst []int) []int {
	t0 := m.f.rec.now()
	ids := m.f.inner.(fl.CohortSampler).SampleCohort(round, k, dst)
	m.f.rec.add(spSampleCohort, round, 0, t0, m.f.rec.now())
	return ids
}

type slotStatsMix struct{ f *fleetWrap }

func (m slotStatsMix) SlotStats() (materialized, recycled int64) {
	return m.f.inner.(fl.FleetStats).SlotStats()
}

// wrapFleet forwards fl.CohortSampler and fl.FleetStats exactly when inner
// has them.
func wrapFleet(inner fl.Fleet, rec *recorder) fl.Fleet {
	b := &fleetWrap{inner: inner, rec: rec}
	_, smp := inner.(fl.CohortSampler)
	_, sts := inner.(fl.FleetStats)
	switch {
	case smp && sts:
		return struct {
			*fleetWrap
			samplerMix
			slotStatsMix
		}{b, samplerMix{b}, slotStatsMix{b}}
	case smp:
		return struct {
			*fleetWrap
			samplerMix
		}{b, samplerMix{b}}
	case sts:
		return struct {
			*fleetWrap
			slotStatsMix
		}{b, slotStatsMix{b}}
	}
	return b
}

// --- compress.Compressor ---------------------------------------------------

type compWrap struct {
	inner compress.Compressor
	rec   *recorder
}

func (c *compWrap) Name() string { return c.inner.Name() }

func (c *compWrap) Compress(vec []float64) ([]float64, float64) {
	t0 := c.rec.now()
	approx, bytes := c.inner.Compress(vec)
	c.done(vec, t0, bytes)
	return approx, bytes
}

// done files a compress span under the client round whose delta buffer vec
// lies in, and counts the call.
func (c *compWrap) done(vec []float64, t0, bytes float64) {
	t1 := c.rec.now()
	c.rec.mu.Lock()
	defer c.rec.mu.Unlock()
	round := -1
	owner := c.rec.ownerLocked(vec)
	if owner != 0 {
		round = c.rec.spans[owner-1].round
		c.rec.extendLocked(owner, t1)
	}
	id := c.rec.addLocked(spCompress, round, owner, t0, t1)
	n := c.rec.countsLocked(c.rec.spans[id-1].round)
	n.compressCalls++
	n.compressElems += len(vec)
	n.compressBytes += bytes
}

type intoMix struct{ c *compWrap }

func (m intoMix) CompressInto(vec, dst []float64) float64 {
	t0 := m.c.rec.now()
	bytes := m.c.inner.(compress.IntoCompressor).CompressInto(vec, dst)
	m.c.done(vec, t0, bytes)
	return bytes
}

// wrapCompressor forwards compress.IntoCompressor exactly when inner has it.
func wrapCompressor(inner compress.Compressor, rec *recorder) compress.Compressor {
	b := &compWrap{inner: inner, rec: rec}
	if _, ok := inner.(compress.IntoCompressor); ok {
		return struct {
			*compWrap
			intoMix
		}{b, intoMix{b}}
	}
	return b
}
