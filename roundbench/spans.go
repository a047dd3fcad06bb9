package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
	"unsafe"

	"fedca/internal/telemetry"
)

// Span names. The tree of one round is
//
//	round
//	├── dispatch      plan, select, sample_cohort, materialize, new_controller
//	├── client_phase  client_round → after_iteration, finalize, on_dropout, compress
//	├── server_tail   aggregate, recycle
//	└── eval
//
// dispatch, client_phase and server_tail partition the RunRound call: they are
// cut at the last NewController return and at the end of the last client
// round, which the wrappers observe.
const (
	spRound       = "round"
	spDispatch    = "dispatch"
	spClientPhase = "client_phase"
	spServerTail  = "server_tail"
	spEval        = "eval"

	spPlan          = "plan"
	spSelect        = "select"
	spSampleCohort  = "sample_cohort"
	spMaterialize   = "materialize"
	spNewController = "new_controller"
	spClientRound   = "client_round"
	spAfterIter     = "after_iteration"
	spFinalize      = "finalize"
	spOnDropout     = "on_dropout"
	spCompress      = "compress"
	spAggregate     = "aggregate"
	spRecycle       = "recycle"
)

// structuralParent names the phase span a server-side span belongs to.
var structuralParent = map[string]string{
	spPlan:          spDispatch,
	spSelect:        spDispatch,
	spSampleCohort:  spDispatch,
	spMaterialize:   spDispatch,
	spNewController: spDispatch,
	spClientRound:   spClientPhase,
	spAggregate:     spServerTail,
	spRecycle:       spServerTail,
}

// span is one recorded interval. Times are seconds since the recorder's
// epoch; ids are 1-based indexes into recorder.spans, parent 0 means none.
type span struct {
	name       string
	round      int
	parent     int
	start, end float64
}

func (s span) interval() interval { return interval{s.start, s.end} }

// roundCounts are the per-round counters the wrappers keep next to spans.
type roundCounts struct {
	earlyStops, eagerSent, retransmits int
	finalized, iterations              int
	compressCalls                      int
	compressElems                      int
	compressBytes                      float64
}

// recorder keeps every span of a traced run in memory; WriteChromeTrace
// renders them at the end. Worker goroutines record concurrently, so all
// state sits behind one mutex.
type recorder struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	counts map[int]*roundCounts
	round  int // the round in progress (server-side spans)

	// buffers maps the base address of a worker's delta buffer to the client
	// round currently using it. Compressor calls see only a slice of that
	// buffer, so this is how a compress span finds its client round.
	buffers map[uintptr]bufferOwner

	// clients holds every client id a controller was built for.
	clients map[int]struct{}
}

type bufferOwner struct {
	size uintptr
	span int
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), counts: make(map[int]*roundCounts),
		buffers: make(map[uintptr]bufferOwner), clients: make(map[int]struct{})}
}

func (r *recorder) now() float64 { return time.Since(r.epoch).Seconds() }

// beginRound sets the round id server-side spans are filed under. It also
// forgets every delta buffer: compression happens inside its own round, and
// a buffer filed in an earlier round may since have been freed and its
// addresses handed to another.
func (r *recorder) beginRound(round int) {
	r.mu.Lock()
	r.round = round
	clear(r.buffers)
	r.mu.Unlock()
}

// add records a finished span and returns its id. round < 0 files it under
// the round in progress.
func (r *recorder) add(name string, round, parent int, start, end float64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.addLocked(name, round, parent, start, end)
}

func (r *recorder) addLocked(name string, round, parent int, start, end float64) int {
	if round < 0 {
		round = r.round
	}
	r.spans = append(r.spans, span{name: name, round: round, parent: parent, start: start, end: end})
	return len(r.spans)
}

// countsLocked returns the round's counters, creating them.
func (r *recorder) countsLocked(round int) *roundCounts {
	c, ok := r.counts[round]
	if !ok {
		c = &roundCounts{}
		r.counts[round] = c
	}
	return c
}

// extend moves a span's end to t if t is later.
func (r *recorder) extendLocked(id int, t float64) {
	if s := &r.spans[id-1]; t > s.end {
		s.end = t
	}
}

// own files the delta buffer as in use by a client-round span. Entries
// that overlap it are dropped first: their buffers were freed and their
// addresses reused, so every address has at most one owner, the newest.
func (r *recorder) ownLocked(delta []float64, spanID int) {
	if len(delta) == 0 {
		return
	}
	base := uintptr(unsafe.Pointer(&delta[0]))
	o := bufferOwner{size: uintptr(len(delta)) * unsafe.Sizeof(delta[0]), span: spanID}
	if r.buffers[base] == o {
		return
	}
	for b, old := range r.buffers {
		if b < base+o.size && base < b+old.size {
			delete(r.buffers, b)
		}
	}
	r.buffers[base] = o
}

// ownerLocked finds the client-round span whose delta buffer holds vec; 0
// when none does. The Go collector does not move heap objects, so the
// addresses stay valid while the buffers live.
func (r *recorder) ownerLocked(vec []float64) int {
	if len(vec) == 0 {
		return 0
	}
	p := uintptr(unsafe.Pointer(&vec[0]))
	for base, o := range r.buffers {
		if p >= base && p < base+o.size {
			return o.span
		}
	}
	return 0
}

// roundTimes are the boundaries of one traced round as the round loop saw them.
type roundTimes struct {
	callStart, callEnd float64 // the RunRound call
	evalStart, evalEnd float64 // the direct fl.Evaluate after it
}

// phases is what closeRound derives for one round.
type phases struct {
	round, dispatch, clientPhase, serverTail, eval span
}

// closeRound builds the round's structural spans from the recorded ones and
// links every server-side span of the round to its phase.
func (r *recorder) closeRound(round int, t roundTimes) phases {
	r.mu.Lock()
	defer r.mu.Unlock()
	planStart := t.callStart
	lastCtrl, clientEnd := -1.0, -1.0
	first := true
	for _, s := range r.spans {
		if s.round != round {
			continue
		}
		switch s.name {
		case spPlan:
			if first {
				planStart, first = s.start, false
			}
		case spNewController:
			if s.end > lastCtrl {
				lastCtrl = s.end
			}
		case spClientRound:
			if s.end > clientEnd {
				clientEnd = s.end
			}
		}
	}
	if lastCtrl < 0 {
		lastCtrl = planStart
	}
	if clientEnd < lastCtrl {
		clientEnd = lastCtrl
	}
	ph := phases{
		round:       span{name: spRound, round: round, start: t.callStart, end: t.evalEnd},
		dispatch:    span{name: spDispatch, round: round, start: planStart, end: lastCtrl},
		clientPhase: span{name: spClientPhase, round: round, start: lastCtrl, end: clientEnd},
		serverTail:  span{name: spServerTail, round: round, start: clientEnd, end: t.callEnd},
		eval:        span{name: spEval, round: round, start: t.evalStart, end: t.evalEnd},
	}
	ids := map[string]int{}
	roundID := r.addLocked(spRound, round, 0, ph.round.start, ph.round.end)
	for _, s := range []span{ph.dispatch, ph.clientPhase, ph.serverTail, ph.eval} {
		ids[s.name] = r.addLocked(s.name, round, roundID, s.start, s.end)
	}
	for i := range r.spans {
		s := &r.spans[i]
		if s.round != round || s.parent != 0 {
			continue
		}
		if p, ok := structuralParent[s.name]; ok {
			s.parent = ids[p]
		}
	}
	return ph
}

// WriteChromeTrace renders every span as Chrome trace-event JSON through
// telemetry.Tracer. The round loop's server-side spans sit on track 0;
// client rounds are packed onto worker lanes (a lane takes the next client
// round that starts after its previous one ended), their children on the same
// lane. Each event's args carry its round, id, parent and self time.
func (r *recorder) WriteChromeTrace(w io.Writer) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	kids := make(map[int][]interval)
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s.interval())
		}
	}

	lane := make([]int, len(spans)) // by span index; 0 = server track
	order := make([]int, 0, len(spans))
	for i, s := range spans {
		if s.name == spClientRound {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool { return spans[order[a]].start < spans[order[b]].start })
	var laneEnd []float64
	for _, i := range order {
		l := -1
		for j, e := range laneEnd {
			if e <= spans[i].start {
				l = j
				break
			}
		}
		if l < 0 {
			laneEnd = append(laneEnd, 0)
			l = len(laneEnd) - 1
		}
		laneEnd[l] = spans[i].end
		lane[i] = l + 1
	}
	for i, s := range spans {
		if s.parent != 0 && spans[s.parent-1].name == spClientRound {
			lane[i] = lane[s.parent-1]
		}
	}

	tr := telemetry.NewTracer()
	tr.NameTrack(0, "round loop (server)")
	for l := range laneEnd {
		tr.NameTrack(l+1, fmt.Sprintf("worker lane %d", l+1))
	}
	for i, s := range spans {
		self := selfTime(s.interval(), kids[i+1])
		tr.Span(lane[i], s.name, "roundbench", s.start, s.end, map[string]any{
			"round": s.round, "id": i + 1, "parent": s.parent, "self_ms": self * 1e3,
		})
	}
	return tr.WriteChromeTrace(w)
}
