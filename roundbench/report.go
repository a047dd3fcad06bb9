package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"

	"fedca"
	"fedca/internal/cputok"
)

// metric is one reported figure. Samples is how many measurements the value
// summarizes (1 for a total or a single reading).
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// check is one output check.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// roundRow is one round of the measured runner, as saved in the result file.
type roundRow struct {
	Round     int     `json:"round"`
	WallS     float64 `json:"wall_s"`
	Clients   int     `json:"clients"`
	MeanIters float64 `json:"mean_iterations"`
	VTimeEndS float64 `json:"vtime_end_s"`
	Accuracy  float64 `json:"accuracy"`
	LiveHeapB uint64  `json:"live_heap_bytes"`
	UploadB   float64 `json:"upload_bytes"`
	AllocB    uint64  `json:"alloc_bytes"`
	GCCycles  uint64  `json:"gc_cycles"`
	CPUS      float64 `json:"cpu_s"`
	StealS    float64 `json:"host_steal_s"`
}

// provenance says what produced a result.
type provenance struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	Host       string `json:"host"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUTokCap  int    `json:"cputok_cap"`
}

// params are the full inputs of a run.
type params struct {
	Workload string        `json:"workload"`
	Why      string        `json:"why"`
	Seed     uint64        `json:"seed"`
	Seconds  int           `json:"seconds"`
	Trace    bool          `json:"trace"`
	Rounds   int           `json:"rounds"`
	Target   float64       `json:"target_accuracy"`
	Options  fedca.Options `json:"options"`
}

// report is everything one run produces.
type report struct {
	Provenance provenance `json:"provenance"`
	Params     params     `json:"params"`
	Metrics    []metric   `json:"metrics"`
	Checks     []check    `json:"checks"`
	Attempted  int        `json:"attempted"`
	Failed     int        `json:"failed"`
	TraceFile  string     `json:"trace_file,omitempty"`
	// Rounds lists every round of the measured runner.
	Rounds []roundRow `json:"rounds"`
	// SetupS lists every set-up time of the run, in order.
	SetupS []float64 `json:"setup_s,omitempty"`

	ledger failureLedger
}

func newProvenance() provenance {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	host, _ := os.Hostname() // provenance only; empty when unavailable
	return provenance{
		Commit:     commit,
		GoVersion:  runtime.Version(),
		Host:       host,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUTokCap:  cputok.Default().Cap(),
	}
}

func (r *report) add(name string, value float64, unit string, samples int) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: value, Unit: unit, Samples: samples})
}

// check records an output check and returns ok.
func (r *report) check(name string, ok bool, format string, args ...any) bool {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.Checks = append(r.Checks, c)
	return ok
}

// correct reports whether every check passed.
func (r *report) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return len(r.Checks) > 0
}

// failedChecks lists the checks that did not pass (deduplicated by name).
func (r *report) failedChecks() []check {
	var out []check
	seen := map[string]bool{}
	for _, c := range r.Checks {
		if !c.OK && !seen[c.Name] {
			seen[c.Name] = true
			out = append(out, c)
		}
	}
	return out
}

// printHuman writes the readable report: provenance, parameters, every
// metric with its unit and sample count, and any failed check.
func (r *report) printHuman(w io.Writer) {
	p, pv := r.Params, r.Provenance
	fmt.Fprintf(w, "roundbench %s seed=%d trace=%v rounds=%d (1 warm-up)\n", p.Workload, p.Seed, p.Trace, p.Rounds)
	fmt.Fprintf(w, "  commit=%s go=%s host=%s nproc=%d GOMAXPROCS=%d cputok.cap=%d\n",
		pv.Commit, pv.GoVersion, pv.Host, pv.NumCPU, pv.GOMAXPROCS, pv.CPUTokCap)
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "  %-44s %16.6g %-6s n=%d\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	passed := 0
	for _, c := range r.Checks {
		if c.OK {
			passed++
		}
	}
	fmt.Fprintf(w, "  checks: %d/%d passed; client-rounds attempted=%d failed=%d\n", passed, len(r.Checks), r.Attempted, r.Failed)
	for _, c := range r.failedChecks() {
		fmt.Fprintf(w, "  FAILED %s: %s\n", c.Name, c.Detail)
	}
	if r.TraceFile != "" {
		fmt.Fprintf(w, "  trace: %s\n", r.TraceFile)
	}
}

// resultLine is the last line of standard output: exactly the keys correct,
// attempted, failed and metrics, the metrics restricted to names (value and
// unit only).
func (r *report) resultLine(want []nameUnit) ([]byte, error) {
	byName := make(map[string]metric, len(r.Metrics))
	for _, m := range r.Metrics {
		byName[m.Name] = m
	}
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]vu, len(want))
	for _, w := range want {
		m, ok := byName[w.name]
		if !ok {
			return nil, fmt.Errorf("metric %q was not measured", w.name)
		}
		if m.Unit != w.unit {
			return nil, fmt.Errorf("metric %q measured in %q, declared in %q", w.name, m.Unit, w.unit)
		}
		ms[w.name] = vu{m.Value, m.Unit}
	}
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1
	}
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]vu `json:"metrics"`
	}{r.correct(), attempted, r.Failed, ms})
}
