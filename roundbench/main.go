// Command roundbench is the repository benchmark: it runs one named
// workload of the federated round loop as a closed loop (one driver calls
// RunRound back to back; the runner fans clients out to at most nproc
// workers under the CPU-token budget), checks the outputs, and prints every
// metric with its unit and sample count. The last line of standard output
// is one JSON object: correct, attempted, failed (client-rounds) and
// metrics — the end-to-end metrics with --trace 0, the per-layer ledger
// with --trace 1. Any failed output check exits 1.
//
//	bash roundbench/run.sh --workload cnn-fedca --seed 1 --seconds 30 --trace 0
//
// See README.md in this directory for the workloads, the metrics and how to
// read the trace.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	wname := flag.String("workload", "", "workload name: cnn-fedca, fleet-fedca-f32 or lstm-fedavg")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "measured span in reference-host seconds; sets the round schedule")
	traceFlag := flag.Int("trace", 0, "0: end-to-end run; 1: traced run with the per-layer ledger")
	out := flag.String("out", filepath.Join(".bench_build", "results"), "directory for result and trace files")
	flag.Parse()
	if err := run(*wname, *seed, *seconds, *traceFlag, *out); err != nil {
		fmt.Fprintln(os.Stderr, "roundbench:", err)
		os.Exit(2)
	}
}

func run(wname string, seed uint64, seconds, traceFlag int, out string) error {
	w, err := findWorkload(wname)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be positive, got %d", seconds)
	}
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	traced := traceFlag == 1
	rep := &report{
		Provenance: newProvenance(),
		Params: params{
			Workload: w.name, Why: w.why, Seed: seed, Seconds: seconds, Trace: traced,
			Rounds: w.rounds(seconds), Target: w.target,
			Options: w.options(seed),
		},
	}
	want := endToEnd
	if traced {
		want = perLayer
		err = runTraced(w, seed, seconds, out, rep)
	} else {
		err = runPlain(w, seed, seconds, rep)
	}
	if err != nil {
		return err
	}
	if err := writeResult(rep, out); err != nil {
		return err
	}
	rep.printHuman(os.Stdout)
	line, err := rep.resultLine(want)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.correct() {
		os.Exit(1)
	}
	return nil
}

// writeResult saves the full report, provenance and sample counts included,
// next to the trace.
func writeResult(rep *report, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("result dir: %w", err)
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("result: %w", err)
	}
	p := rep.Params
	path := filepath.Join(dir, fmt.Sprintf("result-%s-seed%d-trace%d.json", p.Workload, p.Seed, boolInt(p.Trace)))
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("result: %w", err)
	}
	return nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
