package main

// nameUnit is one metric of a result line.
type nameUnit struct{ name, unit string }

// endToEnd are the metrics of --trace 0 result lines, as BENCHMARK.json
// lists them. Every run also prints and saves failed_ratio, which is 0 by
// design on these workloads (the result line carries it as
// attempted/failed), and the paper's quality.vtime_to_target_s and
// quality.final_accuracy. Those two are exact functions of the seed whose
// spread across seeds on a 16- or 40-client testbed is far wider than any
// bound a median over ten seeds could hold, so they are per-layer rows of
// the traced run instead: recorded on every commit, gated by none.
var endToEnd = []nameUnit{
	{"setup_s", "s"},
	{"round_s", "s"},
	{"train_samples_per_s", "1/s"},
	{"clients_per_s", "1/s"},
	{"peak_heap_bytes", "B"},
	{"live_heap_bytes", "B"},
	{"upload_bytes_per_round", "B"},
}

// perLayer are the metrics of --trace 1 result lines, as BENCHMARK.json
// lists them: the rows every workload measures under one name. Rows some
// workload lacks are printed and saved but not in the result line: the
// layer probe's per-layer and tensor rows (nn.conv1.fwd_s, nn.rnn.bwd_s,
// tensor.<op>.<shape>.<dtype>_s), which are named after the running
// workload's own network; compress.s and compress.upload_s (only
// fleet-fedca-f32 compresses); core.after_iteration_anchor_s and
// core.finalize_anchor_s (FedAvg has no anchor rounds);
// fleet.sample_cohort_s (static testbeds have no sampler); and
// quality.vtime_to_target_s (an exact function of the seed, so it reads the
// same on every run of one seed).
var perLayer = []nameUnit{
	{"quality.final_accuracy", "1"},
	{"fl.round_s", "s"},
	{"fl.dispatch_s", "s"},
	{"fl.client_phase_s", "s"},
	{"fl.server_tail_s", "s"},
	{"fl.eval_s", "s"},
	{"fl.client_round_p50_s", "s"},
	{"fl.client_round_p90_s", "s"},
	{"fl.worker_busy_share", "1"},
	{"go.alloc_bytes_per_round", "B"},
	{"go.gc_cycles_per_round", "count"},
	{"fleet.materialize_s", "s"},
	{"fleet.materialize_calls", "count"},
	{"fleet.recycle_s", "s"},
	{"fleet.slots_built", "count"},
	{"fleet.slot_reuse_ratio", "1"},
	{"core.plan_s", "s"},
	{"core.new_controller_s", "s"},
	{"core.after_iteration_s", "s"},
	{"core.after_iteration_regular_s", "s"},
	{"core.finalize_s", "s"},
	{"core.finalize_regular_s", "s"},
	{"core.anchor_client_rounds", "count"},
	{"core.early_stops", "count"},
	{"core.eager_sent", "count"},
	{"core.retransmits", "count"},
	{"core.eager_kept_ratio", "1"},
	{"core.iters_per_client_round", "count"},
	{"core.anchored_clients", "count"},
	{"core.profiler_bytes", "B"},
	{"compress.calls", "count"},
	{"compress.ratio", "1"},
	{"cputok.cap", "count"},
	{"cputok.max_inflight", "count"},
	{"nn.fwd_s", "s"},
	{"nn.bwd_s", "s"},
	{"nn.loss_s", "s"},
	{"nn.sgd_s", "s"},
	{"data.next_s", "s"},
	{"nn.iter_s", "s"},
	{"nn.iter_alloc_bytes", "B"},
	{"ledger.coverage", "1"},
	{"ledger.train_coverage", "1"},
	{"trace.overhead", "1"},
}
