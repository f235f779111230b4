package main

import (
	"math"
	"slices"
)

// metricDef names one metric and its unit. The two catalogues below are the
// benchmark's contract: BENCHMARK.json lists exactly these names and units
// (pinned by TestBenchmarkJSONMatchesCatalogue) and every workload emits
// every one of them exactly once.
type metricDef struct {
	name, unit string
}

// Units: "vus" and "req/vs" are virtual (cost-model) microseconds and
// seconds — they repeat exactly for a fixed seed, unlike the wall units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_req_per_s", "req/s"},
	{"cpu_us_per_req", "us"},
	{"allocs_per_req", "allocs/req"},
	{"alloc_bytes_per_req", "B/req"},
	{"peak_rss_mb", "MB"},
	{"virt_req_per_s", "req/vs"},
	{"virt_lat_p50_us", "vus"},
	{"virt_lat_p99_us", "vus"},
	{"slo_attainment_pct", "%"},
}

var perLayer = []metricDef{
	{"driver.wall_op_p50_us", "us"},
	{"driver.wall_op_p99_us", "us"},
	{"driver.raw_req_per_s", "req/s"},
	{"driver.speed_factor", "x"},
	{"driver.round_spread_pct", "%"},
	{"driver.trace_overhead_pct", "%"},
	{"driver.virt_elapsed_s", "vs"},
	{"driver.offered_req_per_vs", "req/vs"},
	{"driver.backlog_delay_p99_us", "vus"},
	{"driver.failed_pct", "%"},

	{"fleet.route_ns_p50", "ns"},
	{"fleet.submit_ns_p50", "ns"},
	{"fleet.placements", "count"},
	{"fleet.reroutes", "count"},
	{"fleet.rejects", "count"},
	{"fleet.shard_imbalance_pct", "%"},

	{"batcher.flushes", "count"},
	{"batcher.avg_batch", "items"},
	{"batcher.full_flush_pct", "%"},
	{"batcher.rejected", "count"},
	{"batcher.fallback_flushes", "count"},
	{"batcher.queue_delay_v_p50_us", "vus"},
	{"batcher.queue_delay_v_p99_us", "vus"},
	{"batcher.max_queue_delay_us", "vus"},
	{"batcher.flush_ns_p50", "ns"},
	{"batcher.flush_ns_per_item", "ns"},

	{"remoting.calls_per_req", "calls/req"},
	{"remoting.daemon_executed_per_req", "cmds/req"},
	{"remoting.retries", "count"},
	{"remoting.redelivered", "count"},
	{"remoting.channel_virt_share_pct", "%"},
	{"remoting.call_ns_p50", "ns"},
	{"remoting.codec_ns_per_cmd", "ns"},
	{"remoting.batch_codec_ns_per_item", "ns"},

	{"boundary.frames_per_req", "frames/req"},
	{"boundary.doorbell_rings_per_req", "rings/req"},
	{"boundary.doorbell_wake_pct", "%"},
	{"boundary.doorbell_coalesced_pct", "%"},
	{"boundary.queue_full", "count"},
	{"boundary.roundtrip_v_ns_mean", "vns"},
	{"boundary.roundtrip_ns_p50", "ns"},

	{"gpu.launches_per_req", "1/req"},
	{"gpu.copy_bytes_per_req", "B/req"},
	{"gpu.exec_v_ns_mean", "vns"},
	{"gpu.queue_delay_v_ns_mean", "vns"},
	{"gpu.copy_v_ns_mean", "vns"},
	{"gpu.utilization_pct", "%"},
	{"gpu.execute_ns_p50", "ns"},

	{"nn.forward_ns_p50", "ns"},
	{"nn.flops_per_req", "flop/req"},
	{"nn.wall_share_pct", "%"},

	{"shm.used_bytes", "B"},
	{"shm.staged_bytes_per_req", "B/req"},
	{"shm.alloc_free_ns_p50", "ns"},

	{"flightrec.stage_queue_vns", "vns"},
	{"flightrec.stage_exec_vns", "vns"},
	{"flightrec.stage_copy_vns", "vns"},
	{"flightrec.stage_boundary_vns", "vns"},
	{"flightrec.stage_per_call_vns", "vns"},
	{"flightrec.chain_complete_pct", "%"},
	{"flightrec.dropped", "count"},
	{"flightrec.emit_ns_p50", "ns"},
	{"telemetry.snapshot_us", "us"},

	{"ledger.wall_accounted_pct", "%"},
	{"ledger.virt_accounted_pct", "%"},
}

// percentile returns the nearest-rank q-quantile (q in [0,1]) of an
// ascending-sorted sample, 0 for an empty one.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// sortedCopy returns an ascending copy of xs.
func sortedCopy(xs []int64) []int64 {
	s := append([]int64(nil), xs...)
	slices.Sort(s)
	return s
}

// median returns the middle value of xs (mean of the two middle values for
// an even count), 0 for an empty slice. The timed phase is split into
// rounds and wall-rate metrics report the median round, so one descheduled
// round does not move the result.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// spreadPct is (max-min)/median of xs in percent.
func spreadPct(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return (hi - lo) / m * 100
}

// ratio is a/b, 0 when b is 0: per-request metrics of a layer the workload
// bypasses read 0 rather than NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
