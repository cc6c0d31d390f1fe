package main

import "fmt"

// metricDef names one reported number. The same table drives the
// program's output, -compare, and (checked by a test) BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: tolerated worsening, as a share of the base
}

// endToEnd is what a user of the serving system sees, per workload. An
// op is a block, or a whole session for churn-64k. The five time metrics
// are at reference speed (see calibrate.go). failed_share is the
// tenth end-to-end number: it is zero on a healthy run, so instead of a
// relative bound it travels as failed/attempted and -compare gates it
// absolutely (failedShareBound).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower", Bound: 0.03},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.02},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
	{Name: "precision_bits", Unit: "bits", Better: "higher", Bound: 0.15},
}

const failedShareBound = 0.002

// perLayer is measured from outside through each layer's public
// functions, at the workload's profile, level and scale. README.md says
// which end-to-end metric each should move.
var perLayer = []metricDef{
	{Name: "ring.ntt_us", Unit: "us", Better: "lower"},
	{Name: "ring.intt_us", Unit: "us", Better: "lower"},
	{Name: "ring.inline_degradations_per_op", Unit: "count", Better: "lower"},

	{Name: "ckks.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "ckks.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "ckks.encrypt_ms", Unit: "ms", Better: "lower"},
	{Name: "ckks.decrypt_ms", Unit: "ms", Better: "lower"},
	{Name: "ckks.mulplain_ms", Unit: "ms", Better: "lower"},
	{Name: "ckks.mulrelin_ms", Unit: "ms", Better: "lower"},
	{Name: "ckks.rescale_ms", Unit: "ms", Better: "lower"},
	{Name: "ckks.hoist_ms", Unit: "ms", Better: "lower"},
	{Name: "ckks.rotate_hoisted_ms", Unit: "ms", Better: "lower"},
	{Name: "ckks.matvec_ms", Unit: "ms", Better: "lower"},
	{Name: "ckks.matvec_plan_ms", Unit: "ms", Better: "lower"},
	{Name: "ckks.keygen_ms", Unit: "ms", Better: "lower"},
	{Name: "ckks.galois_keygen_ms", Unit: "ms", Better: "lower"},
	{Name: "ckks.ct_encode_us", Unit: "us", Better: "lower"},
	{Name: "ckks.ct_decode_us", Unit: "us", Better: "lower"},
	{Name: "ckks.rotkeys_decode_ms", Unit: "ms", Better: "lower"},
	{Name: "ckks.ct_bytes", Unit: "bytes", Better: "lower"},
	{Name: "ckks.rotkeys_bytes", Unit: "bytes", Better: "lower"},

	{Name: "transcipher.mask_ms", Unit: "ms", Better: "lower"},
	{Name: "transcipher.affine_ms", Unit: "ms", Better: "lower"},
	{Name: "transcipher.encrypt_key_ms", Unit: "ms", Better: "lower"},
	{Name: "transcipher.alloc_mb_per_block", Unit: "MB", Better: "lower"},
	{Name: "transcipher.allocs_per_block", Unit: "count", Better: "lower"},

	{Name: "serve.submit_us", Unit: "us", Better: "lower"},
	{Name: "serve.store_register_us", Unit: "us", Better: "lower"},
	{Name: "serve.store_get_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.evictions_per_op", Unit: "count", Better: "lower"},

	{Name: "edge.rtt_solo_ms", Unit: "ms", Better: "lower"},
	{Name: "edge.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "edge.ledger_coverage", Unit: "ratio", Better: "higher"},
	{Name: "edge.dial_ms", Unit: "ms", Better: "lower"},
	{Name: "edge.enable_matvec_ms", Unit: "ms", Better: "lower"},
	{Name: "edge.batch_item_ms", Unit: "ms", Better: "lower"},
	{Name: "edge.rekey_ms", Unit: "ms", Better: "lower"},
	{Name: "edge.close_ms", Unit: "ms", Better: "lower"},
	{Name: "edge.stage_decode_ms", Unit: "ms", Better: "lower"},
	{Name: "edge.stage_queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "edge.stage_eval_ms", Unit: "ms", Better: "lower"},
	{Name: "edge.stage_matvec_ms", Unit: "ms", Better: "lower"},
	{Name: "edge.stage_encode_ms", Unit: "ms", Better: "lower"},
	{Name: "edge.stage_write_ms", Unit: "ms", Better: "lower"},
	{Name: "edge.client_mask_ms", Unit: "ms", Better: "lower"},
	{Name: "edge.client_wait_ms", Unit: "ms", Better: "lower"},

	{Name: "qkd.withdraw_us", Unit: "us", Better: "lower"},
	{Name: "qkd.exchange_ms", Unit: "ms", Better: "lower"},
	{Name: "qkd.withdrawals_per_op", Unit: "count", Better: "lower"},
	{Name: "qkd.key_bytes_per_op", Unit: "bytes", Better: "lower"},

	{Name: "control.replan_ms", Unit: "ms", Better: "lower"},
	{Name: "control.admit_ns", Unit: "ns", Better: "lower"},
	{Name: "control.observe_ns", Unit: "ns", Better: "lower"},

	{Name: "core.solve_s", Unit: "s", Better: "lower"},
	{Name: "core.stage1_ms", Unit: "ms", Better: "lower"},
	{Name: "core.stage2_ms", Unit: "ms", Better: "lower"},
	{Name: "core.stage3_ms", Unit: "ms", Better: "lower"},
	{Name: "core.objective", Unit: "utility", Better: "higher"},

	{Name: "box.slowdown", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// value is one measured number with its unit; Spread is the in-run
// (max−min)/median across windows, present for the window-median metrics.
type value struct {
	Value  float64  `json:"value"`
	Unit   string   `json:"unit"`
	Spread *float64 `json:"spread,omitempty"`
}

// tag attaches each definition's unit to its measured number; a metric
// with no measurement is an error, never a silent zero.
func tag(defs []metricDef, nums map[string]float64, spreads map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		n, ok := nums[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		v := value{Value: n, Unit: d.Unit}
		if s, ok := spreads[d.Name]; ok {
			v.Spread = &s
		}
		out[d.Name] = v
	}
	return out, nil
}
