package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit. A printOnly metric is
// printed in the report but left out of the JSON result, because it does
// not repeat between identical runs well enough to gate on (README.md).
type metricDef struct {
	name, unit string
	printOnly  bool
}

// endToEnd lists the metrics a user of the system sees; every workload
// reports every one of them (see README.md for which phase measures each).
// failed_ratio is printed after them but never in the JSON metrics: it is
// zero on a healthy run, and the JSON carries attempted and failed.
var endToEnd = []metricDef{
	{"setup_s", "s", false},
	{"ingest_sustained_eps", "1/s", false},
	{"ingest_ack_p50_ms", "ms", false},
	{"ingest_ack_p99_ms", "ms", true},
	{"freshness_p50_ms", "ms", false},
	{"freshness_p99_ms", "ms", true},
	{"query_qps", "1/s", false},
	{"query_p50_ms", "ms", false},
	{"query_p99_ms", "ms", true},
	{"range_p50_ms", "ms", false},
	{"knn_p50_ms", "ms", false},
	{"heatmap_p50_ms", "ms", false},
	{"sub_lag_p50_ms", "ms", false},
	{"sub_lag_p99_ms", "ms", true},
	{"heap_bytes_per_obs", "B", false},
}

// perLayer lists the traced run's metrics, grouped by the module they
// measure.
var perLayer = []metricDef{
	// vision
	{"vision.assoc_us_per_obs", "us", false},
	{"vision.gallery_size", "count", false},
	// stindex
	{"stindex.insert_ns_per_obs", "ns", false},
	{"stindex.range_us", "us", false},
	{"stindex.count_us", "us", false},
	{"stindex.heatmap_us", "us", false},
	{"stindex.knn_us", "us", false},
	{"stindex.range_ns_per_result", "ns", false},
	{"stindex.allocs_per_query", "count", false},
	{"stindex.bytes_per_obs", "B", false},
	// wire
	{"wire.ingest_encode_ns_per_obs", "ns", false},
	{"wire.ingest_decode_ns_per_obs", "ns", false},
	{"wire.range_encode_ns_per_rec", "ns", false},
	{"wire.range_decode_ns_per_rec", "ns", false},
	{"wire.bytes_per_obs", "B", false},
	{"wire.allocs_per_roundtrip", "count", false},
	{"wire.pool_miss_ratio", "ratio", false},
	// cluster
	{"cluster.call_self_us", "us", false},
	{"cluster.calls_per_query", "count", false},
	{"cluster.bytes_per_query", "B", false},
	{"cluster.calls_per_obs", "count", false},
	{"cluster.bytes_per_obs", "B", false},
	// core worker
	{"worker.ingest_self_us", "us", false},
	{"worker.ingest_other_us_per_obs", "us", false},
	{"worker.range_self_us", "us", false},
	{"worker.knn_self_us", "us", false},
	{"worker.count_self_us", "us", false},
	{"worker.heatmap_self_us", "us", false},
	{"worker.trajectory_self_us", "us", false},
	{"continuous.installed", "count", false},
	// core ingester
	{"ingester.backlog_max_frames", "count", false},
	{"ingester.enqueue_us", "us", false},
	{"ingester.rpcs_per_frame", "count", false},
	// core coordinator
	{"coord.query_self_us", "us", false},
	{"coord.asked_per_query", "count", false},
	{"coord.pruned_per_query", "count", false},
	{"coord.answered_per_query", "count", false},
	{"coord.knn_rounds_per_query", "count", false},
	{"coord.heartbeat_us", "us", false},
	{"summary.rebuilds", "count", false},
	// serve
	{"serve.cache_hit_ratio", "ratio", false},
	{"serve.cache_lookups", "count", false},
	{"serve.cache_evicted", "count", false},
	{"serve.cache_bytes", "B", false},
	{"serve.intercept_hit_us", "us", false},
	{"serve.intercept_miss_us", "us", false},
	{"serve.shed", "count", false},
	{"serve.fanout_dedup", "ratio", false},
	{"serve.dropped_updates", "count", false},
	// generator and reference
	{"gen.late_p99_ms", "ms", false},
	{"gen.offered_eps", "1/s", false},
	{"baseline.central_eps", "1/s", false},
	// trace
	{"trace.spans", "count", false},
	{"trace.overhead_pct", "%", false},
	{"share.vision_pct", "%", false},
	{"share.stindex_pct", "%", false},
	{"share.wire_cluster_pct", "%", false},
	{"share.worker_other_pct", "%", false},
	{"share.coord_pct", "%", false},
	{"share.serve_pct", "%", false},
}

// result is what one run measured.
type result struct {
	workload  string
	correct   bool
	attempted int
	failed    int
	values    map[string]float64
	notes     []string // extra human-readable report lines
}

func newResult(workload string) *result {
	return &result{workload: workload, correct: true, values: make(map[string]float64)}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail marks the run incorrect with a reason.
func (r *result) fail(format string, args ...any) {
	r.correct = false
	r.note("ORACLE MISMATCH: "+format, args...)
}

// emit prints the human-readable report, then the one-line JSON result the
// driver parses. It returns an error when a metric the table promises is
// missing, so a workload can never silently drop one.
func (r *result) emit(w io.Writer, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	fmt.Fprintf(w, "workload %s\n", r.workload)
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	out := make(map[string]map[string]any)
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", r.workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("workload %s measured %s = %v", r.workload, d.name, v)
		}
		mark := ""
		if d.printOnly {
			mark = "  (printed, not gated)"
		} else {
			out[d.name] = map[string]any{"value": v, "unit": d.unit}
		}
		fmt.Fprintf(w, "  %-32s %14.4f %s%s\n", d.name, v, d.unit, mark)
	}
	ratio := 0.0
	if r.attempted > 0 {
		ratio = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "  %-32s %14.6f ratio (%d of %d)\n", "failed_ratio", ratio, r.failed, r.attempted)
	line, err := json.Marshal(map[string]any{
		"correct":   r.correct,
		"attempted": max(r.attempted, 1),
		"failed":    r.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	return nil
}

// --- sample statistics -------------------------------------------------------

// pct returns the q-quantile (0..1) of the samples by nearest rank, or 0 for
// no samples.
func pct(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// tailPct is the q-quantile taken as the median over tailWindows
// consecutive windows of the samples (in arrival order), so one stall
// lands in one window instead of deciding the whole run's tail.
func tailPct(xs []time.Duration, q float64) time.Duration {
	if len(xs) < tailWindows {
		return pct(xs, q)
	}
	var per []float64
	for w := 0; w < tailWindows; w++ {
		per = append(per, float64(pct(xs[w*len(xs)/tailWindows:(w+1)*len(xs)/tailWindows], q)))
	}
	return time.Duration(medianF(per))
}

const tailWindows = 3

// quantileF is the q-quantile (0..1) of xs, interpolated between ranks.
func quantileF(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
