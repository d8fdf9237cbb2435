// Command perfbench is stcam's benchmark: three seeded workloads over an
// in-process cluster (one coordinator, four workers, every message through
// the production wire codec), each printing the end-to-end metrics a user
// sees, or with -trace 1 the per-layer metrics of a traced pass. Every
// answer is checked against a single-node oracle; a mismatch fails the run.
//
//	go run . -workload ingest_stream -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// See README.md for why each workload exists and what each metric means.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 10, "measured seconds for time-boxed phases")
		trace    = flag.Int("trace", 0, "1 = report per-layer metrics from a traced pass")
		spanDir  = flag.String("spans", ".bench_build/spans", "directory for the traced pass's span log")
	)
	flag.Parse()
	p := params{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second, scale: 1}
	res, err := run(context.Background(), p, *trace == 1, *spanDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := res.emit(os.Stdout, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.correct {
		os.Exit(2)
	}
}

// run measures one workload. A traced run measures it twice, untraced then
// traced, so tracing overhead is the difference between the two passes.
func run(ctx context.Context, p params, traced bool, spanDir string) (*result, error) {
	fn, ok := workloads[p.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", p.workload, strings.Join(workloadNames(), ", "))
	}
	if p.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	if p.scale <= 0 {
		return nil, fmt.Errorf("input scale must be positive")
	}
	plain, err := fn(ctx, p)
	if err != nil {
		return nil, err
	}
	if !traced || !plain.res.correct {
		return plain.res, nil
	}
	p.traced = true
	tr, err := fn(ctx, p)
	if err != nil {
		return nil, err
	}
	r := tr.res
	computeLayers(r, tr.lay, plain.lay)
	name := fmt.Sprintf("%s-seed%d.csv.gz", p.workload, p.seed)
	if err := writeSpans(spanDir, name, tr.lay.spans, selfTimes(tr.lay.spans)); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	r.note("span log: %s", filepath.Join(spanDir, name))
	return r, nil
}
