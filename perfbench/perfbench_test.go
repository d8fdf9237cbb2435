package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

// TestWorkloadsSmoke runs every workload at a tiny scale, untraced and
// traced, and checks that the oracle passes and that the last output line
// carries every named metric with its unit.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all three workloads")
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			p := params{workload: name, seed: 3, seconds: time.Second, scale: 0.05}
			res, err := run(context.Background(), p, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.correct {
				t.Fatalf("%s traced=%v: oracle mismatch:\n%s", name, traced, strings.Join(res.notes, "\n"))
			}
			var out bytes.Buffer
			if err := res.emit(&out, traced); err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var got struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
				t.Fatalf("%s traced=%v: last line is not the JSON result: %v", name, traced, err)
			}
			var want []metricDef
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			for _, d := range defs {
				if !d.printOnly {
					want = append(want, d)
				}
				if !strings.Contains(out.String(), "  "+d.name+" ") {
					t.Errorf("%s traced=%v: report does not print %s", name, traced, d.name)
				}
			}
			if !got.Correct || got.Attempted < 1 || len(got.Metrics) != len(want) {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d metrics=%d, want %d", name, traced, got.Correct, got.Attempted, len(got.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := got.Metrics[d.name]
				if !ok || m.Value == nil || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want a value in %s", name, traced, d.name, m, d.unit)
				}
			}
		}
	}
}

// TestSelfTimes checks the self-time rule on a hand-built trace: a client
// request whose coordinator call fans out to two overlapping worker calls.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{trace: 1, root: true, node: clientNode, start: 0, end: 100},
		{trace: 1, call: true, node: clientNode, peer: coordAddr, start: 5, end: 95},
		{trace: 1, node: coordAddr, start: 10, end: 90},
		{trace: 1, call: true, node: coordAddr, peer: "worker-01", start: 20, end: 60},
		{trace: 1, call: true, node: coordAddr, peer: "worker-02", start: 40, end: 80},
		{trace: 1, node: "worker-01", start: 25, end: 55},
		{trace: 1, node: "worker-02", start: 45, end: 75},
	}
	want := []time.Duration{10, 10, 20, 10, 10, 30, 30}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("span %d: self %d, want %d", i, got, want[i])
		}
	}
}

// TestGrowth checks the backlog-growth slope on hand-built steps: a level
// latency, and a backlog that grows by 0.1 s every second.
func TestGrowth(t *testing.T) {
	for _, slope := range []float64{0, 0.1} {
		st := &stepStats{}
		for i := 0; i < 100; i++ {
			due := time.Duration(i) * 10 * time.Millisecond
			st.due = append(st.due, time.Unix(0, 0).Add(due))
			st.acks = append(st.acks, 5*time.Millisecond+time.Duration(slope*float64(due)))
		}
		if got := st.growth(); math.Abs(got-slope) > 1e-6 {
			t.Errorf("growth %v, want %v", got, slope)
		}
	}
}
