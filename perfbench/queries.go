package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"stcam/internal/baseline"
	"stcam/internal/geo"
	"stcam/internal/stindex"
	"stcam/internal/wire"
)

// fingerprint condenses an answer to a comparable value: the record (or cell)
// count plus an order-independent hash of the ObsIDs (or cells), so answers
// are checked by ObsID without keeping them.
type fingerprint struct {
	n   int
	sum uint64
}

func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x ^ x>>33
}

func (f *fingerprint) add(x uint64) { f.n++; f.sum += mix(x) }

func recordsFP(rs []wire.ResultRecord) fingerprint {
	var f fingerprint
	for i := range rs {
		f.add(rs[i].ObsID)
	}
	return f
}

func knnFP(rs []wire.KNNRecord) fingerprint {
	var f fingerprint
	for i := range rs {
		f.add(rs[i].ObsID)
	}
	return f
}

func heatFP(cs []wire.HeatCell) fingerprint {
	var f fingerprint
	for _, c := range cs {
		f.add(uint64(uint32(c.CX))<<32 | uint64(uint32(c.CY)) ^ mix(uint64(c.Count)))
	}
	return f
}

// kindOf names a query for per-kind latency ("" for other messages).
func kindOf(q any) string { return queryKinds[wire.KindOf(q)] }

// queryKinds names the client query kinds.
var queryKinds = map[wire.MsgKind]string{
	wire.KindRangeQuery: "range", wire.KindKNNQuery: "knn", wire.KindCountQuery: "count",
	wire.KindHeatmapQuery: "heatmap", wire.KindTrajectoryQuery: "trajectory",
}

// answerFP fingerprints a coordinator response and reports whether its
// completeness metadata (where the kind carries it) says every asked worker
// answered.
func answerFP(resp any) (fingerprint, bool, error) {
	switch r := resp.(type) {
	case *wire.RangeResult:
		return recordsFP(r.Records), r.Answered == r.Asked, nil
	case *wire.KNNResult:
		return knnFP(r.Records), r.Answered == r.Asked, nil
	case *wire.CountResult:
		return fingerprint{n: r.Count}, r.Answered == r.Asked, nil
	case *wire.HeatmapResult:
		return heatFP(r.Cells), true, nil
	case *wire.TrajectoryResult:
		return recordsFP(r.Records), true, nil
	}
	return fingerprint{}, false, fmt.Errorf("unexpected response %T", resp)
}

// oracle holds the single-node references every answer is checked against:
// baseline.Central for Range/KNN/Count, one whole-world stindex.Store for
// Heatmap, and the owning worker's store for Trajectory (target IDs are
// worker-namespaced, so no single-node index assigns the same ones).
type oracle struct {
	central *baseline.Central
	world   *stindex.Store
	owners  []*stindex.Store
}

func newOracle(fs []frame) *oracle {
	o := &oracle{
		central: baseline.NewCentral(baseline.CentralConfig{}),
		world:   stindex.NewStore(stindex.Config{}),
	}
	dets := stripFeatures(allDets(fs))
	o.central.Ingest(dets)
	for _, d := range dets {
		o.world.Insert(stindex.Record{ObsID: d.ObsID, Camera: uint32(d.Camera), Pos: d.Pos, Time: d.Time})
	}
	return o
}

func (o *oracle) expect(q any) fingerprint {
	switch m := q.(type) {
	case *wire.RangeQuery:
		return recordsFP(o.central.Range(m.Rect, m.Window, m.Limit))
	case *wire.KNNQuery:
		return knnFP(o.central.KNN(m.Center, m.Window, m.K))
	case *wire.CountQuery:
		return fingerprint{n: o.central.Count(m.Rect, m.Window)}
	case *wire.HeatmapQuery:
		cells := o.world.Heatmap(m.Rect, m.Window.From, m.Window.To, m.CellSize, nil)
		wc := make([]wire.HeatCell, len(cells))
		for i, c := range cells {
			wc[i] = wire.HeatCell{CX: c.CX, CY: c.CY, Count: c.Count}
		}
		return heatFP(wc)
	case *wire.TrajectoryQuery:
		var f fingerprint
		for _, s := range o.owners {
			for _, r := range s.TargetHistory(m.TargetID, m.Window.From, m.Window.To) {
				f.add(r.ObsID)
			}
		}
		return f
	}
	return fingerprint{}
}

// subsetOf checks an in-run serve_mixed answer against the final oracle:
// records and cells may only be missing (ingest still running), never
// extra, and counts may only fall short.
func (o *oracle) subsetOf(q any, resp any) bool {
	switch m := q.(type) {
	case *wire.RangeQuery:
		r, ok := resp.(*wire.RangeResult)
		if !ok {
			return false
		}
		want := make(map[uint64]bool)
		for _, x := range o.central.Range(m.Rect, m.Window, 0) {
			want[x.ObsID] = true
		}
		for _, x := range r.Records {
			if !want[x.ObsID] {
				return false
			}
		}
		return true
	case *wire.CountQuery:
		r, ok := resp.(*wire.CountResult)
		return ok && r.Count <= o.central.Count(m.Rect, m.Window)
	case *wire.HeatmapQuery:
		r, ok := resp.(*wire.HeatmapResult)
		if !ok {
			return false
		}
		want := make(map[[2]int32]int64)
		for _, c := range o.world.Heatmap(m.Rect, m.Window.From, m.Window.To, m.CellSize, nil) {
			want[[2]int32{c.CX, c.CY}] = c.Count
		}
		for _, c := range r.Cells {
			if c.Count > want[[2]int32{c.CX, c.CY}] {
				return false
			}
		}
		return true
	case *wire.KNNQuery:
		// A kNN answer over a growing store may legitimately name records
		// that a later, closer arrival displaces, so only membership in the
		// final store is checkable: every returned record must exist.
		r, ok := resp.(*wire.KNNResult)
		if !ok {
			return false
		}
		for _, x := range r.Records {
			if len(o.central.Range(geo.RectAround(x.Pos, 0.001), wire.TimeWindow{From: x.Time, To: x.Time}, 0)) == 0 {
				return false
			}
		}
		return true
	}
	return false
}

// shapes draws query places and windows over a world and time span.
type shapes struct {
	rng      *rand.Rand
	world    geo.Rect
	from, to time.Time
}

// window returns a window covering frac of the span, at a random offset.
func (d shapes) window(frac float64) wire.TimeWindow {
	span := d.to.Sub(d.from)
	w := time.Duration(frac * float64(span))
	s := d.from.Add(time.Duration(d.rng.Float64() * float64(span-w)))
	return wire.TimeWindow{From: s, To: s.Add(w)}
}

func (d shapes) point() geo.Point {
	return geo.Pt(d.world.Min.X+d.rng.Float64()*d.world.Width(), d.world.Min.Y+d.rng.Float64()*d.world.Height())
}

// rect returns a square of random side in [minSide, maxSide].
func (d shapes) rect(minSide, maxSide float64) geo.Rect {
	return geo.RectAround(d.point(), (minSide+d.rng.Float64()*(maxSide-minSide))/2)
}

// historyQueries draws n queries over a history spanning [from, to], mixing
// kinds 30% Range, 20% kNN, 20% Count, 15% Heatmap and 15% Trajectory, with
// random sizes and windows so no shape repeats. targets are the trajectory
// subjects to draw from.
func historyQueries(rng *rand.Rand, world geo.Rect, from, to time.Time, targets []uint64, n int) []any {
	d := shapes{rng: rng, world: world, from: from, to: to}
	out := make([]any, 0, n)
	for len(out) < n {
		switch u := rng.Float64(); {
		case u < 0.30:
			out = append(out, &wire.RangeQuery{Rect: d.rect(50, 400), Window: d.window(0.5 * rng.Float64())})
		case u < 0.50:
			out = append(out, &wire.KNNQuery{Center: d.point(), Window: d.window(0.5 * rng.Float64()), K: 1 + rng.Intn(16)})
		case u < 0.70:
			out = append(out, &wire.CountQuery{Rect: d.rect(100, 800), Window: d.window(rng.Float64())})
		case u < 0.85:
			cell := []float64{50, 100}[rng.Intn(2)]
			out = append(out, &wire.HeatmapQuery{Rect: d.rect(200, 1000), Window: d.window(0.5 * rng.Float64()), CellSize: cell})
		default:
			if len(targets) == 0 {
				continue
			}
			out = append(out, &wire.TrajectoryQuery{TargetID: targets[rng.Intn(len(targets))], Window: d.window(rng.Float64())})
		}
	}
	return out
}

// workerTargets lists every target ID held by the given stores, sorted.
func workerTargets(stores []*stindex.Store) []uint64 {
	var out []uint64
	for _, s := range stores {
		out = append(out, s.Targets()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
