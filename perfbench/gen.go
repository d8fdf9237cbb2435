package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"stcam/internal/core"
	"stcam/internal/vision"
	"stcam/internal/wire"
)

// sendFunc delivers one frame and returns when it is acknowledged.
type sendFunc func(ctx context.Context, f frame) error

// directSender delivers frames through the pipelined core.Ingester, the
// path a production camera feed uses.
func directSender(b *bench, ing *core.Ingester) sendFunc {
	return func(ctx context.Context, f frame) error {
		return b.tr.rootSpan(ctx, wire.KindIngestBatch, len(f.dets), func(ctx context.Context) error {
			_, err := ing.IngestDetections(ctx, f.dets)
			return err
		})
	}
}

// proxyBatches converts frames to the ingest batches cmd/stcam-sim sends,
// ahead of timing.
func proxyBatches(fs []frame) map[*vision.Detection]*wire.IngestBatch {
	batches := make(map[*vision.Detection]*wire.IngestBatch, len(fs))
	for _, f := range fs {
		batch := &wire.IngestBatch{Camera: uint32(f.dets[0].Camera), FrameTime: f.dets[0].Time}
		for _, d := range f.dets {
			batch.Observations = append(batch.Observations, wire.Observation{
				ObsID: d.ObsID, Camera: uint32(d.Camera), Time: d.Time, Pos: d.Pos, Feature: d.Feature,
			})
		}
		batches[&f.dets[0]] = batch
	}
	return batches
}

// proxySender delivers frames to the coordinator's ingest proxy, the path
// cmd/stcam-sim uses.
func proxySender(b *bench, batches map[*vision.Detection]*wire.IngestBatch) sendFunc {
	return func(ctx context.Context, f frame) error {
		_, err := b.call(ctx, batches[&f.dets[0]])
		return err
	}
}

// stepStats is what one open-loop step measured. Latencies run from each
// frame's due time, so a stall also charges the frames queued behind it.
type stepStats struct {
	rate     float64 // offered observations per second
	frames   int
	obs      int
	lastObs  int             // observations in the last frame
	acks     []time.Duration // per frame: ack time − due time
	late     []time.Duration // per frame: dispatch time − due time
	errors   int
	maxQueue int64 // most frames dispatched but not yet acknowledged
	due      []time.Time
}

// genStats is what the per-layer report keeps of a phase's open-loop steps.
type genStats struct {
	offered  int             // observations offered
	maxQueue int64           // most frames in flight in any step
	late     []time.Duration // per frame: dispatch time − due time
}

func summarize(steps []*stepStats) genStats {
	var g genStats
	for _, st := range steps {
		g.offered += st.obs
		g.maxQueue = max(g.maxQueue, st.maxQueue)
		g.late = append(g.late, st.late...)
	}
	return g
}

// hooks observe an open-loop step: dispatched runs on the dispatcher as
// each frame is sent, acked on the frame's goroutine once it is
// acknowledged.
type hooks struct {
	dispatched, acked func(i int, due time.Time)
}

// openLoop offers the frames at `rate` observations per second: frame i is
// due when the observations before it have been offered at that rate. One
// dispatcher loop sends each frame at its due time on its own goroutine, so
// a slow acknowledgment never delays later sends.
func openLoop(ctx context.Context, fs []frame, rate float64, send sendFunc, h hooks) *stepStats {
	st := &stepStats{rate: rate, frames: len(fs), acks: make([]time.Duration, len(fs)),
		late: make([]time.Duration, len(fs)), due: make([]time.Time, len(fs))}
	var (
		wg       sync.WaitGroup
		inflight atomic.Int64
		errs     atomic.Int64
		maxQ     atomic.Int64
	)
	t0 := time.Now().Add(time.Millisecond)
	offered := 0
	for i, f := range fs {
		due := t0.Add(time.Duration(float64(offered) / rate * float64(time.Second)))
		offered += len(f.dets)
		st.due[i] = due
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		st.late[i] = time.Since(due)
		q := inflight.Add(1)
		for {
			m := maxQ.Load()
			if q <= m || maxQ.CompareAndSwap(m, q) {
				break
			}
		}
		if h.dispatched != nil {
			h.dispatched(i, due)
		}
		wg.Add(1)
		go func(i int, f frame, due time.Time) {
			defer wg.Done()
			err := send(ctx, f)
			st.acks[i] = time.Since(due)
			inflight.Add(-1)
			if err != nil {
				errs.Add(1)
			} else if h.acked != nil {
				h.acked(i, due)
			}
		}(i, f, due)
	}
	wg.Wait()
	st.obs = offered
	if len(fs) > 0 {
		st.lastObs = len(fs[len(fs)-1].dets)
	}
	st.errors = int(errs.Load())
	st.maxQueue = maxQ.Load()
	return st
}

// --- sustained-rate ladder -------------------------------------------------------

// The ladder's rungs are fixed: 1000 × 2^(k/16) observations per second.
// The search only chooses which rungs to try.
func rung(k int) float64 { return 1000 * math.Pow(2, float64(k)/16) }

func rungAtOrBelow(rate float64) int {
	return int(math.Floor(16 * math.Log2(math.Max(rate, 1000)/1000)))
}

const (
	ackLimit  = 250 * time.Millisecond // ack p99 limit for a sustained rung
	maxGrowth = 0.03                   // backlog growth, as a share of the offered rate, a sustained rung stays under
)

// passes reports whether a rung was sustained: no errors, ack p99 under the
// limit, and no growing backlog.
func (st *stepStats) passes() bool {
	if st.frames == 0 || st.errors > 0 || pct(st.acks, 0.99) > ackLimit {
		return false
	}
	return st.growth() <= maxGrowth
}

// growth is how fast the backlog grew over the step: the least-squares
// slope of each frame's ack latency against its due time, in seconds of
// latency per second. A cluster that keeps up holds its latency level
// (slope near 0); one that acknowledges only a share c of the offered rate
// falls behind by about 1−c seconds every second. Unlike the step's
// acknowledged rate, the slope does not charge a keeping-up cluster for the
// latency of the step's last frame.
func (st *stepStats) growth() float64 {
	n := float64(len(st.due))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i, d := range st.due {
		x, y := d.Sub(st.due[0]).Seconds(), st.acks[i].Seconds()
		sx, sy, sxx, sxy = sx+x, sy+y, sxx+x*x, sxy+x*y
	}
	if v := n*sxx - sx*sx; v > 0 {
		return (n*sxy - sx*sy) / v
	}
	return 0
}

// achieved is the acknowledged observation rate over the step.
func (st *stepStats) achieved() float64 {
	last := st.due[0]
	for i, d := range st.due {
		if a := d.Add(st.acks[i]); a.After(last) {
			last = a
		}
	}
	return float64(st.obs) / last.Sub(st.due[0]).Seconds()
}

// offered is the observation rate the generator actually dispatched: the
// observations sent before the step's last frame over the time from the
// first dispatch to the last.
func (st *stepStats) offered() float64 {
	n := len(st.due)
	if n < 2 {
		return 0
	}
	first, last := st.due[0].Add(st.late[0]), st.due[n-1].Add(st.late[n-1])
	return float64(st.obs-st.lastObs) / last.Sub(first).Seconds()
}

// ladderResult is one ladder search.
type ladderResult struct {
	sustained float64 // offered rate of the highest passing rung; 0 if none passed
	entry     float64 // closed-loop estimate the search starts from
	steps     []*stepStats
	used      int  // frames consumed
	cut       bool // the stream ran out before the search converged
}

// ladder measures the sustained ingest rate on the direct path. It first
// pushes one chunk of ~stepObs observations closed-loop to estimate
// capacity C, then offers the rungs one chunk per try along a monotone
// path: from the highest rung at or below 0.75C it climbs two rungs at a
// time while rungs pass (or, if that first rung fails, steps down two at a
// time until one passes), then tries the rung between the last pass and the
// first failure. It reports the rate the generator offered at the highest
// rung that passed, or 0 when none did. The association gallery grows with
// the stream, so capacity falls slowly from chunk to chunk; a short
// monotone path meets that decline at one crossing, so no rung's verdict
// depends on how far into the stream a search had wandered before trying it.
//
// A rung passes when one of up to two tries passes: on a shared host a
// neighbour can only slow a try, so one pass shows the cluster sustains the
// rate, while a lone failure can be the neighbour's. Every try starts from
// a collected heap; a try lasts about a second, shorter than the cycle of
// the heap the stream builds up, so no try's verdict hinges on whether a
// collection cycle happened to land in it.
func ladder(ctx context.Context, b *bench, ing *core.Ingester, fs []frame, stepObs int) (ladderResult, error) {
	var res ladderResult
	chunk := func() []frame {
		end := res.used
		for n := 0; end < len(fs) && n < stepObs; end++ {
			n += len(fs[end].dets)
		}
		if countObs(fs[res.used:end]) < stepObs {
			return nil // a short last chunk would judge a rung on too little
		}
		out := fs[res.used:end]
		res.used = end
		return out
	}
	first := chunk()
	if first == nil {
		return res, fmt.Errorf("ladder: stream shorter than one rung")
	}
	runtime.GC() // start clean of earlier phases' garbage
	bulk, err := bulkIngest(ctx, ing, first)
	if err != nil {
		return res, err
	}
	res.entry = bulk
	send := directSender(b, ing)
	// try runs rung k until one try passes or two fail; more=false means
	// the stream ran out of chunks first.
	try := func(k int) (passed, more bool) {
		for tries := 0; tries < 2; tries++ {
			c := chunk()
			if c == nil {
				res.cut = true
				return false, false
			}
			runtime.GC()
			st := openLoop(ctx, c, rung(k), send, hooks{})
			res.steps = append(res.steps, st)
			if st.passes() {
				res.sustained = st.offered()
				return true, true
			}
		}
		return false, true
	}
	k := rungAtOrBelow(0.75 * bulk)
	passed, more := try(k)
	step := 2
	if !passed {
		step = -2
	}
	for more && k+step >= 0 {
		var next bool
		if next, more = try(k + step); more && next != passed {
			try(k + step/2) // the rung between the last pass and the first failure
			break
		}
		k += step
	}
	return res, nil
}
