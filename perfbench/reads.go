package main

import (
	"context"
	"sync"
	"time"

	"stcam/internal/geo"
	"stcam/internal/vision"
	"stcam/internal/wire"
)

// reader is the read-side client of a live phase. One loop runs closed-loop
// query work (if any) and, every interval, a measurement round: one Range
// poll per pending freshness probe, optionally a fixed glance (one Range,
// one kNN and one heatmap around the newest probe), and one PollUpdates per
// subscriber.
type reader struct {
	b        *bench
	interval time.Duration
	glances  bool

	mu      sync.Mutex
	pending []probe
	newest  vision.Detection     // the last probe added, for the glance
	created map[uint64]time.Time // ObsID → creation stamp, for subscriber lag

	subs     []uint64
	installs int // shared worker-side installs behind the subscribers

	polls     uint64 // makes every probe poll a distinct query
	glance    []sample
	fresh     []time.Duration
	lags      []time.Duration
	attempted int
	failed    int
	dropped   map[uint64]int64 // per subscriber: lifetime updates lost to a full buffer
	evicted   int
}

// probe is one detection whose visibility a reader waits for.
type probe struct {
	det     vision.Detection
	created time.Time // the frame's due time: when the camera produced it
}

func newReader(b *bench, interval time.Duration, glances bool) *reader {
	return &reader{b: b, interval: interval, glances: glances, created: make(map[uint64]time.Time), dropped: make(map[uint64]int64)}
}

func (r *reader) addProbe(d vision.Detection, created time.Time) {
	r.mu.Lock()
	r.pending = append(r.pending, probe{det: d, created: created})
	r.newest = d
	r.mu.Unlock()
}

func (r *reader) noteCreated(f frame, created time.Time) {
	r.mu.Lock()
	for _, d := range f.dets {
		r.created[d.ObsID] = created
	}
	r.mu.Unlock()
}

// subscribe attaches n subscribers to each geofence through the serving
// plane's wire protocol.
func (r *reader) subscribe(ctx context.Context, fences []geo.Rect, n int) error {
	for _, g := range fences {
		for i := 0; i < n; i++ {
			resp, err := r.b.call(ctx, &wire.Subscribe{Kind: wire.ContinuousRange, Rect: g})
			if err != nil {
				return err
			}
			ack, ok := resp.(*wire.SubscribeAck)
			if !ok {
				return errUnexpected(resp)
			}
			r.subs = append(r.subs, ack.SubID)
		}
	}
	r.installs = r.b.coord.SharedContinuousCount()
	return nil
}

func (r *reader) unsubscribe(ctx context.Context) {
	for _, id := range r.subs {
		r.b.call(ctx, &wire.Unsubscribe{SubID: id}) //nolint:errcheck // teardown after measurement
	}
	r.subs = nil
}

// release drops the reader's measurement buffers once they are reported,
// keeping only the subscriptions, so a heap reading taken while they stay
// attached counts the program's state and not the reader's.
func (r *reader) release() {
	r.mu.Lock()
	r.pending, r.created = nil, nil
	r.mu.Unlock()
	r.glance, r.fresh, r.lags = nil, nil, nil
}

// run loops until stop closes, then keeps polling until every probe
// resolved or drainLimit passed. work, when non-nil, is one closed-loop
// query; it runs whenever no round is due.
func (r *reader) run(ctx context.Context, stop <-chan struct{}, drainLimit time.Duration, work func(context.Context)) {
	var stopAt time.Time
	next := time.Now()
	for {
		if stopAt.IsZero() {
			select {
			case <-stop:
				stopAt = time.Now()
			default:
			}
		}
		if !stopAt.IsZero() {
			r.mu.Lock()
			left := len(r.pending)
			r.mu.Unlock()
			if left == 0 || time.Since(stopAt) > drainLimit {
				r.attempted += left
				r.failed += left
				r.round(ctx) // deliver the last subscriber updates
				return
			}
		}
		if !time.Now().Before(next) {
			r.round(ctx)
			next = next.Add(r.interval)
			if time.Now().After(next) {
				next = time.Now().Add(r.interval)
			}
			continue
		}
		if work != nil && stopAt.IsZero() {
			work(ctx)
			continue
		}
		time.Sleep(time.Until(next))
	}
}

// sample is one timed read.
type sample struct {
	kind string
	d    time.Duration
	end  time.Time // when the answer arrived
}

// query sends one read, appends its latency to dst (when given), and
// returns the response (nil on failure).
func (r *reader) query(ctx context.Context, q any, dst *[]sample) any {
	t := time.Now()
	resp, err := r.b.call(ctx, q)
	if dst != nil {
		end := time.Now()
		*dst = append(*dst, sample{kindOf(q), end.Sub(t), end})
	}
	r.attempted++
	if err != nil {
		r.failed++
		return nil
	}
	return resp
}

func (r *reader) round(ctx context.Context) {
	r.mu.Lock()
	batch := append([]probe(nil), r.pending...)
	newest := r.newest
	r.mu.Unlock()
	var done map[uint64]bool
	for _, pr := range batch {
		if r.poll(ctx, pr) {
			if done == nil {
				done = make(map[uint64]bool)
			}
			done[pr.det.ObsID] = true
		}
	}
	if r.glances && newest.ObsID != 0 {
		w := wire.TimeWindow{From: newest.Time.Add(-10 * time.Second), To: newest.Time}
		for _, q := range []any{
			&wire.RangeQuery{Rect: geo.RectAround(newest.Pos, 50), Window: w},
			&wire.KNNQuery{Center: newest.Pos, Window: w, K: 4},
			&wire.HeatmapQuery{Rect: geo.RectAround(newest.Pos, 200), Window: w, CellSize: 50},
		} {
			r.query(ctx, q, &r.glance)
		}
	}
	if done != nil {
		r.mu.Lock()
		kept := r.pending[:0]
		for _, pr := range r.pending {
			if !done[pr.det.ObsID] {
				kept = append(kept, pr)
			}
		}
		r.pending = kept
		r.mu.Unlock()
	}
	for _, id := range r.subs {
		r.pollSub(ctx, id)
	}
}

// poll asks for the probe's detection by position and instant. The window
// end moves by one nanosecond per poll — no record lies in that sliver, so
// the answer is unchanged, but every poll is a distinct query that a result
// cache cannot answer from an entry stored before the detection arrived.
func (r *reader) poll(ctx context.Context, pr probe) bool {
	r.polls++
	q := &wire.RangeQuery{Rect: geo.RectAround(pr.det.Pos, 1),
		Window: wire.TimeWindow{From: pr.det.Time, To: pr.det.Time.Add(time.Duration(r.polls))}}
	rr, _ := r.query(ctx, q, nil).(*wire.RangeResult)
	if rr == nil {
		return false
	}
	for _, rec := range rr.Records {
		if rec.ObsID == pr.det.ObsID {
			r.fresh = append(r.fresh, time.Since(pr.created))
			return true
		}
	}
	return false
}

func (r *reader) pollSub(ctx context.Context, id uint64) {
	resp, err := r.b.call(ctx, &wire.PollUpdates{SubID: id})
	now := time.Now()
	r.attempted++
	pr, ok := resp.(*wire.PollResult)
	if err != nil || !ok {
		r.failed++
		return
	}
	r.dropped[id] = pr.Dropped
	if pr.Evicted {
		r.evicted++
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, u := range pr.Updates {
		for _, rec := range u.Positive {
			if c, ok := r.created[rec.ObsID]; ok {
				r.lags = append(r.lags, now.Sub(c))
			}
		}
	}
}
