package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"stcam/internal/core"
	"stcam/internal/geo"
	"stcam/internal/metrics"
	"stcam/internal/serve"
	"stcam/internal/stindex"
	"stcam/internal/wire"
)

// params are one run's settings.
type params struct {
	workload string
	seed     int64
	seconds  time.Duration
	scale    float64 // input-size multiplier: 1 for the benchmark, small in the smoke test; rates stay fixed
	traced   bool
}

// n scales an input size, keeping it at least 1.
func (p params) n(x int) int { return max(1, int(math.Round(float64(x)*p.scale))) }

const (
	refRate      = 2000.0 // obs/s: the fixed reference rate for ack latency, freshness and subscriber lag
	liveRate     = 2000.0 // obs/s: serve_mixed's proxied ingest, below capacity
	probeEvery   = 5      // probe the first detection of every 5th frame
	pollInterval = 10 * time.Millisecond
	drainLimit   = 5 * time.Second // a probe not visible this long after the feed stops counts as failed
	setupReps    = 31
	fences       = 16 // shared subscriber geofences
	subsPerFence = 4
	fenceSide    = 500.0
	rungObs      = 10000 // observations per ladder rung on ingest_stream (about 1.2 s at capacity)
	tailRungObs  = 16000 // per rung on the sparser history/serve worlds, which ingest about twice as fast
	zipfRate     = 500.0 // serve_mixed query client pacing, queries/s
	rangeRecs    = 1000  // records per serve_mixed Range answer (~46 KB encoded)
)

// measured is one pass over a workload: its end-to-end result plus what
// the per-layer computation needs.
type measured struct {
	res *result
	lay *layerInputs
}

// layerInputs is everything the traced pass records for per-layer metrics.
type layerInputs struct {
	spans     []span
	mainDur   time.Duration
	queries   int // client queries the main phase sent
	gen       genStats
	coord     [2]metrics.RegistrySnapshot // before and after the main phase
	workers   [2]map[string]int64         // summed worker counters and gauges
	poolStats [2][2]uint64                // wire.PoolStats before and after
	ingested  []frame                     // every frame the cluster holds, in ingest order
	routes    map[uint32]string           // camera → primary worker address
	stores    []*stindex.Store
	sample    []any // history-style queries replayed on the worker stores
	subs      int
	installs  int
	headline  float64 // the workload's median request latency, for tracing overhead
}

// --- shared phases ---------------------------------------------------------------

// setupBench starts the cluster setupReps times and keeps the last one,
// returning the median start time: program set-up only, with inputs and
// oracle already built. Each set-up starts from a collected heap, so none
// pays for the garbage of the one before it, and automatic collection stays
// off meanwhile: the runtime then does not return the freed heap to the OS
// between set-ups, so no set-up pays page faults whose cost depends on the
// host.
func setupBench(ctx context.Context, dep *deployment, withServe bool) (*bench, float64, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	times := make([]float64, 0, setupReps)
	for {
		runtime.GC()
		t := time.Now()
		b, err := startBench(ctx, dep, withServe)
		if err != nil {
			return nil, 0, err
		}
		if times = append(times, time.Since(t).Seconds()); len(times) == setupReps {
			return b, medianF(times), nil
		}
		b.stop()
	}
}

// liveHeap returns the live heap after a full collection.
//
// heap_bytes_per_obs is the growth of this figure from just before set-up,
// when the run's pre-generated inputs and oracle are already live, to a
// point where the cluster holds its observations and the benchmark holds
// nothing it allocated since except O(1) bookkeeping: each workload takes
// the second reading after it has reported (and so stopped using) its
// query lists, latency arrays and reader buffers.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// bulkIngest pushes frames through the pipelined ingester as fast as it
// accepts them and returns the observations per second it achieved.
func bulkIngest(ctx context.Context, ing *core.Ingester, fs []frame) (float64, error) {
	t := time.Now()
	for _, f := range fs {
		ing.IngestDetectionsAsync(ctx, f.dets)
	}
	n, err := ing.Flush()
	if err != nil {
		return 0, fmt.Errorf("bulk ingest: %w", err)
	}
	return float64(n) / time.Since(t).Seconds(), nil
}

// liveOpts configures one live phase: an open-loop feed plus the reader.
type liveOpts struct {
	frames []frame
	rate   float64
	send   sendFunc
	probes bool                      // probe every probeEvery-th frame once acknowledged
	work   func(ctx context.Context) // closed-loop reads between measurement rounds
}

// live runs the feed and the reader together; the reader keeps polling
// after the feed ends until its probes resolve.
func (b *bench) live(ctx context.Context, rd *reader, o liveOpts) *stepStats {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rd.run(ctx, stop, drainLimit, o.work)
	}()
	st := openLoop(ctx, o.frames, o.rate, o.send, hooks{
		dispatched: func(i int, due time.Time) {
			if len(rd.subs) > 0 {
				rd.noteCreated(o.frames[i], due)
			}
		},
		acked: func(i int, due time.Time) {
			if o.probes && i%probeEvery == 0 {
				rd.addProbe(o.frames[i].dets[0], due)
			}
		},
	})
	close(stop)
	wg.Wait()
	return st
}

// fenceRects places the shared subscriber geofences.
func fenceRects(rng *rand.Rand, world geo.Rect) []geo.Rect {
	out := make([]geo.Rect, fences)
	for i := range out {
		c := geo.Pt(world.Min.X+fenceSide/2+rng.Float64()*(world.Width()-fenceSide),
			world.Min.Y+fenceSide/2+rng.Float64()*(world.Height()-fenceSide))
		out[i] = geo.RectAround(c, fenceSide/2)
	}
	return out
}

// subscriberTail attaches the serving plane (if absent), subscribes to the
// shared geofences, and feeds frames at the reference rate while polling,
// for workloads whose own traffic has no subscribers. Probes ride along
// when asked.
func (b *bench) subscriberTail(ctx context.Context, p params, fs []frame, send sendFunc, probes bool) (*reader, *stepStats, error) {
	runtime.GC() // start clean of the main phase's and the oracle's garbage
	if b.front == nil {
		b.front = serve.New(b.coord, serve.Options{})
	}
	rd := newReader(b, pollInterval, false)
	if err := rd.subscribe(ctx, fenceRects(rand.New(rand.NewSource(p.seed)), newDeployment().world), subsPerFence); err != nil {
		return nil, nil, fmt.Errorf("subscribe: %w", err)
	}
	// A fresh subscription first reports every target already inside its
	// fence; that burst is not lag in steady state, so the first tick of
	// the feed settles it unmeasured.
	settle := 0
	for settle < len(fs) && fs[settle].tick == fs[0].tick {
		settle++
	}
	b.live(ctx, rd, liveOpts{frames: fs[:settle], rate: refRate, send: send})
	rd.lags, rd.fresh = nil, nil
	st := b.live(ctx, rd, liveOpts{frames: fs[settle:], rate: refRate, send: send, probes: probes})
	rd.unsubscribe(ctx)
	return rd, st, nil
}

// beginMain snapshots counters and turns tracing on for a traced pass.
func (b *bench) beginMain(p params, li *layerInputs) time.Time {
	li.coord[0] = b.coord.StatsSnapshot()
	li.workers[0] = b.workerCounters()
	li.poolStats[0][0], li.poolStats[0][1] = wire.PoolStats()
	b.tr.on.Store(p.traced)
	return time.Now()
}

func (b *bench) endMain(li *layerInputs, start time.Time) {
	li.mainDur = time.Since(start)
	li.spans = b.tr.take()
	li.coord[1] = b.coord.StatsSnapshot()
	li.workers[1] = b.workerCounters()
	li.poolStats[1][0], li.poolStats[1][1] = wire.PoolStats()
}

// workerCounters sums every worker's counters and gauges.
func (b *bench) workerCounters() map[string]int64 {
	out := make(map[string]int64)
	for _, w := range b.wks {
		s := w.StatsSnapshot()
		for k, v := range s.Counters {
			out[k] += v
		}
		for k, v := range s.Gauges {
			out[k] += v
		}
	}
	return out
}

func (b *bench) stores() []*stindex.Store {
	out := make([]*stindex.Store, len(b.wks))
	for i, w := range b.wks {
		out[i] = w.Store()
	}
	return out
}

func (b *bench) primaryRoutes(dep *deployment) map[uint32]string {
	out := make(map[uint32]string, len(dep.cams))
	for _, c := range dep.cams {
		if addr, ok := b.coord.RouteFor(c.ID); ok {
			out[c.ID] = addr
		}
	}
	return out
}

// setReads records the read-side metrics from the reads of one phase that
// began at start and lasted dur. Throughput is counted per window of about
// readWindow by answer arrival and reported as the 90th percentile of those
// rates: on a shared host whose speed changes from one second to the next,
// a neighbour that slows most of the phase does not move it, while a slower
// program slows every window.
func setReads(r *result, xs []sample, start time.Time, dur time.Duration) {
	n := max(1, int(dur/readWindow))
	win := dur / time.Duration(n)
	perWin := make([]float64, n)
	var all []time.Duration
	by := make(map[string][]time.Duration)
	for _, x := range xs {
		all = append(all, x.d)
		by[x.kind] = append(by[x.kind], x.d)
		perWin[min(max(int(x.end.Sub(start)/win), 0), n-1)] += 1 / win.Seconds()
	}
	r.set("query_qps", quantileF(perWin, 0.9))
	r.set("query_p50_ms", ms(pct(all, 0.5)))
	r.set("query_p99_ms", ms(tailPct(all, 0.99)))
	r.set("range_p50_ms", ms(pct(by["range"], 0.5)))
	r.set("knn_p50_ms", ms(pct(by["knn"], 0.5)))
	r.set("heatmap_p50_ms", ms(pct(by["heatmap"], 0.5)))
	r.note("reads: %d (range %d, knn %d, count %d, heatmap %d, trajectory %d), %.0f/s over the whole phase",
		len(all), len(by["range"]), len(by["knn"]), len(by["count"]), len(by["heatmap"]), len(by["trajectory"]), float64(len(all))/dur.Seconds())
}

const readWindow = 250 * time.Millisecond

func setAcks(r *result, st *stepStats) {

	r.set("ingest_ack_p50_ms", ms(pct(st.acks, 0.5)))
	r.set("ingest_ack_p99_ms", ms(tailPct(st.acks, 0.99)))
	r.note("ack latency over %d frames at %.0f obs/s offered; generator late p99 %.3f ms", st.frames, st.rate, ms(pct(st.late, 0.99)))
}

func setFresh(r *result, rd *reader) {
	r.set("freshness_p50_ms", ms(pct(rd.fresh, 0.5)))
	r.set("freshness_p99_ms", ms(tailPct(rd.fresh, 0.99)))
	r.note("freshness over %d probes", len(rd.fresh))
}

func setSubLag(r *result, rd *reader) {
	r.set("sub_lag_p50_ms", ms(pct(rd.lags, 0.5)))
	r.set("sub_lag_p99_ms", ms(tailPct(rd.lags, 0.99)))
	var dropped int64
	for _, d := range rd.dropped {
		dropped += d
	}
	r.failed += int(dropped) + rd.evicted
	r.note("subscriber lag over %d deliveries; %d dropped, %d evicted", len(rd.lags), dropped, rd.evicted)
}

// noteCache reports what the result cache did over the main phase.
func noteCache(r *result, li *layerInputs) {
	delta := func(name string) int64 { return li.coord[1].Counters[name] - li.coord[0].Counters[name] }
	hits, lookups := delta("serve.cache.hits"), delta("serve.cache.hits")+delta("serve.cache.misses")
	r.note("result cache over the main phase: %d lookups, hit ratio %.3f, %d evicted, %d expired; %d entries in %d bytes at its end",
		lookups, ratio(int(hits), int(lookups)), delta("serve.cache.evicted"), delta("serve.cache.expired"),
		li.coord[1].Gauges["serve.cache.entries"], li.coord[1].Gauges["serve.cache.bytes"])
}

func countReads(r *result, rd *reader) {
	r.attempted += rd.attempted
	r.failed += rd.failed
}

func countFeed(r *result, st *stepStats) {
	r.attempted += st.frames
	r.failed += st.errors
}

func setLadder(r *result, lr ladderResult) {
	r.set("ingest_sustained_eps", lr.sustained)
	r.note("ladder: closed-loop estimate %.0f obs/s; the search starts at 0.75 of it", lr.entry)
	if lr.sustained == 0 {
		r.note("ladder: no rung was sustained, so ingest_sustained_eps is 0")
	}
	if lr.cut {
		r.note("ladder: the stream ran out before the search converged")
	}
	for _, st := range lr.steps {
		r.attempted += st.frames
		verdict := "fail"
		if st.passes() {
			verdict = "pass"
		}
		r.note("ladder rung %.0f obs/s: %d frames, offered %.0f obs/s, acknowledged %.0f obs/s, backlog growth %.3f, ack p99 %.1f ms: %s",
			st.rate, st.frames, st.offered(), st.achieved(), st.growth(), ms(pct(st.acks, 0.99)), verdict)
	}
}

// --- ingest_stream ---------------------------------------------------------------

// ingestStream: an open-loop camera feed through the direct pipelined
// Ingester. Warm-up, then the reference-rate step with freshness probes,
// then the sustained-rate ladder; a subscriber tail follows the main phase.
// The stream length is fixed in ticks so every commit sees the same gallery
// growth.
func ingestStream(ctx context.Context, p params) (*measured, error) {
	const warmT, refT, ladT, tailT = 4, 5, 48, 3
	r := newResult(p.workload)
	dep := newDeployment()
	f := newFeed(dep, p.n(2000), p.seed)
	fs := f.next(warmT + refT + ladT + tailT)
	heap0 := liveHeap()
	b, setup, err := setupBench(ctx, dep, false)
	if err != nil {
		return nil, err
	}
	defer b.stop()
	r.set("setup_s", setup)
	ing := core.NewIngester(b.coord, b.client)
	defer ing.Close()
	send := directSender(b, ing)

	bulk, err := bulkIngest(ctx, ing, segment(fs, 0, warmT))
	if err != nil {
		return nil, err
	}
	r.note("warm-up: %d ticks closed-loop at %.0f obs/s", warmT, bulk)

	li := &layerInputs{}
	b.awaitHeartbeats()
	start := b.beginMain(p, li)
	rd := newReader(b, pollInterval, true)
	ref := b.live(ctx, rd, liveOpts{frames: segment(fs, warmT, warmT+refT), rate: refRate, send: send, probes: true})
	refDur := time.Since(start)
	ladFrames := segment(fs, warmT+refT, warmT+refT+ladT)
	lad, err := ladder(ctx, b, ing, ladFrames, p.n(rungObs))
	if err != nil {
		return nil, err
	}
	b.endMain(li, start)
	li.gen = summarize(append([]*stepStats{ref}, lad.steps...))
	li.queries = len(rd.glance)
	li.headline = ms(pct(ref.acks, 0.5))

	if _, err := bulkIngest(ctx, ing, ladFrames[lad.used:]); err != nil {
		return nil, err
	}
	tail, tailStep, err := b.subscriberTail(ctx, p, segment(fs, warmT+refT+ladT, warmT+refT+ladT+tailT), send, false)
	if err != nil {
		return nil, err
	}
	li.subs, li.installs = fences*subsPerFence, tail.installs

	setAcks(r, ref)
	setFresh(r, rd)
	setReads(r, rd.glance, start, refDur)
	setLadder(r, lad)
	setSubLag(r, tail)
	countFeed(r, ref)
	countFeed(r, tailStep)
	countReads(r, rd)
	countReads(r, tail)

	// Oracle: after the drain every generated observation is resident,
	// exactly once.
	if got := b.resident(); got != f.obs {
		r.fail("resident observations %d, generated %d", got, f.obs)
	}
	r.set("heap_bytes_per_obs", float64(liveHeap()-heap0)/float64(b.resident()))
	li.ingested, li.routes, li.stores = fs, b.primaryRoutes(dep), b.stores()
	li.sample = historyQueries(rand.New(rand.NewSource(p.seed)), dep.world, feedStart, feedStart.Add(time.Duration(f.ticks)*time.Second), workerTargets(li.stores), 200)
	return &measured{res: r, lay: li}, nil
}

// --- history_query ---------------------------------------------------------------

// historyQuery: a static preloaded history, heartbeats so every pruning
// sketch is current, then two closed-loop clients sending a seeded mix of
// Range/kNN/Count/Heatmap/Trajectory straight to the coordinator. No
// shape repeats. A live tail after the main phase measures the ingest-side
// metrics on the grown history.
func historyQuery(ctx context.Context, p params) (*measured, error) {
	const histT, ladT, tailT = 170, 480, 16
	r := newResult(p.workload)
	dep := newDeployment()
	f := newFeed(dep, p.n(300), p.seed)
	hist := f.next(histT)
	o := newOracle(hist)
	heap0 := liveHeap()
	b, setup, err := setupBench(ctx, dep, false)
	if err != nil {
		return nil, err
	}
	defer b.stop()
	r.set("setup_s", setup)
	ing := core.NewIngester(b.coord, b.client)
	defer ing.Close()
	send := directSender(b, ing)
	if _, err := bulkIngest(ctx, ing, hist); err != nil {
		return nil, err
	}
	b.awaitHeartbeats()
	if err := b.heartbeatAll(ctx); err != nil {
		return nil, err
	}
	o.owners = b.stores()
	// The history is static from here on, so the heap is read before the
	// query list and its result arrays exist.
	heapGrowth := liveHeap() - heap0
	histEnd := feedStart.Add(histT * time.Second)
	qs := historyQueries(rand.New(rand.NewSource(p.seed)), dep.world, feedStart, histEnd, workerTargets(o.owners), 6000*int(p.seconds/time.Second))
	r.note("history: %d observations; %d queries drawn", countObs(hist), len(qs))

	li := &layerInputs{}
	got := make([]fingerprint, len(qs))
	complete := make([]bool, len(qs))
	done := make([]bool, len(qs))
	lats := make([]time.Duration, len(qs))
	ends := make([]time.Time, len(qs))
	var next atomic.Int64
	deadline := time.Now().Add(p.seconds)
	start := b.beginMain(p, li)
	var wg sync.WaitGroup
	for c := 0; c < min(2, runtime.NumCPU()); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(qs) {
					return
				}
				t := time.Now()
				resp, err := b.call(ctx, qs[i])
				ends[i] = time.Now()
				lats[i] = ends[i].Sub(t)
				done[i] = true
				if err == nil {
					got[i], complete[i], err = answerFP(resp)
				}
				if err != nil {
					complete[i] = false
				}
			}
		}()
	}
	wg.Wait()
	b.endMain(li, start)
	var reads []sample
	for i, q := range qs {
		if done[i] {
			reads = append(reads, sample{kindOf(q), lats[i], ends[i]})
			li.queries++
			r.attempted++
		}
	}
	setReads(r, reads, start, li.mainDur)
	li.headline = ms(pct(lats[:li.queries], 0.5))
	r.set("heap_bytes_per_obs", float64(heapGrowth)/float64(b.resident()))

	// Oracle: every answer, by ObsID, on one goroutine per CPU.
	want := make([]fingerprint, len(qs))
	var ow sync.WaitGroup
	for c, n := 0, runtime.NumCPU(); c < n; c++ {
		ow.Add(1)
		go func() {
			defer ow.Done()
			for i := c; i < len(qs); i += n {
				if done[i] && complete[i] {
					want[i] = o.expect(qs[i])
				}
			}
		}()
	}
	ow.Wait()
	mismatches := 0
	for i, q := range qs {
		if !done[i] {
			continue
		}
		if !complete[i] {
			r.failed++
			continue
		}
		if want[i] != got[i] {
			if mismatches++; mismatches <= 5 {
				r.fail("%s query %d: got %d records, oracle %d", kindOf(q), i, got[i].n, want[i].n)
			}
		}
	}
	if mismatches > 0 {
		r.fail("%d of %d answers disagree with the oracle", mismatches, li.queries)
	}
	li.ingested, li.routes, li.stores, li.sample = hist, b.primaryRoutes(dep), b.stores(), qs[:min(200, len(qs))]

	// Live tail on the grown history: the reference rate with probes and
	// subscribers, then the ladder.
	tail, tailStep, err := b.subscriberTail(ctx, p, f.next(tailT), send, true)
	if err != nil {
		return nil, err
	}
	lad, err := ladder(ctx, b, ing, f.next(ladT), p.n(tailRungObs))
	if err != nil {
		return nil, err
	}
	setLadder(r, lad)
	setAcks(r, tailStep)
	setFresh(r, tail)
	setSubLag(r, tail)
	countFeed(r, tailStep)
	countReads(r, tail)
	return &measured{res: r, lay: li}, nil
}

// --- serve_mixed -----------------------------------------------------------------

// serveShapes draws the serve_mixed query population over [from, to]:
// Range, Count and Heatmap shapes (the kinds the serving plane caches) in a
// 2:1:1 pattern along the popularity ranks, so every seed's hot set has the
// same kind mix, plus a separate pool of kNN shapes (kNN passes through the
// serving plane, so popularity does not matter to it). Every Range is sized
// against the final oracle to hold about rangeRecs records, and the other
// kinds have fixed sizes, so the few hot shapes that dominate a Zipf mix
// cost what their kind costs whatever the seed. The hot hundred shapes
// (~2 MB) fit the serving plane's default 8 MiB cache; the ~800 distinct
// cacheable shapes a 15 s run asks (~16 MB) do not, so the cache evicts.
func serveShapes(rng *rand.Rand, o *oracle, world geo.Rect, from, to time.Time, n int) (cached, knn []any) {
	d := shapes{rng: rng, world: world, from: from, to: to}
	const pattern = "RCRH"
	cached = make([]any, n)
	for i := range cached {
		switch pattern[i%len(pattern)] {
		case 'R':
			cached[i] = sizedRange(o, d, rangeRecs)
		case 'C':
			cached[i] = &wire.CountQuery{Rect: geo.RectAround(d.point(), 150), Window: d.window(0.5)}
		default:
			cached[i] = &wire.HeatmapQuery{Rect: geo.RectAround(d.point(), 200), Window: d.window(0.3), CellSize: 50}
		}
	}
	knn = make([]any, n/10)
	for i := range knn {
		knn[i] = &wire.KNNQuery{Center: d.point(), Window: d.window(0.3), K: 8}
	}
	return cached, knn
}

// sizedRange draws a Range over half the span whose final answer holds
// about recs records: walkers spread evenly at this scale, so rescaling the
// square's side twice by the square root of the count ratio lands close.
func sizedRange(o *oracle, d shapes, recs int) *wire.RangeQuery {
	c, w := d.point(), d.window(0.5)
	side := 300.0
	for i := 0; i < 2; i++ {
		n := o.central.Count(geo.RectAround(c, side/2), w)
		side = min(worldSide, side*math.Sqrt(float64(recs)/float64(max(n, 1))))
	}
	return &wire.RangeQuery{Rect: geo.RectAround(c, side/2), Window: w}
}

// serveMixed: the serving plane in front, with proxied open-loop ingest at a
// fixed rate below capacity, one closed-loop client sending Zipf-skewed
// queries to the coordinator address, and subscribers on shared geofences
// polled every round. A ladder on the direct path follows the main phase.
func serveMixed(ctx context.Context, p params) (*measured, error) {
	const preT, ladT = 100, 480
	r := newResult(p.workload)
	dep := newDeployment()
	walkers := p.n(300)
	perTick := 2 * walkers // about two cameras see each walker
	liveT := int(math.Ceil(liveRate*p.seconds.Seconds()/float64(perTick))) + 1
	f := newFeed(dep, walkers, p.seed)
	pre, live := f.next(preT), f.next(liveT)
	for n, i := 0, 0; i < len(live); i++ {
		if n += len(live[i].dets); float64(n) > liveRate*p.seconds.Seconds() {
			live = live[:i+1]
			break
		}
	}
	o := newOracle(append(append([]frame(nil), pre...), live...))
	rng := rand.New(rand.NewSource(p.seed))
	liveEnd := live[len(live)-1].dets[0].Time
	cachedShapes, knnShapes := serveShapes(rng, o, dep.world, feedStart, liveEnd, 2000)
	shapes := append(cachedShapes, knnShapes...)
	z := newZipf(rng, len(cachedShapes), 1.2)
	batches := proxyBatches(live)
	heap0 := liveHeap()
	b, setup, err := setupBench(ctx, dep, true)
	if err != nil {
		return nil, err
	}
	defer b.stop()
	send := proxySender(b, batches)
	r.set("setup_s", setup)
	ing := core.NewIngester(b.coord, b.client)
	defer ing.Close()
	if _, err := bulkIngest(ctx, ing, pre); err != nil {
		return nil, err
	}
	b.awaitHeartbeats()
	if err := b.heartbeatAll(ctx); err != nil {
		return nil, err
	}
	rd := newReader(b, pollInterval, false)
	if err := rd.subscribe(ctx, fenceRects(rng, dep.world), subsPerFence); err != nil {
		return nil, err
	}

	li := &layerInputs{subs: len(rd.subs), installs: rd.installs}
	var zreads []sample
	type seenAnswer struct {
		shape int
		resp  any
	}
	seen := make(map[[2]uint64]seenAnswer)
	const hotShapes = 100
	zfailed, cachedDraws, hotDraws := 0, 0, 0
	next := time.Now()
	work := func(ctx context.Context) {
		if d := time.Until(next); d > 0 {
			time.Sleep(min(d, pollInterval))
			return
		}
		next = next.Add(time.Duration(float64(time.Second) / zipfRate))
		if late := time.Since(next); late > 0 {
			next = time.Now() // a closed loop never queues behind itself
		}
		i := z.next() // one query in ten is a uniformly drawn kNN
		if rng.Intn(10) == 0 {
			i = len(cachedShapes) + rng.Intn(len(knnShapes))
		} else {
			cachedDraws++
			if i < hotShapes {
				hotDraws++
			}
		}
		t := time.Now()
		resp, err := b.call(ctx, shapes[i])
		end := time.Now()
		zreads = append(zreads, sample{kindOf(shapes[i]), end.Sub(t), end})
		if err != nil {
			zfailed++
			return
		}
		fp, ok, err := answerFP(resp)
		if err != nil || !ok {
			zfailed++
			return
		}
		if key := [2]uint64{uint64(i), fp.sum ^ uint64(fp.n)}; seen[key].resp == nil {
			seen[key] = seenAnswer{shape: i, resp: resp}
		}
	}
	start := b.beginMain(p, li)
	st := b.live(ctx, rd, liveOpts{frames: live, rate: liveRate, send: send, probes: true, work: work})
	b.endMain(li, start)
	li.gen = summarize([]*stepStats{st})
	nq := len(zreads)
	li.queries = nq
	zl := make([]time.Duration, nq)
	for i, x := range zreads {
		zl[i] = x.d
	}
	li.headline = ms(pct(zl, 0.5))
	setAcks(r, st)
	setFresh(r, rd)
	setReads(r, zreads, start, li.mainDur)
	noteCache(r, li)

	setSubLag(r, rd)
	countFeed(r, st)
	countReads(r, rd)
	r.attempted += nq
	r.failed += zfailed

	// Oracle: in-run answers are subsets of the final state; after drain,
	// heartbeat and one cache TTL, a sample of shapes is exact.
	bad := 0
	for _, a := range seen {
		if !o.subsetOf(shapes[a.shape], a.resp) {
			bad++
		}
	}
	if bad > 0 {
		r.fail("%d of %d distinct in-run answers are not subsets of the oracle", bad, len(seen))
	}
	nseen := len(seen)
	// What the result cache had to hold: the encoded size of each asked
	// cacheable shape's largest in-run answer.
	size := make(map[int]int)
	for _, a := range seen {
		if a.shape < len(cachedShapes) {
			if enc, err := wire.Marshal(wire.KindOf(a.resp), a.resp); err == nil {
				size[a.shape] = max(size[a.shape], len(enc))
			}
		}
	}
	hotBytes, allBytes := 0, 0
	for i, n := range size {
		allBytes += n
		if i < hotShapes {
			hotBytes += n
		}
	}
	r.note("hot set: the %d most popular shapes took %.0f%% of the cacheable queries and hold %.1f MB; the run asked %d distinct cacheable shapes holding %.1f MB, against the cache's default 8 MiB",
		hotShapes, 100*ratio(hotDraws, cachedDraws), float64(hotBytes)/1e6, len(size), float64(allBytes)/1e6)
	// The heap is read with the subscribers still attached, after the
	// in-run answers and the reader's buffers are dropped.
	rd.release()
	r.set("heap_bytes_per_obs", float64(liveHeap()-heap0)/float64(b.resident()))
	rd.unsubscribe(ctx)
	if err := b.heartbeatAll(ctx); err != nil {
		return nil, err
	}
	time.Sleep(2*time.Second + 100*time.Millisecond) // serve.Options default CacheTTL, plus slack
	order := rng.Perm(len(shapes))
	exact := 0
	for _, i := range order[:min(200, len(order))] {
		resp, err := b.call(ctx, shapes[i])
		if err != nil {
			r.fail("post-drain %s: %v", kindOf(shapes[i]), err)
			continue
		}
		fp, _, err := answerFP(resp)
		if err != nil || fp != o.expect(shapes[i]) {
			if exact++; exact <= 5 {
				r.fail("post-drain %s shape %d: got %d, oracle %d", kindOf(shapes[i]), i, fp.n, o.expect(shapes[i]).n)
			}
		}
	}
	r.note("oracle: %d distinct in-run answers checked as subsets; %d post-drain shapes checked exactly", nseen, min(200, len(order)))
	all := append(append([]frame(nil), pre...), live...)
	if got := b.resident(); got != countObs(all) {
		r.fail("resident observations %d, ingested %d", got, countObs(all))
	}
	li.ingested, li.routes, li.stores = all, b.primaryRoutes(dep), b.stores()
	li.sample = historyQueries(rand.New(rand.NewSource(p.seed)), dep.world, feedStart, liveEnd, workerTargets(li.stores), 200)

	lad, err := ladder(ctx, b, ing, f.next(ladT), p.n(tailRungObs))
	if err != nil {
		return nil, err
	}
	setLadder(r, lad)
	return &measured{res: r, lay: li}, nil
}

var workloads = map[string]func(context.Context, params) (*measured, error){
	"ingest_stream": ingestStream,
	"history_query": historyQuery,
	"serve_mixed":   serveMixed,
}

func workloadNames() []string {
	var out []string
	for k := range workloads {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
