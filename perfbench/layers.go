package main

import (
	"runtime"
	"strings"
	"sync"
	"time"

	"stcam/internal/baseline"
	"stcam/internal/stindex"
	"stcam/internal/vision"
	"stcam/internal/wire"
)

// The per-layer metrics come from two sources: the traced main phase (span
// self times, call and byte counts, node counters) and standalone replays
// that time each layer's public functions on the run's own inputs.

// primaryStreams splits the ingested frames by owning worker, in order.
func primaryStreams(li *layerInputs) map[string][]vision.Detection {
	out := make(map[string][]vision.Detection)
	for _, f := range li.ingested {
		for _, d := range f.dets {
			addr := li.routes[uint32(d.Camera)]
			out[addr] = append(out[addr], d)
		}
	}
	return out
}

// replayVision feeds each worker's primary stream into a standalone
// Associator, two workers at a time, and returns the mean association time
// per observation and the mean final gallery size.
func replayVision(streams map[string][]vision.Detection) (usPerObs, gallery float64) {
	var (
		mu    sync.Mutex
		total time.Duration
		obs   int
		gsum  int
		wg    sync.WaitGroup
		sem   = make(chan struct{}, 2)
	)
	for _, dets := range streams {
		wg.Add(1)
		go func(dets []vision.Detection) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			a := vision.NewAssociator(0.75) // core.Options default AssocThreshold
			t := time.Now()
			for _, d := range dets {
				a.Associate(d.Feature)
			}
			el := time.Since(t)
			mu.Lock()
			total += el
			obs += len(dets)
			gsum += a.Gallery().Len()
			mu.Unlock()
		}(dets)
	}
	wg.Wait()
	if obs == 0 {
		return 0, 0
	}
	return us(total) / float64(obs), float64(gsum) / float64(len(streams))
}

// replayInsert builds standalone stores from the primary streams, returning
// insert time and live bytes per observation.
func replayInsert(streams map[string][]vision.Detection) (nsPerObs, bytesPerObs float64) {
	recs := make([][]stindex.Record, 0, len(streams))
	n := 0
	for _, dets := range streams {
		rs := make([]stindex.Record, len(dets))
		for i, d := range dets {
			rs[i] = stindex.Record{ObsID: d.ObsID, TargetID: d.TrueID, Camera: uint32(d.Camera), Pos: d.Pos, Time: d.Time}
		}
		recs = append(recs, rs)
		n += len(rs)
	}
	if n == 0 {
		return 0, 0
	}
	before := liveHeap()
	stores := make([]*stindex.Store, len(recs))
	t := time.Now()
	for i, rs := range recs {
		stores[i] = stindex.NewStore(stindex.Config{})
		for _, r := range rs {
			stores[i].Insert(r)
		}
	}
	el := time.Since(t)
	after := liveHeap()
	runtime.KeepAlive(stores)
	return float64(el.Nanoseconds()) / float64(n), float64(after-before) / float64(n)
}

// storeReplay times the workload's sample queries as the workers' store
// calls, on every worker store.
type storeReplay struct {
	lat         map[string][]time.Duration
	rangeTime   time.Duration
	rangeHits   int
	allocs      float64
	rangeResult []*wire.RangeResult // answers for the wire replay
}

func replayStores(stores []*stindex.Store, sample []any) storeReplay {
	sr := storeReplay{lat: make(map[string][]time.Duration)}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	calls := 0
	for _, q := range sample {
		for _, s := range stores {
			t := time.Now()
			switch m := q.(type) {
			case *wire.RangeQuery:
				rs := s.RangeQuery(m.Rect, m.Window.From, m.Window.To)
				el := time.Since(t)
				sr.rangeTime += el
				sr.rangeHits += len(rs)
				if len(rs) > 0 && len(sr.rangeResult) < 64 {
					rr := &wire.RangeResult{Records: make([]wire.ResultRecord, len(rs))}
					for i, r := range rs {
						rr.Records[i] = wire.ResultRecord{ObsID: r.ObsID, TargetID: r.TargetID, Camera: r.Camera, Pos: r.Pos, Time: r.Time}
					}
					sr.rangeResult = append(sr.rangeResult, rr)
				}
			case *wire.CountQuery:
				s.Count(m.Rect, m.Window.From, m.Window.To)
			case *wire.HeatmapQuery:
				s.Heatmap(m.Rect, m.Window.From, m.Window.To, m.CellSize, nil)
			case *wire.KNNQuery:
				s.KNNBounded(m.Center, m.Window.From, m.Window.To, m.K, 0, nil)
			case *wire.TrajectoryQuery:
				s.TargetHistory(m.TargetID, m.Window.From, m.Window.To)
			}
			sr.lat[kindOf(q)] = append(sr.lat[kindOf(q)], time.Since(t))
			calls++
		}
	}
	runtime.ReadMemStats(&m1)
	if calls > 0 {
		sr.allocs = float64(m1.Mallocs-m0.Mallocs) / float64(calls)
	}
	return sr
}

// wireReplay times the codec on the run's own ingest batches and range
// answers.
type wireReplay struct {
	ingEnc, ingDec, rngEnc, rngDec float64 // ns per observation or record
	bytesPerObs, allocsPerRT       float64
}

func replayWire(streams map[string][]vision.Detection, ranges []*wire.RangeResult) wireReplay {
	var wr wireReplay
	// Batches as the ingester coalesces them: one per worker per frame; a
	// frame is one camera, so a batch is a run of equal-camera detections.
	var batches []*wire.IngestBatch
	obs := 0
	for _, dets := range streams {
		for i := 0; i < len(dets) && obs < 50000; {
			j := i
			b := &wire.IngestBatch{Source: "bench", Seq: uint64(len(batches) + 1)}
			for ; j < len(dets) && dets[j].Camera == dets[i].Camera; j++ {
				d := dets[j]
				b.Observations = append(b.Observations, wire.Observation{ObsID: d.ObsID, Camera: uint32(d.Camera), Time: d.Time, Pos: d.Pos, Feature: d.Feature})
			}
			obs += j - i
			batches = append(batches, b)
			i = j
		}
	}
	if obs == 0 {
		return wr
	}
	enc := make([][]byte, len(batches))
	t := time.Now()
	var size int
	for i, b := range batches {
		body, err := wire.Marshal(wire.KindIngestBatch, b)
		if err != nil {
			panic(err) // well-formed by construction
		}
		enc[i] = body
		size += len(body)
	}
	wr.ingEnc = float64(time.Since(t).Nanoseconds()) / float64(obs)
	t = time.Now()
	for _, body := range enc {
		if _, err := wire.Unmarshal(wire.KindIngestBatch, body); err != nil {
			panic(err)
		}
	}
	wr.ingDec = float64(time.Since(t).Nanoseconds()) / float64(obs)
	wr.bytesPerObs = float64(size) / float64(obs)

	// Round trips as the in-process transport makes them: encode into a
	// pooled buffer, decode, release.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, b := range batches {
		buf := wire.BorrowBuf()
		body, err := wire.AppendMarshal(buf.B[:0], wire.KindIngestBatch, b)
		if err == nil {
			buf.B = body
			_, err = wire.Unmarshal(wire.KindIngestBatch, body)
		}
		buf.Release()
		if err != nil {
			panic(err)
		}
	}
	runtime.ReadMemStats(&m1)
	wr.allocsPerRT = float64(m1.Mallocs-m0.Mallocs) / float64(len(batches))

	recs := 0
	enc = enc[:0]
	t = time.Now()
	for _, rr := range ranges {
		body, err := wire.Marshal(wire.KindRangeResult, rr)
		if err != nil {
			panic(err)
		}
		enc = append(enc, body)
		recs += len(rr.Records)
	}
	if recs > 0 {
		wr.rngEnc = float64(time.Since(t).Nanoseconds()) / float64(recs)
		t = time.Now()
		for _, body := range enc {
			if _, err := wire.Unmarshal(wire.KindRangeResult, body); err != nil {
				panic(err)
			}
		}
		wr.rngDec = float64(time.Since(t).Nanoseconds()) / float64(recs)
	}
	return wr
}

// replayCentral times baseline.Central ingest, association included, on a
// prefix of the stream: the single-node reference.
func replayCentral(fs []frame) float64 {
	dets := allDets(fs)
	if len(dets) > 20000 {
		dets = dets[:20000]
	}
	c := baseline.NewCentral(baseline.CentralConfig{})
	t := time.Now()
	for i := 0; i < len(dets); i += 64 {
		c.Ingest(dets[i:min(i+64, len(dets))])
	}
	return float64(len(dets)) / time.Since(t).Seconds()
}

func isWorker(node string) bool { return strings.HasPrefix(node, "worker-") }

// computeLayers turns a traced pass into the per-layer metrics. untraced is
// the same workload's untraced pass, for tracing overhead and pool counts.
func computeLayers(r *result, li, untraced *layerInputs) {
	spans := li.spans
	self := selfTimes(spans)
	streams := primaryStreams(li)

	assocUS, gallery := replayVision(streams)
	insertNS, storeBytes := replayInsert(streams)
	sr := replayStores(li.stores, li.sample)
	wr := replayWire(streams, sr.rangeResult)
	r.set("vision.assoc_us_per_obs", assocUS)
	r.set("vision.gallery_size", gallery)
	r.set("stindex.insert_ns_per_obs", insertNS)
	r.set("stindex.bytes_per_obs", storeBytes)
	r.set("stindex.range_us", us(pct(sr.lat["range"], 0.5)))
	r.set("stindex.count_us", us(pct(sr.lat["count"], 0.5)))
	r.set("stindex.heatmap_us", us(pct(sr.lat["heatmap"], 0.5)))
	r.set("stindex.knn_us", us(pct(sr.lat["knn"], 0.5)))
	rangeNS := 0.0
	if sr.rangeHits > 0 {
		rangeNS = float64(sr.rangeTime.Nanoseconds()) / float64(sr.rangeHits)
	}
	r.set("stindex.range_ns_per_result", rangeNS)
	r.set("stindex.allocs_per_query", sr.allocs)
	r.set("wire.ingest_encode_ns_per_obs", wr.ingEnc)
	r.set("wire.ingest_decode_ns_per_obs", wr.ingDec)
	r.set("wire.range_encode_ns_per_rec", wr.rngEnc)
	r.set("wire.range_decode_ns_per_rec", wr.rngDec)
	r.set("wire.bytes_per_obs", wr.bytesPerObs)
	r.set("wire.allocs_per_roundtrip", wr.allocsPerRT)
	borrows := untraced.poolStats[1][0] - untraced.poolStats[0][0]
	misses := untraced.poolStats[1][1] - untraced.poolStats[0][1]
	missRatio := 0.0
	if borrows > 0 {
		missRatio = float64(misses) / float64(borrows)
	}
	r.set("wire.pool_miss_ratio", missRatio)

	// Span-derived numbers, grouped per trace root.
	roots := make(map[uint64]int)
	for i, s := range spans {
		if s.root {
			roots[s.trace] = i
		}
	}
	var (
		callSelf                     []time.Duration
		workerSelf                   = make(map[wire.MsgKind][]time.Duration)
		coordQuery, coordHB, hitSpan []time.Duration
		missSelf                     []time.Duration
		enqueue                      []time.Duration
		qCalls, qBytes, qRoots       int
		iCalls, iBytes, iObs, iRoots int
		frameCalls                   = make(map[uint64]int)
		firstCall                    = make(map[uint64]int64)
		ingestSelf                   time.Duration
		ingestObs                    int
		wireCluster, coordT, serveT  time.Duration
		stindexT                     time.Duration
		serveOn                      = li.coord[1].Counters["serve.cache.hits"]+li.coord[1].Counters["serve.cache.misses"] > li.coord[0].Counters["serve.cache.hits"]+li.coord[0].Counters["serve.cache.misses"]
	)
	for _, s := range spans {
		if s.root {
			if s.kind == wire.KindIngestBatch {
				iRoots++
				iObs += s.n
			} else if queryKinds[s.kind] != "" {
				qRoots++
			}
		}
	}
	for i, s := range spans {
		ri, rooted := roots[s.trace]
		rootKind := wire.MsgKind(0)
		if rooted {
			rootKind = spans[ri].kind
		}
		switch {
		case s.root:
		case s.call:
			callSelf = append(callSelf, self[i])
			wireCluster += self[i]
			if rootKind == wire.KindIngestBatch {
				iCalls++
				iBytes += s.bytes
				frameCalls[s.trace]++
				if f, ok := firstCall[s.trace]; !ok || s.start < f {
					firstCall[s.trace] = s.start
				}
			} else if queryKinds[rootKind] != "" {
				qCalls++
				qBytes += s.bytes
			}
		case isWorker(s.node):
			workerSelf[s.kind] = append(workerSelf[s.kind], self[i])
			if s.kind == wire.KindIngestBatch {
				ingestSelf += self[i]
				ingestObs += s.n
			}
			if name, ok := queryKinds[s.kind]; ok {
				stindexT += pct(sr.lat[name], 0.5)
			}
		case s.node == coordAddr:
			switch {
			case s.kind == wire.KindHeartbeat:
				coordHB = append(coordHB, s.dur())
				coordT += self[i]
			case serveOn && (s.kind == wire.KindPollUpdates || s.kind == wire.KindSubscribe):
				serveT += self[i]
			case queryKinds[s.kind] != "" && serveOn && self[i] == s.dur() && s.kind != wire.KindKNNQuery && s.kind != wire.KindTrajectoryQuery:
				hitSpan = append(hitSpan, s.dur())
				serveT += self[i]
			case queryKinds[s.kind] != "":
				coordQuery = append(coordQuery, self[i])
				if serveOn && s.kind != wire.KindKNNQuery && s.kind != wire.KindTrajectoryQuery {
					missSelf = append(missSelf, self[i])
				}
				coordT += self[i]
			default:
				coordT += self[i]
			}
		}
	}
	for tr, first := range firstCall {
		enqueue = append(enqueue, time.Duration(first-spans[roots[tr]].start))
	}
	r.set("cluster.call_self_us", us(pct(callSelf, 0.5)))
	r.set("cluster.calls_per_query", ratio(qCalls, qRoots))
	r.set("cluster.bytes_per_query", ratio(qBytes, qRoots))
	r.set("cluster.calls_per_obs", ratio(iCalls, iObs))
	r.set("cluster.bytes_per_obs", ratio(iBytes, iObs))

	r.set("worker.ingest_self_us", us(pct(workerSelf[wire.KindIngestBatch], 0.5)))
	other := 0.0
	if ingestObs > 0 {
		other = us(ingestSelf)/float64(ingestObs) - assocUS - insertNS/1000
	}
	r.set("worker.ingest_other_us_per_obs", other)
	r.set("worker.range_self_us", us(pct(workerSelf[wire.KindRangeQuery], 0.5)))
	r.set("worker.knn_self_us", us(pct(workerSelf[wire.KindKNNQuery], 0.5)))
	r.set("worker.count_self_us", us(pct(workerSelf[wire.KindCountQuery], 0.5)))
	r.set("worker.heatmap_self_us", us(pct(workerSelf[wire.KindHeatmapQuery], 0.5)))
	r.set("worker.trajectory_self_us", us(pct(workerSelf[wire.KindTrajectoryQuery], 0.5)))
	r.set("continuous.installed", float64(li.workers[1]["continuous.installed"]))

	r.set("ingester.backlog_max_frames", float64(li.gen.maxQueue))
	r.set("ingester.enqueue_us", us(pct(enqueue, 0.5)))
	rpcs := 0
	for _, n := range frameCalls {
		rpcs += n
	}
	r.set("ingester.rpcs_per_frame", ratio(rpcs, len(frameCalls)))

	delta := func(name string) int64 { return li.coord[1].Counters[name] - li.coord[0].Counters[name] }
	r.set("coord.query_self_us", us(pct(coordQuery, 0.5)))
	r.set("coord.asked_per_query", ratio(int(delta("scatter.asked")), li.queries))
	r.set("coord.pruned_per_query", ratio(int(delta("scatter.pruned")), li.queries))
	r.set("coord.answered_per_query", ratio(int(delta("scatter.answered")), li.queries))
	knnRoots := 0
	for _, s := range spans {
		if s.root && s.kind == wire.KindKNNQuery {
			knnRoots++
		}
	}
	r.set("coord.knn_rounds_per_query", ratio(int(delta("knn.rounds")), knnRoots))
	r.set("coord.heartbeat_us", us(pct(coordHB, 0.5)))
	r.set("summary.rebuilds", float64(li.workers[1]["summary.rebuilds"]-li.workers[0]["summary.rebuilds"]))

	hits, lookups := delta("serve.cache.hits"), delta("serve.cache.hits")+delta("serve.cache.misses")
	r.set("serve.cache_hit_ratio", ratio(int(hits), int(lookups)))
	r.set("serve.cache_lookups", float64(lookups))
	r.set("serve.cache_evicted", float64(delta("serve.cache.evicted")))
	r.set("serve.cache_bytes", float64(li.coord[1].Gauges["serve.cache.bytes"]))
	r.set("serve.intercept_hit_us", us(pct(hitSpan, 0.5)))
	r.set("serve.intercept_miss_us", us(pct(missSelf, 0.5)))
	var shed int64
	for name := range li.coord[1].Counters {
		if strings.HasPrefix(name, "serve.shed.") {
			shed += delta(name)
		}
	}
	r.set("serve.shed", float64(shed))
	r.set("serve.fanout_dedup", ratio(li.subs, li.installs))
	r.set("serve.dropped_updates", float64(delta("serve.fanout.dropped")))

	r.set("gen.late_p99_ms", ms(pct(li.gen.late, 0.99)))
	r.set("gen.offered_eps", float64(li.gen.offered)/li.mainDur.Seconds())
	r.set("baseline.central_eps", replayCentral(li.ingested))

	r.set("trace.spans", float64(len(spans)))
	overhead := 0.0
	if untraced.headline > 0 {
		overhead = 100 * (li.headline - untraced.headline) / untraced.headline
	}
	r.set("trace.overhead_pct", overhead)
	r.note("tracing overhead: headline latency %.3f ms traced vs %.3f ms untraced", li.headline, untraced.headline)

	// Shares of the busy time along the request path.
	var workerT time.Duration
	for _, xs := range workerSelf {
		for _, x := range xs {
			workerT += x
		}
	}
	visionT := time.Duration(assocUS * float64(ingestObs) * float64(time.Microsecond))
	stindexT += time.Duration(insertNS * float64(ingestObs))
	otherT := max(workerT-visionT-stindexT, 0)
	total := float64(visionT + stindexT + otherT + wireCluster + coordT + serveT)
	share := func(d time.Duration) float64 {
		if total == 0 {
			return 0
		}
		return 100 * float64(d) / total
	}
	r.set("share.vision_pct", share(visionT))
	r.set("share.stindex_pct", share(stindexT))
	r.set("share.wire_cluster_pct", share(wireCluster))
	r.set("share.worker_other_pct", share(otherT))
	r.set("share.coord_pct", share(coordT))
	r.set("share.serve_pct", share(serveT))
	verdict := "does not dominate"
	if share(visionT) > 50 {
		verdict = "dominates"
	}
	r.note("layer shares of request-path busy time: vision %.1f%%, stindex %.1f%%, wire+cluster %.1f%%, worker other %.1f%%, coordinator %.1f%%, serve %.1f%% — vision association %s",
		share(visionT), share(stindexT), share(wireCluster), share(otherT), share(coordT), share(serveT), verdict)
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
