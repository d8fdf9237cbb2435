package main

import (
	"bufio"
	"compress/gzip"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"stcam/internal/cluster"
	"stcam/internal/wire"
)

// span is one recorded interval at a transport boundary: a Call made by a
// node (call == true) or a request served by a node's handler. Spans of one
// request share the trace ID that rides every RPC context.
type span struct {
	trace      uint64
	kind       wire.MsgKind
	node       string // caller for a call span, serving address for a handler span
	peer       string // callee address (call spans only)
	call       bool
	root       bool  // a load-generator request (frame or query), parent of its calls
	start, end int64 // ns since the tracer was created
	n          int   // observations carried (ingest batches)
	bytes      int   // encoded request plus response size (call spans)
}

func (s span) dur() time.Duration { return time.Duration(s.end - s.start) }

// tracer is a cluster.Transport decorator that records spans in memory. Each
// node gets its own view (so call spans know their caller); all views share
// one inner transport and one span log. Recording is off until enable, so
// the untraced path costs one atomic load per call.
type tracer struct {
	inner cluster.Transport
	epoch time.Time
	on    atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newTracer(inner cluster.Transport) *tracer {
	return &tracer{inner: inner, epoch: time.Now()}
}

func (t *tracer) since() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the recorded spans and stops recording.
func (t *tracer) take() []span {
	t.on.Store(false)
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// view returns the transport a node with the given name uses.
func (t *tracer) view(node string) cluster.Transport { return &tracedView{t: t, node: node} }

type tracedView struct {
	t    *tracer
	node string
}

func batchSize(req any) int {
	if b, ok := req.(*wire.IngestBatch); ok {
		return len(b.Observations)
	}
	return 0
}

// Call implements cluster.Transport.
func (v *tracedView) Call(ctx context.Context, addr string, req any) (any, error) {
	if !v.t.on.Load() {
		return v.t.inner.Call(ctx, addr, req)
	}
	start := v.t.since()
	resp, err := v.t.inner.Call(ctx, addr, req)
	end := v.t.since()
	v.t.record(span{trace: cluster.TraceFrom(ctx), kind: wire.KindOf(req), node: v.node, peer: addr,
		call: true, start: start, end: end, n: batchSize(req), bytes: encodedSize(req) + encodedSize(resp)})
	return resp, err
}

// encodedSize is a message's wire size (0 for nil or an error).
func encodedSize(msg any) int {
	kind := wire.KindOf(msg)
	if kind == 0 {
		return 0
	}
	buf := wire.BorrowBuf()
	defer buf.Release()
	b, err := wire.AppendMarshal(buf.B[:0], kind, msg)
	if err != nil {
		return 0
	}
	buf.B = b
	return len(b)
}

// rootSpan runs fn as one load-generator request under a fresh trace ID,
// recording a root span when tracing is on.
func (t *tracer) rootSpan(ctx context.Context, kind wire.MsgKind, n int, fn func(context.Context) error) error {
	ctx = cluster.WithTrace(ctx, cluster.NewTraceID())
	if !t.on.Load() {
		return fn(ctx)
	}
	start := t.since()
	err := fn(ctx)
	t.record(span{trace: cluster.TraceFrom(ctx), kind: kind, node: clientNode, root: true, start: start, end: t.since(), n: n})
	return err
}

// Serve implements cluster.Transport, wrapping the handler in a span.
func (v *tracedView) Serve(addr string, h cluster.Handler) (cluster.Server, error) {
	return v.t.inner.Serve(addr, func(ctx context.Context, from string, req any) (any, error) {
		if !v.t.on.Load() {
			return h(ctx, from, req)
		}
		start := v.t.since()
		resp, err := h(ctx, from, req)
		v.t.record(span{trace: cluster.TraceFrom(ctx), kind: wire.KindOf(req), node: addr,
			start: start, end: v.t.since(), n: batchSize(req)})
		return resp, err
	})
}

// Stats implements cluster.Transport.
func (v *tracedView) Stats() cluster.TransportStats { return v.t.inner.Stats() }

// Close implements cluster.Transport. The shared inner transport is closed
// by the cluster owner, once.
func (v *tracedView) Close() error { return nil }

// --- self time -----------------------------------------------------------------

// selfTimes derives each span's self time: its duration minus the part of
// its interval covered by its child spans. A call's child is the handler
// span it reached (same trace, callee address, nested interval); a handler's
// children are the calls its node made for the same trace inside it.
func selfTimes(spans []span) []time.Duration {
	byTrace := make(map[uint64][]int)
	for i, s := range spans {
		if s.trace != 0 {
			byTrace[s.trace] = append(byTrace[s.trace], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
	}
	for _, idx := range byTrace {
		for _, i := range idx {
			p := spans[i]
			var kids [][2]int64
			for _, j := range idx {
				c := spans[j]
				if j == i || c.root || c.start < p.start || c.end > p.end {
					continue
				}
				switch {
				case p.root && c.call && c.node == clientNode,
					!p.root && p.call && !c.call && c.node == p.peer,
					!p.root && !p.call && c.call && c.node == p.node:
					kids = append(kids, [2]int64{c.start, c.end})
				}
			}
			self[i] = p.dur() - time.Duration(covered(kids))
		}
	}
	return self
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	cs, ce := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > ce {
			total += ce - cs
			cs, ce = x[0], x[1]
		} else if x[1] > ce {
			ce = x[1]
		}
	}
	return total + ce - cs
}

// writeSpans writes the span log as gzipped CSV under dir.
func writeSpans(dir, name string, spans []span, self []time.Duration) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "trace,kind,node,peer,call,root,start_ns,end_ns,self_ns,obs,bytes")
	for i, s := range spans {
		fmt.Fprintf(bw, "%016x,%v,%s,%s,%t,%t,%d,%d,%d,%d,%d\n", s.trace, s.kind, s.node, s.peer, s.call, s.root, s.start, s.end, int64(self[i]), s.n, s.bytes)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
