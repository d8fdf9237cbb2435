package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"stcam/internal/cluster"
	"stcam/internal/core"
	"stcam/internal/serve"
	"stcam/internal/wire"
)

const (
	numWorkers   = 4
	coordAddr    = "coord"
	hbInterval   = time.Second // stcamd -heartbeat default
	sweepEvery   = time.Second // stcamd -sweep default
	clientNode   = "client"
	workerAddrFm = "worker-%02d"
)

// bench is one running cluster: a coordinator and four workers over an
// in-process transport that round-trips every message through the wire
// codec, wired the way cmd/stcamd wires its nodes with default flags.
type bench struct {
	inner  *cluster.InProc
	tr     *tracer
	client cluster.Transport // the load generator's view of the transport
	coord  *core.Coordinator
	wks    []*core.Worker
	front  *serve.Frontend // nil unless the workload attaches the serving plane

	stopSweep chan struct{}
	sweepDone sync.WaitGroup
	hbStarted sync.WaitGroup // staggered heartbeat starts still pending
}

// startBench builds and starts the cluster, registers the deployment's
// cameras, and starts heartbeats and the liveness sweep.
func startBench(ctx context.Context, dep *deployment, withServe bool) (*bench, error) {
	inner := cluster.NewInProc(cluster.WithWireFormat())
	tr := newTracer(inner)
	b := &bench{inner: inner, tr: tr, client: tr.view(clientNode), stopSweep: make(chan struct{})}
	b.coord = core.NewCoordinator(coordAddr, tr.view(coordAddr), nil, core.Options{})
	if err := b.coord.Start(); err != nil {
		inner.Close()
		return nil, fmt.Errorf("start coordinator: %w", err)
	}
	for i := 1; i <= numWorkers; i++ {
		addr := fmt.Sprintf(workerAddrFm, i)
		w := core.NewWorker(wireNode(i), addr, coordAddr, tr.view(addr), core.Options{})
		if err := w.Start(ctx); err != nil {
			b.stop()
			return nil, fmt.Errorf("start worker %d: %w", i, err)
		}
		b.wks = append(b.wks, w)
	}
	if err := b.coord.AddCameras(ctx, dep.cams, routeSlack); err != nil {
		b.stop()
		return nil, fmt.Errorf("add cameras: %w", err)
	}
	// Workers heartbeat on staggered phases, as separately started stcamd
	// processes do; otherwise every sketch would refresh at the same
	// instant and freshness would hinge on one shared phase.
	for i, w := range b.wks {
		b.hbStarted.Add(1)
		go func(w *core.Worker, offset time.Duration) {
			defer b.hbStarted.Done()
			select {
			case <-time.After(offset):
				w.StartHeartbeats(hbInterval)
			case <-b.stopSweep:
			}
		}(w, time.Duration(i)*hbInterval/numWorkers)
	}
	b.sweepDone.Add(1)
	go func() {
		defer b.sweepDone.Done()
		t := time.NewTicker(sweepEvery)
		defer t.Stop()
		for {
			select {
			case now := <-t.C:
				b.coord.Sweep(context.Background(), now)
			case <-b.stopSweep:
				return
			}
		}
	}()
	if withServe {
		b.front = serve.New(b.coord, serve.Options{})
	}
	return b, nil
}

// stop shuts every node down and waits for their goroutines.
func (b *bench) stop() {
	select {
	case <-b.stopSweep:
	default:
		close(b.stopSweep)
	}
	b.sweepDone.Wait()
	b.hbStarted.Wait()
	for _, w := range b.wks {
		w.Stop()
	}
	b.coord.Stop()
	b.inner.Close()
}

// awaitHeartbeats returns once every worker's heartbeat loop is running.
func (b *bench) awaitHeartbeats() { b.hbStarted.Wait() }

// heartbeatAll pushes one heartbeat from every worker, so the coordinator's
// pruning sketches cover everything ingested so far.
func (b *bench) heartbeatAll(ctx context.Context) error {
	for _, w := range b.wks {
		if err := w.SendHeartbeat(ctx); err != nil {
			return fmt.Errorf("heartbeat %s: %w", w.ID(), err)
		}
	}
	return nil
}

// resident returns the observations held across all worker stores.
func (b *bench) resident() int {
	n := 0
	for _, w := range b.wks {
		n += w.Store().Len()
	}
	return n
}

// call sends one request from the load generator to the coordinator as one
// traced request.
func (b *bench) call(ctx context.Context, req any) (resp any, err error) {
	err = b.tr.rootSpan(ctx, wire.KindOf(req), batchSize(req), func(ctx context.Context) error {
		var cerr error
		resp, cerr = b.client.Call(ctx, coordAddr, req)
		return cerr
	})
	return resp, err
}

func wireNode(i int) wire.NodeID { return wire.NodeID(fmt.Sprintf("w%02d", i)) }

func errUnexpected(resp any) error { return fmt.Errorf("unexpected response %T", resp) }
