package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/fivm"
	"repro/internal/serve"
)

// e2Attrs are the continuous attributes of the COVAR aggregate the
// firehose and wire-cluster engines maintain.
var e2Attrs = []string{"inventoryunits", "prize", "avghhi", "maxtemp", "medianage"}

const (
	firehoseBatch       = 1000 // updates per Ingest call
	firehoseOutstanding = 4    // Ingest calls in flight
	firehoseReadRate    = 20   // model reads per second
)

// runFirehose drives an in-process server over the COVAR engine with
// one closed-loop producer of 1000-update Ingest calls (98% Inventory,
// 1% each Item and Weather) and a light open-loop model reader.
func runFirehose(o options, tr *tracer) (*outcome, error) {
	f := newFixture(o.seed, o.rows, o.window, mix{inventory: 0.98, item: 0.01, weather: 0.01})
	cfg := fivm.Config{Relations: f.fspecs, Attrs: e2Attrs}
	init := f.initData()
	heap0 := liveHeap()
	srv, setup, err := repeatSetup(o.setups,
		func() (*serve.Server, error) { return newServer(cfg, init, tr) },
		func(s *serve.Server) { s.Close() })
	if err != nil {
		return nil, err
	}
	defer func() {
		if srv != nil {
			srv.Close()
		}
	}()

	// Set-up garbage is collected here, not inside the measured phase.
	runtime.GC()
	out := &outcome{failures: map[string]int64{}, e2e: map[string]float64{"setup_s": setup}}
	c := &counters{writers: 1, srv0: srv.Stats(), rt0: readRuntime()}
	var mu sync.Mutex
	var l load
	start := time.Now()
	stop := start.Add(time.Duration(o.seconds * float64(time.Second)))
	cpu0 := cpuTime()

	var reads []float64
	var readErr error
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		reads, c.late, readErr = openLoop(start, stop, firehoseReadRate, func(int, time.Time) error {
			_, err := srv.Snapshot().Model.ResultJSON()
			return err
		})
	}()

	sem := make(chan struct{}, firehoseOutstanding)
	var wg sync.WaitGroup
	for time.Now().Before(stop) {
		sem <- struct{}{}
		ups := f.stream.next(nil, firehoseBatch)
		sent := time.Now()
		done, err := ingest(srv, ups, tr, out, &mu)
		if err != nil {
			return nil, fmt.Errorf("ingest: %w", err)
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			<-done
			l.record(n, time.Since(sent))
			<-sem
		}(len(ups))
	}
	wg.Wait()
	end := time.Now()
	cpu1 := cpuTime()
	rwg.Wait()
	if readErr != nil {
		return nil, fmt.Errorf("model read: %w", readErr)
	}
	c.start, c.end, c.srv1, c.rt1 = start, end, srv.Stats(), readRuntime()
	heapEnd := liveHeap()
	runtime.KeepAlive(init)

	fillLoadMetrics(out, &l, start, end, cpu1-cpu0, reads, heap0, heapEnd)
	if tr != nil {
		out.layer = layerMetrics(tr, c)
		out.notef("no WAL, HTTP, router or ml reads on this workload: those layers read 0; loadgen.late is the model reader's")
	}

	ck := checker{corrupt: o.corrupt}
	served, ok := srv.Snapshot().Model.(*fivm.CovarModel)
	if !ok || served.Payload == nil {
		return nil, fmt.Errorf("served model is %T, want a non-empty COVAR model", srv.Snapshot().Model)
	}
	want, err := reeval(f, f.finalData(), e2Attrs)
	if err != nil {
		return nil, err
	}
	if err := ck.covar("served model vs re-evaluation", served.Payload, want); err != nil {
		return nil, fmt.Errorf("correctness: %w", err)
	}
	// The restarts run with the old server unreachable, as in a fresh
	// process.
	old := srv
	srv = nil
	re, recoverS, err := restoreServer(old, cfg)
	if err != nil {
		return nil, err
	}
	defer re.Close()
	out.e2e["recover_s"] = recoverS
	restored, ok := re.Snapshot().Model.(*fivm.CovarModel)
	if !ok || restored.Payload == nil {
		return nil, fmt.Errorf("restored model is %T, want a non-empty COVAR model", re.Snapshot().Model)
	}
	if err := ck.covar("restored model vs served model", restored.Payload, served.Payload); err != nil {
		return nil, fmt.Errorf("correctness: %w", err)
	}
	return out, nil
}

// fillLoadMetrics sets the load-phase end-to-end metrics shared by every
// workload.
func fillLoadMetrics(out *outcome, l *load, start, end time.Time, cpu time.Duration, reads []float64, heap0, heapEnd uint64) {
	fd, rd := newDist(l.fresh), newDist(reads)
	out.e2e["updates_per_s"] = float64(l.applied) / end.Sub(start).Seconds()
	out.e2e["cpu_us_per_update"] = cpuPerUpdate(0, cpu, l.applied)
	out.e2e["freshness_p50_ms"] = fd.median()
	out.e2e["freshness_p99_ms"], _ = fd.tail()
	out.e2e["read_p50_us"] = rd.median()
	out.e2e["read_p99_us"], _ = rd.tail()
	out.e2e["heap_mb"] = (float64(heapEnd) - float64(heap0)) / (1 << 20)
	out.notef("updates applied=%d in %.2fs; freshness %s; reads %s", l.applied, end.Sub(start).Seconds(), fd.describe("ms"), rd.describe("us"))
}
