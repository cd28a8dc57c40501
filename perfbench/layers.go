package main

import (
	"time"

	"repro/internal/serve"
)

// perLayer lists the traced run's metrics in report order. A metric of
// a layer the workload does not exercise reads 0, and the run log says
// why.
var perLayer = []struct{ name, unit string }{
	{"fivm.apply_built.busy_s", "s"},
	{"fivm.apply_built.p50_us", "us"},
	{"fivm.apply_built.p99_us", "us"},
	{"fivm.apply_built.dimension_busy_share", "ratio"},
	{"fivm.build_delta.busy_s", "s"},
	{"fivm.build_delta.p99_us", "us"},
	{"view.delta_tuples_per_update", "count"},
	{"runtime.mallocs_per_update", "count"},
	{"runtime.alloc_bytes_per_update", "B"},
	{"runtime.gc_cpu_share", "ratio"},
	{"fivm.publish_model.busy_s", "s"},
	{"fivm.publish_model.p50_us", "us"},
	{"fivm.publish_model.p99_us", "us"},
	{"serve.writer_busy_share", "ratio"},
	{"serve.writer_queue_wait.p50_us", "us"},
	{"serve.writer_queue_wait.p99_us", "us"},
	{"ml.predict.p50_us", "us"},
	{"ml.predict.p99_us", "us"},
	{"ml.select_features.p50_us", "us"},
	{"ml.select_features.p99_us", "us"},
	{"ml.chowliu.p50_us", "us"},
	{"ml.chowliu.p99_us", "us"},
	{"serve.ingest_call.p99_us", "us"},
	{"serve.coalesce_ratio", "ratio"},
	{"serve.updates_per_batch", "count"},
	{"serve.batches_per_publish", "count"},
	{"serve.shed_ratio", "ratio"},
	{"wal.write.busy_s", "s"},
	{"wal.write.p99_us", "us"},
	{"wal.sync.calls", "count"},
	{"wal.sync.p99_us", "us"},
	{"wal.bytes_per_update", "B"},
	{"http.worker_update.p50_us", "us"},
	{"http.worker_update.p99_us", "us"},
	{"http.worker_partial.p50_us", "us"},
	{"http.worker_partial.p99_us", "us"},
	{"http.request_bytes_per_update", "B"},
	{"cluster.router_update.self_p50_us", "us"},
	{"cluster.router_update.self_p99_us", "us"},
	{"cluster.router_model.self_busy_s", "s"},
	{"cluster.router_model.p99_us", "us"},
	{"cluster.shards_per_write", "count"},
	{"cluster.retries", "count"},
	{"client.overhead.p50_us", "us"},
	{"wal.recover.replayed_updates", "count"},
	{"loadgen.late.p99_ms", "ms"},
	{"loadgen.late.max_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
	{"freshness_p99_ms", "ms"},
	{"read_p99_us", "us"},
}

// counters are the before/after readings a traced run takes around its
// measured phase, summed over every serving pipeline it runs.
type counters struct {
	start, end time.Time
	writers    int // serving pipelines (one writer goroutine each)
	srv0, srv1 serve.Stats
	wal0, wal1 uint64 // WAL bytes appended
	rt0, rt1   rtSample
	retries    float64 // router per-shard retries
	replayed   uint64  // updates replayed by WAL recovery
	late       []float64
}

func addStats(a, b serve.Stats) serve.Stats {
	a.Ingested += b.Ingested
	a.Applied += b.Applied
	a.Batches += b.Batches
	a.DeltaTuples += b.DeltaTuples
	a.Snapshots += b.Snapshots
	a.Shed += b.Shed
	a.View.Updates += b.View.Updates
	a.View.DeltaTuples += b.View.DeltaTuples
	return a
}

// layerMetrics derives the per-layer metrics from the spans recorded
// inside the measured phase and the counter readings around it.
func layerMetrics(tr *tracer, c *counters) map[string]float64 {
	m := map[string]float64{}
	in := func(name string) []span {
		var out []span
		for _, s := range tr.named(name) {
			if !s.Start.Before(c.start) && !s.Start.After(c.end) {
				out = append(out, s)
			}
		}
		return out
	}
	durs := func(ss []span) dist {
		xs := make([]float64, len(ss))
		for i, s := range ss {
			xs[i] = micros(s.dur())
		}
		return newDist(xs)
	}
	p99 := func(d dist) float64 { v, _ := d.tail(); return v }
	applied := float64(c.srv1.Applied - c.srv0.Applied)
	elapsed := c.end.Sub(c.start).Seconds()

	apply := in("fivm.apply_built")
	ad := durs(apply)
	var dimBusy float64
	for _, s := range apply {
		if s.Rel != "Inventory" {
			dimBusy += micros(s.dur())
		}
	}
	m["fivm.apply_built.busy_s"] = ad.sum() / 1e6
	m["fivm.apply_built.p50_us"] = ad.median()
	m["fivm.apply_built.p99_us"] = p99(ad)
	m["fivm.apply_built.dimension_busy_share"] = ratio(dimBusy, ad.sum())
	bd := durs(in("fivm.build_delta"))
	m["fivm.build_delta.busy_s"] = bd.sum() / 1e6
	m["fivm.build_delta.p99_us"] = p99(bd)
	m["view.delta_tuples_per_update"] = ratio(float64(c.srv1.View.DeltaTuples-c.srv0.View.DeltaTuples), applied)
	m["runtime.mallocs_per_update"] = ratio(float64(c.rt1.mallocs-c.rt0.mallocs), applied)
	m["runtime.alloc_bytes_per_update"] = ratio(float64(c.rt1.allocBytes-c.rt0.allocBytes), applied)
	m["runtime.gc_cpu_share"] = ratio(c.rt1.gcCPU-c.rt0.gcCPU, c.rt1.totalCPU-c.rt0.totalCPU)

	pd := durs(in("fivm.publish_model"))
	m["fivm.publish_model.busy_s"] = pd.sum() / 1e6
	m["fivm.publish_model.p50_us"] = pd.median()
	m["fivm.publish_model.p99_us"] = p99(pd)
	m["serve.writer_busy_share"] = ratio((ad.sum()+pd.sum())/1e6, elapsed*float64(c.writers))
	qd := durs(in("serve.writer_queue_wait"))
	m["serve.writer_queue_wait.p50_us"] = qd.median()
	m["serve.writer_queue_wait.p99_us"] = p99(qd)

	for _, app := range []string{"predict", "select_features", "chowliu"} {
		d := durs(in("ml." + app))
		m["ml."+app+".p50_us"] = d.median()
		m["ml."+app+".p99_us"] = p99(d)
	}

	m["serve.ingest_call.p99_us"] = p99(durs(in("serve.ingest_call")))
	m["serve.coalesce_ratio"] = ratio(float64(c.srv1.DeltaTuples-c.srv0.DeltaTuples), applied)
	m["serve.updates_per_batch"] = ratio(applied, float64(c.srv1.Batches-c.srv0.Batches))
	m["serve.batches_per_publish"] = ratio(float64(c.srv1.Batches-c.srv0.Batches), float64(c.srv1.Snapshots-c.srv0.Snapshots))
	shed := float64(c.srv1.Shed - c.srv0.Shed)
	m["serve.shed_ratio"] = ratio(shed, float64(c.srv1.Ingested-c.srv0.Ingested)+shed)

	wd := durs(in("wal.write"))
	m["wal.write.busy_s"] = wd.sum() / 1e6
	m["wal.write.p99_us"] = p99(wd)
	sd := durs(in("wal.sync"))
	m["wal.sync.calls"] = float64(len(sd))
	m["wal.sync.p99_us"] = p99(sd)
	m["wal.bytes_per_update"] = ratio(float64(c.wal1-c.wal0), applied)

	wu := in("http.worker_update")
	wud := durs(wu)
	m["http.worker_update.p50_us"] = wud.median()
	m["http.worker_update.p99_us"] = p99(wud)
	wp := in("http.worker_partial")
	wpd := durs(wp)
	m["http.worker_partial.p50_us"] = wpd.median()
	m["http.worker_partial.p99_us"] = p99(wpd)
	var reqBytes float64
	byTrace := map[string][]interval{}
	for _, s := range wu {
		reqBytes += float64(s.N)
		byTrace[s.Trace] = append(byTrace[s.Trace], interval{s.Start, s.End})
	}
	m["http.request_bytes_per_update"] = ratio(reqBytes, applied)

	ru := in("cluster.router_update")
	routerDur := map[string]time.Duration{}
	var self []float64
	for _, s := range ru {
		self = append(self, micros(selfTime(interval{s.Start, s.End}, byTrace[s.Trace])))
		routerDur[s.Trace] += s.dur()
	}
	sdist := newDist(self)
	m["cluster.router_update.self_p50_us"] = sdist.median()
	m["cluster.router_update.self_p99_us"] = p99(sdist)
	// Partial fetches carry no batch ID: a model read's children are
	// the worker partial spans inside its interval.
	rm := in("cluster.router_model")
	partials := make([]interval, len(wp))
	for i, s := range wp {
		partials[i] = interval{s.Start, s.End}
	}
	var modelSelf time.Duration
	for _, s := range rm {
		modelSelf += selfTime(interval{s.Start, s.End}, partials)
	}
	m["cluster.router_model.self_busy_s"] = modelSelf.Seconds()
	m["cluster.router_model.p99_us"] = p99(durs(rm))
	m["cluster.shards_per_write"] = ratio(float64(len(wu)), float64(len(ru)))
	m["cluster.retries"] = c.retries
	var over []float64
	for _, s := range in("client.update") {
		if d, ok := routerDur[s.Trace]; ok {
			over = append(over, micros(s.dur()-d))
		}
	}
	m["client.overhead.p50_us"] = newDist(over).median()

	m["wal.recover.replayed_updates"] = float64(c.replayed)
	ld := newDist(c.late)
	m["loadgen.late.p99_ms"] = p99(ld)
	if len(ld) > 0 {
		m["loadgen.late.max_ms"] = ld[len(ld)-1]
	}
	return m
}
