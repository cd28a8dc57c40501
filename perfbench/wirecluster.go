package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/fivm"
	"repro/fivm/client"
	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/value"
	"repro/internal/view"
	"repro/internal/wal"
)

const (
	clusterWorkers   = 2
	clusterClients   = 2
	clusterBatch     = 32 // updates per write
	clusterReadEvery = 20 // writes between model reads, per client
)

// worker is one WAL-backed serving process of the cluster, run
// in-process behind its own loopback HTTP listener.
type worker struct {
	dir string
	wal *wal.WAL
	srv *serve.Server
	hs  *http.Server
	url string
}

// clusterSetup is a router in front of its workers.
type clusterSetup struct {
	workers []*worker
	rt      *cluster.Router
	hs      *http.Server
	url     string
	once    sync.Once
}

// listen serves h on a fresh loopback port and returns the server and
// its base URL.
func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	go func() { _ = hs.Serve(ln) }() // returns http.ErrServerClosed on Close
	return hs, "http://" + ln.Addr().String(), nil
}

// startWorker boots a worker the way the serving daemon does on a cold
// start: open the WAL, bulk-load the engine, recover, start the
// pipeline and write the boot checkpoint.
func startWorker(dir string, cfg fivm.Config, data map[string][]value.Tuple, tr *tracer) (*worker, error) {
	wcfg := wal.Config{Dir: dir}
	if tr != nil {
		wcfg.OpenSegment = tr.openSegment
	}
	w, err := wal.Open(wcfg)
	if err != nil {
		return nil, err
	}
	eng, err := fivm.Open(cfg)
	if err != nil {
		w.Close()
		return nil, err
	}
	if err := eng.Init(data); err != nil {
		w.Close()
		return nil, err
	}
	if _, err := serve.Recover(eng, w); err != nil {
		w.Close()
		return nil, err
	}
	var m serve.Maintainable = eng
	if tr != nil {
		m = tracedEngine{Maintainable: eng, t: tr}
	}
	srv, err := serve.New(m, serve.Config{WAL: w})
	if err != nil {
		w.Close()
		return nil, err
	}
	wk := &worker{dir: dir, wal: w, srv: srv}
	if err := srv.Checkpoint(); err != nil {
		wk.close()
		return nil, err
	}
	var h http.Handler = serve.NewHandler(srv)
	if tr != nil {
		h = tr.middleware("http.", map[string]string{"/v1/update": "worker_update", "/v1/partial": "worker_partial"}, h)
	}
	if wk.hs, wk.url, err = listen(h); err != nil {
		wk.close()
		return nil, err
	}
	return wk, nil
}

func (w *worker) close() {
	if w.hs != nil {
		w.hs.Close()
	}
	w.srv.Close()
	w.wal.Close()
}

// startCluster boots the workers, each with its shard of the data, and
// a router over them, and waits until the router reports healthy.
func startCluster(dir string, cfg fivm.Config, shards []map[string][]value.Tuple, tr *tracer) (*clusterSetup, error) {
	cs := &clusterSetup{}
	urls := make([]string, len(shards))
	for i, data := range shards {
		w, err := startWorker(filepath.Join(dir, fmt.Sprintf("worker%d", i)), cfg, data, tr)
		if err != nil {
			cs.close()
			return nil, err
		}
		cs.workers = append(cs.workers, w)
		urls[i] = w.url
	}
	rt, err := cluster.New(cluster.Config{ShardURLs: urls, Engine: cfg, ShardBy: "Inventory"})
	if err != nil {
		cs.close()
		return nil, err
	}
	cs.rt = rt
	var h http.Handler = rt.Handler()
	if tr != nil {
		h = tr.middleware("cluster.", map[string]string{"/v1/update": "router_update", "/v1/model": "router_model"}, h)
	}
	if cs.hs, cs.url, err = listen(h); err != nil {
		cs.close()
		return nil, err
	}
	hl, err := client.New(cs.url).Healthz(context.Background())
	if err != nil || !hl.OK {
		cs.close()
		return nil, fmt.Errorf("router not healthy after start: %v %v", hl, err)
	}
	return cs, nil
}

func (cs *clusterSetup) close() {
	cs.once.Do(func() {
		if cs.hs != nil {
			cs.hs.Close()
		}
		if cs.rt != nil {
			cs.rt.Close()
		}
		for _, w := range cs.workers {
			w.close()
		}
	})
}

// splitShards partitions the Inventory rows with the cluster's shard
// map and gives every worker all rows of the other relations.
func splitShards(cfg fivm.Config, data map[string][]value.Tuple, n int) ([]map[string][]value.Tuple, error) {
	eng, err := fivm.Open(cfg)
	if err != nil {
		return nil, err
	}
	keyIdx, ok := eng.PartitionKey("Inventory")
	if !ok {
		return nil, errors.New("no partition key for Inventory")
	}
	smap := cluster.NewShardMap(n, "Inventory", keyIdx)
	out := make([]map[string][]value.Tuple, n)
	for i := range out {
		out[i] = map[string][]value.Tuple{}
	}
	for rel, ts := range data {
		if rel != "Inventory" {
			for i := range out {
				out[i][rel] = ts
			}
			continue
		}
		for _, t := range ts {
			o := smap.Owner(t)
			out[o][rel] = append(out[o][rel], t)
		}
	}
	return out, nil
}

// wireUpdates converts engine updates to the client's JSON form.
func wireUpdates(ups []view.Update) []client.Update {
	out := make([]client.Update, len(ups))
	for i, u := range ups {
		t := make([]any, len(u.Tuple))
		for j, v := range u.Tuple {
			switch v.Kind() {
			case value.KindInt:
				t[j] = v.Int()
			case value.KindFloat:
				t[j] = v.Float()
			default:
				t[j] = v.Str()
			}
		}
		out[i] = client.NewUpdate(u.Rel, u.Mult, t...)
	}
	return out
}

// failureClass names the failure-accounting bucket of a client error.
// A 4xx other than 429 is a fault of the benchmark itself and is not a
// countable failure.
func failureClass(err error) (string, bool) {
	var ae *client.APIError
	if !errors.As(err, &ae) {
		return "transport", true
	}
	switch {
	case ae.Status == http.StatusTooManyRequests:
		return "http_429", true
	case ae.Status == http.StatusServiceUnavailable:
		return "http_503", true
	case ae.Status >= 500:
		return "http_5xx", true
	}
	return "", false
}

// runWireCluster drives a router over two WAL-backed workers with two
// closed-loop HTTP clients, then restarts one worker from a copy of its
// WAL directory.
func runWireCluster(o options, tr *tracer) (*outcome, error) {
	ctx := context.Background()
	f := newFixture(o.seed, o.rows, o.window, mix{inventory: 1})
	cfg := fivm.Config{Relations: f.fspecs, Attrs: e2Attrs}
	init := f.initData()
	shards, err := splitShards(cfg, init, clusterWorkers)
	if err != nil {
		return nil, err
	}
	heap0 := liveHeap()
	setupN := 0
	cs, setup, err := repeatSetup(o.setups,
		func() (*clusterSetup, error) {
			setupN++
			return startCluster(filepath.Join(o.workDir, fmt.Sprintf("setup%d", setupN)), cfg, shards, tr)
		},
		func(cs *clusterSetup) { cs.close() })
	if err != nil {
		return nil, err
	}
	defer func() {
		if cs != nil {
			cs.close()
		}
	}()

	// Set-up garbage is collected here, not inside the measured phase.
	runtime.GC()
	out := &outcome{failures: map[string]int64{}, e2e: map[string]float64{"setup_s": setup}}
	c := &counters{writers: clusterWorkers, rt0: readRuntime()}
	for _, w := range cs.workers {
		c.srv0 = addStats(c.srv0, w.srv.Stats())
		c.wal0 += w.srv.WALStatus().AppendedBytes
	}
	if c.retries, err = routerRetries(ctx, cs.url); err != nil {
		return nil, err
	}
	var mu sync.Mutex // guards the stream, the outcome, reads and loadErr
	var l load
	var reads []float64
	var loadErr error
	start := time.Now()
	stop := start.Add(time.Duration(o.seconds * float64(time.Second)))
	cpu0 := cpuTime()

	// call runs one request and counts it. With retry set it repeats a
	// countable failure until the request succeeds; a write is repeated
	// with its batch ID, so the workers apply it once. The error is for
	// a failure the benchmark itself caused (a 4xx other than 429).
	call := func(retry bool, fn func() error) (bool, error) {
		for {
			err := fn()
			mu.Lock()
			out.attempted++
			if err == nil {
				mu.Unlock()
				return true, nil
			}
			class, countable := failureClass(err)
			if !countable {
				mu.Unlock()
				return false, err
			}
			out.failures[class]++
			mu.Unlock()
			if !retry {
				return false, nil
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	var wg sync.WaitGroup
	for k := 0; k < clusterClients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli := client.New(cs.url, client.WithRetries(0))
			for n := 1; time.Now().Before(stop); n++ {
				mu.Lock()
				ups := wireUpdates(f.stream.next(nil, clusterBatch))
				mu.Unlock()
				id := cli.NextBatchID()
				sent := time.Now()
				_, err := call(true, func() error {
					t0 := time.Now()
					_, err := cli.UpdateWithID(ctx, id, ups, true)
					if tr != nil {
						tr.add(span{Name: "client.update", Trace: id, Start: t0, End: time.Now(), N: int64(len(ups))})
					}
					return err
				})
				if err != nil {
					mu.Lock()
					loadErr = err
					mu.Unlock()
					return
				}
				l.record(len(ups), time.Since(sent))
				if n%clusterReadEvery != 0 {
					continue
				}
				t0 := time.Now()
				ok, err := call(false, func() error {
					_, err := cli.Model(ctx)
					return err
				})
				if err != nil {
					mu.Lock()
					loadErr = err
					mu.Unlock()
					return
				}
				if ok {
					mu.Lock()
					reads = append(reads, micros(time.Since(t0)))
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	end := time.Now()
	cpu1 := cpuTime()
	if loadErr != nil {
		return nil, fmt.Errorf("load: %w", loadErr)
	}
	c.start, c.end, c.rt1 = start, end, readRuntime()
	for _, w := range cs.workers {
		c.srv1 = addStats(c.srv1, w.srv.Stats())
		c.wal1 += w.srv.WALStatus().AppendedBytes
	}
	r1, err := routerRetries(ctx, cs.url)
	if err != nil {
		return nil, err
	}
	c.retries = r1 - c.retries
	heapEnd := liveHeap()
	runtime.KeepAlive(init)
	runtime.KeepAlive(shards)
	fillLoadMetrics(out, &l, start, end, cpu1-cpu0, reads, heap0, heapEnd)

	ck := checker{corrupt: o.corrupt}
	if err := checkAcked(ctx, cs.url, l.applied); err != nil {
		return nil, fmt.Errorf("correctness: %w", err)
	}
	merged, err := cs.rt.MergedModel(ctx)
	if err != nil {
		return nil, err
	}
	mp, ok := merged.(*fivm.CovarModel)
	if !ok || mp.Payload == nil {
		return nil, fmt.Errorf("merged model is %T, want a non-empty COVAR model", merged)
	}
	final := f.finalData()
	single, err := fivm.Open(cfg)
	if err != nil {
		return nil, err
	}
	if err := single.Init(final); err != nil {
		return nil, err
	}
	sp := single.(*fivm.CovarEngine).Payload()
	if sp == nil {
		return nil, errors.New("single engine over the final database has an empty result")
	}
	if err := ck.covar("router-merged model vs single engine", mp.Payload, sp); err != nil {
		return nil, fmt.Errorf("correctness: %w", err)
	}
	want, err := reeval(f, final, e2Attrs)
	if err != nil {
		return nil, err
	}
	if err := ck.covar("router-merged model vs re-evaluation", mp.Payload, want); err != nil {
		return nil, fmt.Errorf("correctness: %w", err)
	}

	// Restart worker 0 from what kill -9 would leave: copies of its WAL
	// directory taken while it runs. The cluster stops before the
	// restarts and is left unreachable, as the crashed process would be
	// gone.
	w0 := cs.workers[0]
	before, ok := w0.srv.Snapshot().Model.(*fivm.CovarModel)
	if !ok || before.Payload == nil {
		return nil, fmt.Errorf("worker model is %T, want a non-empty COVAR model", w0.srv.Snapshot().Model)
	}
	copies := make([]string, clusterRestarts)
	for i := range copies {
		copies[i] = fmt.Sprintf("%s-copy%d", w0.dir, i)
		if err := copyDir(w0.dir, copies[i]); err != nil {
			return nil, fmt.Errorf("copying WAL: %w", err)
		}
	}
	cs.close()
	cs = nil
	next := 0
	rec, recoverS, err := repeatSetup(clusterRestarts, func() (*recovered, error) {
		next++
		return recoverWorker(copies[next-1], cfg)
	}, func(r *recovered) { r.close() })
	if err != nil {
		return nil, err
	}
	defer rec.close()
	out.e2e["recover_s"] = recoverS
	c.replayed = rec.info.ReplayedUpdates
	rs := rec.srv
	after, ok := rs.Snapshot().Model.(*fivm.CovarModel)
	if !ok || after.Payload == nil {
		return nil, fmt.Errorf("recovered model is %T, want a non-empty COVAR model", rs.Snapshot().Model)
	}
	if err := ck.covar("recovered worker vs pre-restart worker", after.Payload, before.Payload); err != nil {
		return nil, fmt.Errorf("correctness: %w", err)
	}
	if tr != nil {
		out.layer = layerMetrics(tr, c)
		out.notef("the in-process ingest call, the ml reads and the open-loop lateness are not exercised on this workload: they read 0")
	}
	return out, nil
}

// clusterRestarts is how many times worker 0 restarts for recover_s.
// One restart replays the log of the whole measured phase, seconds of
// work, so it is not repeated.
const clusterRestarts = 1

// recovered is a worker restarted from a WAL directory.
type recovered struct {
	wal  *wal.WAL
	srv  *serve.Server
	info serve.RecoveryInfo
}

func (r *recovered) close() {
	r.srv.Close()
	r.wal.Close()
}

// recoverWorker restarts a worker from a WAL directory: open the log,
// restore the checkpoint and replay the log into a fresh engine, and
// start the pipeline.
func recoverWorker(dir string, cfg fivm.Config) (*recovered, error) {
	w, err := wal.Open(wal.Config{Dir: dir})
	if err != nil {
		return nil, err
	}
	eng, err := fivm.Open(cfg)
	if err != nil {
		w.Close()
		return nil, err
	}
	info, err := serve.Recover(eng, w)
	if err != nil {
		w.Close()
		return nil, err
	}
	srv, err := serve.New(eng, serve.Config{WAL: w})
	if err != nil {
		w.Close()
		return nil, err
	}
	return &recovered{wal: w, srv: srv, info: info}, nil
}

// routerRetries reads the router's per-shard retry counter from its
// Prometheus exposition.
func routerRetries(ctx context.Context, url string) (float64, error) {
	text, err := client.New(url).Metrics(ctx)
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "fivm_cluster_retries_total "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return 0, errors.New("router /metrics has no fivm_cluster_retries_total")
}

// checkAcked requires every worker to have applied exactly the updates
// the router had acknowledged to it, and the acknowledged updates to
// add up to what the clients were told was applied.
func checkAcked(ctx context.Context, url string, applied int64) error {
	st, err := client.New(url).Stats(ctx)
	if err != nil {
		return err
	}
	var workers []struct {
		ID      int    `json:"id"`
		OK      bool   `json:"ok"`
		Acked   uint64 `json:"acked_updates"`
		Applied uint64 `json:"applied_updates"`
	}
	if err := json.Unmarshal(st.Raw["workers"], &workers); err != nil {
		return fmt.Errorf("router stats: %w", err)
	}
	var acked uint64
	for _, w := range workers {
		if !w.OK || w.Acked != w.Applied {
			return fmt.Errorf("worker %d: ok=%v acked=%d applied=%d", w.ID, w.OK, w.Acked, w.Applied)
		}
		acked += w.Acked
	}
	if acked != uint64(applied) {
		return fmt.Errorf("workers acked %d updates, clients were acked %d", acked, applied)
	}
	return nil
}

// copyDir copies a directory tree of regular files.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if fi.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		outF, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(outF, in); err != nil {
			outF.Close()
			return err
		}
		return outF.Close()
	})
}
