package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/fivm"
	"repro/internal/ml"
	"repro/internal/serve"
	"repro/internal/value"
)

// liveFeatures is the analysis engine's feature set: four continuous
// attributes first (the ridge label among them), then three
// categorical ones.
var liveFeatures = []fivm.FeatureSpec{
	{Attr: "inventoryunits"},
	{Attr: "prize"},
	{Attr: "avghhi"},
	{Attr: "maxtemp"},
	{Attr: "subcategory", Categorical: true},
	{Attr: "category", Categorical: true},
	{Attr: "categoryCluster", Categorical: true},
}

const (
	liveContinuous = 4   // leading continuous features
	liveWriteRate  = 400 // updates per second
	liveBatch      = 20  // updates per Ingest call
	liveReadRate   = 30  // reads per second
)

// runLiveModels drives an in-process server over the analysis engine
// with open-loop writes at a fixed rate and open-loop reads that rotate
// through the three model applications on the latest snapshot.
func runLiveModels(o options, tr *tracer) (*outcome, error) {
	f := newFixture(o.seed, o.rows, o.window, mix{inventory: 1})
	cfg := fivm.Config{Relations: f.fspecs, Features: liveFeatures, Label: "inventoryunits"}
	init := f.initData()
	queries := predictQueries(f, o.seed, 64)
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

	var reads, readLate []float64
	var readErr error
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		reads, readLate, readErr = openLoop(start, stop, liveReadRate, func(i int, _ time.Time) error {
			return readApp(srv.Snapshot(), i, queries, tr)
		})
	}()

	var wg sync.WaitGroup
	_, writeLate, err := openLoop(start, stop, liveWriteRate/liveBatch, func(_ int, due time.Time) error {
		ups := f.stream.next(nil, liveBatch)
		done, err := ingest(srv, ups, tr, out, &mu)
		if err != nil {
			return fmt.Errorf("ingest: %w", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-done
			l.record(len(ups), time.Since(due))
		}()
		return nil
	})
	if err != nil {
		return nil, err
	}
	wg.Wait()
	end := time.Now()
	cpu1 := cpuTime()
	rwg.Wait()
	if readErr != nil {
		return nil, fmt.Errorf("model read: %w", readErr)
	}
	c.start, c.end, c.srv1, c.rt1 = start, end, srv.Stats(), readRuntime()
	c.late = append(writeLate, readLate...)
	heapEnd := liveHeap()
	runtime.KeepAlive(init)

	fillLoadMetrics(out, &l, start, end, cpu1-cpu0, reads, heap0, heapEnd)
	late := newDist(c.late)
	out.notef("open-loop generator lateness %s (max %.3gms)", late.describe("ms"), late[len(late)-1])
	if tr != nil {
		out.layer = layerMetrics(tr, c)
		out.notef("no WAL, HTTP or router on this workload: those layers read 0")
	}

	ck := checker{corrupt: o.corrupt}
	served, ok := srv.Snapshot().Model.(*fivm.AnalysisModel)
	if !ok || served.Payload == nil {
		return nil, fmt.Errorf("served model is %T, want a non-empty analysis model", srv.Snapshot().Model)
	}
	if served.FitErr != "" {
		return nil, fmt.Errorf("served ridge model failed to fit: %s", served.FitErr)
	}
	final := f.finalData()
	attrs := make([]string, liveContinuous)
	for i := range attrs {
		attrs[i] = liveFeatures[i].Attr
	}
	want, err := reeval(f, final, attrs)
	if err != nil {
		return nil, err
	}
	if err := ck.covar("served continuous block vs re-evaluation", continuousBlock{served.Payload, liveContinuous}, want); err != nil {
		return nil, fmt.Errorf("correctness: %w", err)
	}
	bulk, err := fivm.Open(cfg)
	if err != nil {
		return nil, err
	}
	if err := bulk.Init(final); err != nil {
		return nil, err
	}
	if err := ck.relCovar("served payload vs bulk load", served.Payload, bulk.(*fivm.Analysis).Payload()); err != nil {
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
	restored, ok := re.Snapshot().Model.(*fivm.AnalysisModel)
	if !ok || restored.Payload == nil {
		return nil, fmt.Errorf("restored model is %T, want a non-empty analysis model", re.Snapshot().Model)
	}
	if err := ck.relCovar("restored payload vs served payload", restored.Payload, served.Payload); err != nil {
		return nil, fmt.Errorf("correctness: %w", err)
	}
	return out, nil
}

// readApp runs read i on a snapshot: ridge prediction, model selection
// or a Chow-Liu tree, in rotation. Mutual information needs categorical
// features, so the two MI applications run over the categorical block.
func readApp(snap *serve.Snapshot, i int, queries []map[string]value.Value, tr *tracer) error {
	m, ok := snap.Model.(*fivm.AnalysisModel)
	if !ok {
		return fmt.Errorf("snapshot model is %T, want an analysis model", snap.Model)
	}
	t0 := time.Now()
	var name string
	switch i % 3 {
	case 0:
		name = "ml.predict"
		y, err := m.Predict(queries[i/3%len(queries)])
		if err != nil {
			return err
		}
		if math.IsNaN(y) || math.IsInf(y, 0) {
			return fmt.Errorf("prediction %v", y)
		}
	case 1:
		name = "ml.select_features"
		mi, err := ml.MIFromRelCovar(m.Payload, m.Features[liveContinuous:])
		if err != nil {
			return err
		}
		if _, _, err := ml.SelectFeatures(mi, "categoryCluster", 0.01); err != nil {
			return err
		}
	default:
		name = "ml.chowliu"
		mi, err := ml.MIFromRelCovar(m.Payload, m.Features[liveContinuous:])
		if err != nil {
			return err
		}
		if _, err := ml.ChowLiu(mi, "subcategory"); err != nil {
			return err
		}
	}
	if tr != nil {
		tr.add(span{Name: name, Start: t0, End: time.Now()})
	}
	return nil
}

// predictQueries builds n feature vectors for ridge predictions from
// random rows of the dimension tables.
func predictQueries(f *fixture, seed int64, n int) []map[string]value.Value {
	rng := rand.New(rand.NewSource(seed ^ 0x9e37))
	item, _ := f.db.Relation("Item")
	loc, _ := f.db.Relation("Location")
	wea, _ := f.db.Relation("Weather")
	qs := make([]map[string]value.Value, n)
	for i := range qs {
		it := item.Tuples[rng.Intn(len(item.Tuples))]
		l := loc.Tuples[rng.Intn(len(loc.Tuples))]
		w := wea.Tuples[rng.Intn(len(wea.Tuples))]
		qs[i] = map[string]value.Value{
			"prize": it[4], "subcategory": it[1], "category": it[2], "categoryCluster": it[3],
			"avghhi": l[6], "maxtemp": w[4],
		}
	}
	return qs
}
