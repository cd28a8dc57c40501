package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/fivm"
	"repro/internal/serve"
	"repro/internal/value"
	"repro/internal/view"
)

// newServer opens an engine, bulk-loads it and starts an in-process
// serving pipeline with the default configuration over it.
func newServer(cfg fivm.Config, data map[string][]value.Tuple, tr *tracer) (*serve.Server, error) {
	eng, err := fivm.Open(cfg)
	if err != nil {
		return nil, err
	}
	if err := eng.Init(data); err != nil {
		return nil, err
	}
	var m serve.Maintainable = eng
	if tr != nil {
		m = tracedEngine{Maintainable: eng, t: tr}
	}
	return serve.New(m, serve.Config{})
}

// repeatSetup runs setup n times, keeps the last result, tears the
// others down, and returns the median set-up time in seconds. Each run
// starts after a forced collection, with no earlier run's result left
// reachable, so every run starts from the same heap and garbage left by
// earlier phases is not collected inside its time.
func repeatSetup[T any](n int, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var last T
	secs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, since(t0))
		if i < n-1 {
			teardown(v)
			continue
		}
		last = v
	}
	return last, newDist(secs).median(), nil
}

// ingest enqueues one batch, retrying after a short pause while
// admission control refuses it; each refusal counts as a failed
// operation. It returns the done channel of the accepted call.
func ingest(srv *serve.Server, ups []view.Update, tr *tracer, out *outcome, mu *sync.Mutex) (<-chan struct{}, error) {
	for {
		t0 := time.Now()
		done, err := srv.Ingest(ups)
		if tr != nil {
			tr.add(span{Name: "serve.ingest_call", Start: t0, End: time.Now(), N: int64(len(ups))})
		}
		mu.Lock()
		out.attempted++
		var oe *serve.OverloadError
		if errors.As(err, &oe) {
			out.failures["refused"]++
			mu.Unlock()
			time.Sleep(time.Millisecond)
			continue
		}
		mu.Unlock()
		return done, err
	}
}

// openLoop calls fn(i, due) for i = 0, 1, ... at rate calls per second
// from start until stop, one call at a time. Each call is timed from
// when it was due; lateness is how far behind schedule it started.
func openLoop(start, stop time.Time, rate float64, fn func(i int, due time.Time) error) (lat, late []float64, err error) {
	for i := 0; ; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if !due.Before(stop) {
			return lat, late, nil
		}
		time.Sleep(time.Until(due))
		late = append(late, float64(time.Since(due))/float64(time.Millisecond))
		if err := fn(i, due); err != nil {
			return lat, late, err
		}
		lat = append(lat, micros(time.Since(due)))
	}
}

// snapshotRestarts is how many times restoreServer restarts for
// recover_s. A restart's time swings by a collection cycle more or less,
// so the median is taken over five.
const snapshotRestarts = 5

// restoreServer persists a running server's engine through its
// snapshot codec and closes it, as a restarting process would, then
// restarts from that snapshot snapshotRestarts times: a fresh engine's
// ReadSnapshot plus serve.New. It returns the last restarted server and
// the median restart time in seconds.
func restoreServer(srv *serve.Server, cfg fivm.Config) (*serve.Server, float64, error) {
	var buf bytes.Buffer
	var werr error
	if err := srv.Sync(func(m serve.Maintainable) { werr = m.WriteSnapshot(&buf) }); err != nil {
		return nil, 0, err
	}
	if werr != nil {
		return nil, 0, fmt.Errorf("writing snapshot: %w", werr)
	}
	if err := srv.Close(); err != nil {
		return nil, 0, err
	}
	return repeatSetup(snapshotRestarts, func() (*serve.Server, error) {
		eng, err := fivm.Open(cfg)
		if err != nil {
			return nil, err
		}
		if err := eng.ReadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
			return nil, fmt.Errorf("restoring snapshot: %w", err)
		}
		return serve.New(eng, serve.Config{})
	}, func(s *serve.Server) { s.Close() })
}
