package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/fivm"
	"repro/internal/serve"
	"repro/internal/view"
	"repro/internal/wal"
)

// span is one timed call into a layer. Spans of one request share a
// trace ID (the write's batch ID on the wire); parent names the span
// that caused this one (0 for a root).
type span struct {
	ID     int64     `json:"id"`
	Parent int64     `json:"parent,omitempty"`
	Trace  string    `json:"trace,omitempty"`
	Name   string    `json:"name"`
	Rel    string    `json:"rel,omitempty"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	// N is the span's work count (updates or bytes, per span name).
	N int64 `json:"n,omitempty"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps every span in memory until the run ends. Untraced runs
// have a nil *tracer and install none of the wrappers below.
type tracer struct {
	mu    sync.Mutex
	spans []span
	// built maps a delta returned by BuildDelta to its build span, so
	// the ApplyBuilt of the same delta can name it as parent and the
	// queue wait between the two can be measured.
	built map[fivm.Delta]span
}

func newTracer() *tracer { return &tracer{built: make(map[fivm.Delta]span)} }

func (t *tracer) add(s span) int64 {
	t.mu.Lock()
	s.ID = int64(len(t.spans) + 1)
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

// named returns the spans called name, in record order.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// write saves every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// interval is a half-open time range.
type interval struct{ start, end time.Time }

// selfTime is d's duration minus the part of it that the children
// cover; overlapping children count once and the parts of children
// outside d do not count.
func selfTime(d interval, children []interval) time.Duration {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start.Before(d.start) {
			c.start = d.start
		}
		if c.end.After(d.end) {
			c.end = d.end
		}
		if c.end.After(c.start) {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start.Before(cs[j].start) })
	var covered time.Duration
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case c.start.After(cur.end):
			covered += cur.end.Sub(cur.start)
			cur = c
		case c.end.After(cur.end):
			cur.end = c.end
		}
	}
	if len(cs) > 0 {
		covered += cur.end.Sub(cur.start)
	}
	return d.end.Sub(d.start) - covered
}

// tracedEngine wraps the engine handed to serve.New and records the
// pipeline's calls into the fivm layer.
type tracedEngine struct {
	serve.Maintainable
	t *tracer
}

func (e tracedEngine) BuildDelta(rel string, ups []view.Update) (fivm.Delta, error) {
	t0 := time.Now()
	d, err := e.Maintainable.BuildDelta(rel, ups)
	s := span{Name: "fivm.build_delta", Rel: rel, Start: t0, End: time.Now(), N: int64(len(ups))}
	s.ID = e.t.add(s)
	if err == nil {
		e.t.mu.Lock()
		e.t.built[d] = s
		e.t.mu.Unlock()
	}
	return d, err
}

func (e tracedEngine) ApplyBuilt(rel string, d fivm.Delta) error {
	t0 := time.Now()
	err := e.Maintainable.ApplyBuilt(rel, d)
	end := time.Now()
	e.t.mu.Lock()
	b := e.t.built[d]
	delete(e.t.built, d)
	e.t.mu.Unlock()
	e.t.add(span{Name: "fivm.apply_built", Rel: rel, Parent: b.ID, Start: t0, End: end, N: b.N})
	if b.ID != 0 {
		e.t.add(span{Name: "serve.writer_queue_wait", Rel: rel, Parent: b.ID, Start: b.End, End: t0})
	}
	return err
}

func (e tracedEngine) PublishModel(prev fivm.Model) fivm.Model {
	t0 := time.Now()
	m := e.Maintainable.PublishModel(prev)
	e.t.add(span{Name: "fivm.publish_model", Start: t0, End: time.Now()})
	return m
}

// tracedFile wraps a WAL segment file and records its writes and
// syncs.
type tracedFile struct {
	wal.WriteFile
	t   *tracer
	rel string // the shard, named after its relation
}

func (f tracedFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := f.WriteFile.Write(p)
	f.t.add(span{Name: "wal.write", Rel: f.rel, Start: t0, End: time.Now(), N: int64(n)})
	return n, err
}

func (f tracedFile) Sync() error {
	t0 := time.Now()
	err := f.WriteFile.Sync()
	f.t.add(span{Name: "wal.sync", Rel: f.rel, Start: t0, End: time.Now()})
	return err
}

// openSegment is a wal.Config.OpenSegment that opens segments through
// the OS, as the default does, and traces them.
func (t *tracer) openSegment(path string) (wal.WriteFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return tracedFile{WriteFile: f, t: t, rel: filepath.Base(filepath.Dir(path))}, nil
}

// countingBody counts the request body bytes a handler reads.
type countingBody struct {
	io.ReadCloser
	n int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

// middleware records one span per request under prefix plus a route
// name, keyed by the X-Fivm-Batch-Id header, with the request body
// size as the span's work count.
func (t *tracer) middleware(prefix string, routes map[string]string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name, ok := routes[r.URL.Path]
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		body := &countingBody{ReadCloser: r.Body}
		r.Body = body
		t0 := time.Now()
		h.ServeHTTP(w, r)
		t.add(span{Name: prefix + name, Trace: r.Header.Get(serve.BatchIDHeader), Start: t0, End: time.Now(), N: body.n})
	})
}
