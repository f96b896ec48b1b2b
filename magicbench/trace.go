package main

// Spans of the traced run. Each span has a name, a start and an end, the
// span that caused it and the request it belongs to. Spans are kept in
// memory and written out, gzipped JSON lines, when the run ends. The
// engine's own phase spans (parse, bind, phase1 ...) arrive through
// engineTracer, passed with WithTracer.

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"starmagic"
)

type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps the spans of one run.
type recorder struct {
	t0    time.Time
	ids   atomic.Int64
	reqs  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// newReq allocates a request id.
func (r *recorder) newReq() int64 { return r.reqs.Add(1) }

// open starts a span; close it with done.
func (r *recorder) open(name string, parent, req int64) openSpan {
	return openSpan{rec: r, s: span{ID: r.ids.Add(1), Parent: parent, Req: req, Name: name, Start: int64(time.Since(r.t0))}}
}

// add records a finished span with explicit bounds.
func (r *recorder) add(name string, parent, req int64, start, end time.Time) {
	s := span{ID: r.ids.Add(1), Parent: parent, Req: req, Name: name, Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0))}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

type openSpan struct {
	rec *recorder
	s   span
}

func (o openSpan) id() int64 { return o.s.ID }

func (o openSpan) done() {
	o.s.End = int64(time.Since(o.rec.t0))
	o.rec.mu.Lock()
	o.rec.spans = append(o.rec.spans, o.s)
	o.rec.mu.Unlock()
}

// engineTracer turns the engine's phase spans into spans of one request,
// children of the benchmark span around the traced call. The engine's
// "execute" span is dropped: execution is timed by the benchmark's own
// spans around ExecuteRows and Rows.Next.
type engineTracer struct {
	rec         *recorder
	parent, req int64
}

func (t engineTracer) StartSpan(name string) starmagic.Span {
	if name == "execute" {
		return nopSpan{}
	}
	return &engineSpan{o: t.rec.open(name, t.parent, t.req)}
}

type engineSpan struct{ o openSpan }

func (s *engineSpan) Annotate(string, string) {}
func (s *engineSpan) End()                    { s.o.done() }

type nopSpan struct{}

func (nopSpan) Annotate(string, string) {}
func (nopSpan) End()                    {}

// selfTimes returns, per span name, the self times in microseconds: each
// span's duration minus the part of it its children cover.
func (r *recorder) selfTimes() map[string][]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	kids := map[int64][]span{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string][]float64{}
	for _, s := range r.spans {
		covered := int64(0)
		if ks := kids[s.ID]; len(ks) > 0 {
			sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
			cur, curEnd := int64(-1), int64(-1)
			for _, k := range ks {
				start, end := max(k.Start, s.Start), min(k.End, s.End)
				if end <= start {
					continue
				}
				if start > curEnd {
					if curEnd > cur {
						covered += curEnd - cur
					}
					cur, curEnd = start, end
				} else if end > curEnd {
					curEnd = end
				}
			}
			if curEnd > cur {
				covered += curEnd - cur
			}
		}
		out[s.Name] = append(out[s.Name], float64(s.dur()-covered)/1e3)
	}
	return out
}

// durations returns, per span name, the wall durations in microseconds.
func (r *recorder) durations() map[string][]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string][]float64{}
	for _, s := range r.spans {
		out[s.Name] = append(out[s.Name], float64(s.dur())/1e3)
	}
	return out
}

func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// write dumps the spans as gzipped JSON lines to path.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	r.mu.Lock()
	for _, s := range r.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = zw.Close()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
