package main

// The wire plumbing the adhoc and ingest workloads share: an in-process
// server on loopback, client connections per window, and the embedded
// replay of a traced window's reads.

import (
	"fmt"
	"hash/fnv"
	"net"
	"time"

	"starmagic"
	"starmagic/internal/wire"
)

// server is an in-process wire server listening on loopback.
type server struct {
	srv  *wire.Server
	ln   net.Listener
	done chan error
}

func startServer(db *starmagic.DB) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: wire.NewServer(db, wire.Config{}), ln: ln, done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop closes the server and waits until Serve has returned.
func (s *server) stop() error {
	s.srv.Close()
	return <-s.done
}

// connect opens one wire connection per client. closeAll ends them and
// waits until the server has finished them, so that its per-connection
// counters are in Server.Metrics.
func (s *server) connect() (cls []*wire.Client, closeAll func(), err error) {
	var conns []net.Conn
	closeAll = func() {
		for i, cl := range cls {
			_ = cl.Quit()
			_ = conns[i].Close()
		}
		for deadline := time.Now().Add(5 * time.Second); s.srv.ActiveConns() > 0 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	}
	for c := 0; c < clients; c++ {
		nc, err := net.Dial("tcp", s.ln.Addr().String())
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		cl, err := wire.NewClient(nc, "", "")
		if err != nil {
			_ = nc.Close()
			closeAll()
			return nil, nil, err
		}
		conns = append(conns, nc)
		cls = append(cls, cl)
	}
	return cls, closeAll, nil
}

// wireCells renders a wire result as text cells.
func wireCells(rs *wire.Resultset) [][]string {
	out := make([][]string, len(rs.Rows))
	for i, r := range rs.Rows {
		out[i] = make([]string, len(r))
		for j, c := range r {
			if c.Valid {
				out[i][j] = c.Value
			} else {
				out[i][j] = "NULL"
			}
		}
	}
	return out
}

func textHash(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}

// repeatedShare is the share of requests whose text occurred before.
func repeatedShare(hashes [][]uint64) float64 {
	seen := map[uint64]bool{}
	total := 0
	for _, hs := range hashes {
		for _, h := range hs {
			seen[h] = true
			total++
		}
	}
	return ratio(float64(total-len(seen)), float64(total))
}

// wireInst is a database served by an in-process wire server.
type wireInst struct {
	db  *starmagic.DB
	srv *server
}

// window connects the clients into *cls, runs the closed loop for d and
// disconnects them.
func (w *wireInst) window(d time.Duration, cls *[]*wire.Client, step func(c int) (sample, error), res *result) (loopStats, error) {
	conns, closeAll, err := w.srv.connect()
	if err != nil {
		return loopStats{}, err
	}
	*cls = conns
	ls := closedLoop(d, step, res)
	closeAll()
	res.count(ls)
	return ls, nil
}

func (w *wireInst) close() {
	_ = w.srv.stop()
	_ = w.db.Close()
}

// literalFingerprints fingerprints the plans of the point shapes' literal
// forms, prepared through the plan cache as a text query would be.
func literalFingerprints(db *starmagic.DB, all map[string]*shape, ids []string) (map[string]string, error) {
	out := map[string]string{}
	for _, id := range ids {
		p, err := db.PrepareContext(bg, inline(all[id].Param, all[id].PaperArgs))
		if err != nil {
			return nil, fmt.Errorf("fingerprint %s: %w", id, err)
		}
		if out[id], err = planFingerprint(p, nil); err != nil {
			return nil, fmt.Errorf("fingerprint %s: %w", id, err)
		}
	}
	return out, nil
}

// replayRead prepares text embedded, as the wire server would, and executes
// it. The prepare is timed as engine.PrepareContext; when the plan cache
// had to optimize it cold, a second, traced prepare of the same text
// records the pipeline's stage spans.
func replayRead(db *starmagic.DB, id, text string, tr *recorder, a *acct) ([]starmagic.Row, time.Duration, error) {
	req := tr.newReq()
	root := tr.open("request."+id, 0, req)
	defer root.done()
	start := time.Now()
	p, err := db.PrepareContext(bg, text)
	prep := time.Since(start)
	tr.add("engine.PrepareContext", root.id(), req, start, start.Add(prep))
	if err != nil {
		return nil, 0, err
	}
	if p.Explain().CacheStatus == "miss" {
		t := tr.open("engine.PrepareContext.traced", root.id(), req)
		_, err := db.PrepareContext(bg, text, starmagic.WithTracer(engineTracer{rec: tr, parent: t.id(), req: req}))
		t.done()
		if err != nil {
			return nil, 0, err
		}
	}
	rows, dur, err := execRead(p, nil, id, tr, root.id(), req, a)
	return rows, prep + dur, err
}

// wireOverhead sets wire.overhead_us: the median wire round trip of a query
// minus the median embedded time (prepare, execute, drain) of the same
// requests.
func wireOverhead(res *result, tr *recorder, emb [][]float64) {
	var all []float64
	for _, e := range emb {
		all = append(all, e...)
	}
	rtt := tr.durations()["wire.query"]
	if len(rtt) > 0 && len(all) > 0 {
		res.set("wire.overhead_us", percentile(rtt, 0.5).Value-percentile(all, 0.5).Value)
	}
}

// replayCounts is how many requests each client replays: as many as it
// completed in the traced window, at most max.
func replayCounts(ls loopStats, max int) []int {
	out := make([]int, len(ls.PerClient))
	for i, n := range ls.PerClient {
		out[i] = min(n, max)
	}
	return out
}
