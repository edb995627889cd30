package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/serve"
)

const (
	serveClients = 2   // closed-loop client connections: a writer and a reader
	serveScale   = 0.1 // the server's workload scale
	warmProcs    = 2   // the warm set's processor count (the CI serve smoke's)
	coldProcs    = 4   // the cold set's, so no cold selection is ever warm
	// warmPerCold is a budget choice, not a model of real traffic: it
	// makes a pass (144 colds) last about 16 s on the reference host, so
	// two passes fit a 40 s run, and gives each pass some 36,000 writer
	// requests, so req_p99_ms rests on hundreds of tail samples.
	warmPerCold = 250
	sampleCold  = 6 // served cold selections re-run directly in verify
	sampleWarm  = 2 // warm selections re-run directly in verify
)

// coldSets are the scenario sets cold selections draw from; loss and
// partition drive the vnet fault layer and tmk's at-least-once RPC.
var coldSets = []string{"base", "page", "lat", "mtu", "loss", "partition"}

// response is a selection with the body the server answered.
type response struct {
	s    selection
	body []byte
}

// selection is one /v1/grid request.
type selection struct {
	sel   harness.Selection
	query string
}

func newSelection(sel harness.Selection) selection {
	q := url.Values{}
	q.Set("apps", strings.Join(sel.Apps, ","))
	q.Set("backends", strings.Join(sel.Backends, ","))
	q.Set("scenarios", strings.Join(sel.Scenarios, ","))
	var procs []string
	for _, n := range sel.NProcs {
		procs = append(procs, strconv.Itoa(n))
	}
	q.Set("nprocs", strings.Join(procs, ","))
	return selection{sel: sel, query: q.Encode()}
}

// serveMix drives an in-process serve.Server (memory store, cold-path
// pool of width 1, no dispatcher) over a loopback listener with two
// closed-loop clients.  Every pass starts on a fresh server whose store
// holds only the prefilled warm set: per app, the CI serve smoke's
// selection (tmk and pvm, base, P=2).  The writer client sends the
// cold set — one selection per (app, backend, scenario set) at P=4 —
// shuffled among warmPerCold warm repeats per cold one, while the
// reader client sends warm repeats until the writer is done.  The
// seed fixes the cold order, the interleave and the reader's choices,
// so every pass sends the writer's requests in the same order.
type serveMix struct {
	o           options
	scale       float64
	warm        []selection
	cold        []selection // the cold set in its seeded order
	warmPerCold int

	srv      *serve.Server
	hs       *http.Server
	done     chan struct{}
	base     string
	client   *http.Client
	warmBody [][]byte // the warm set's responses at prefill
	coldBody [][]byte // the last pass's cold responses, in cold-set order

	hits, miss int64 // store lookups of the traced pass
	computed   int64 // jobs the server computed in the traced pass
	verifyWall time.Duration
	verifyFrom int32
	verifyTo   int32
	verifyRecs []harness.Record
}

func newServeMix(o options) *serveMix {
	m := &serveMix{o: o, scale: o.scale, warmPerCold: warmPerCold}
	if m.scale == 0 {
		m.scale = serveScale
	}
	if o.warmPerCold > 0 {
		m.warmPerCold = o.warmPerCold
	}
	for _, app := range harness.Apps(m.scale) {
		m.warm = append(m.warm, newSelection(harness.Selection{Apps: []string{app.Name()},
			Backends: []string{"tmk", "pvm"}, Scenarios: []string{"base"}, NProcs: []int{warmProcs}}))
		for _, b := range []string{"tmk", "pvm"} {
			for _, set := range coldSets {
				m.cold = append(m.cold, newSelection(harness.Selection{Apps: []string{app.Name()},
					Backends: []string{b}, Scenarios: []string{set}, NProcs: []int{coldProcs}}))
			}
		}
	}
	rng := splitmix64(o.seed*0x9e3779b97f4a7c15 + 1)
	rng.shuffle(len(m.cold), func(a, b int) { m.cold[a], m.cold[b] = m.cold[b], m.cold[a] })
	if n := o.coldPerPass; n > 0 && n < len(m.cold) {
		m.cold = m.cold[:n]
	}
	return m
}

func (m *serveMix) setup() error {
	store, err := serve.NewStore(0, "")
	if err != nil {
		return err
	}
	m.srv = serve.New(serve.Options{Scale: m.scale, Workers: 1, Store: store})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	m.hs = &http.Server{Handler: m.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	m.done = make(chan struct{})
	go func(hs *http.Server, done chan struct{}) {
		defer close(done)
		hs.Serve(ln)
	}(m.hs, m.done)
	m.base = "http://" + ln.Addr().String() + "/v1/grid?"
	m.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: serveClients, DisableCompression: true},
		Timeout:   2 * time.Minute,
	}
	m.warmBody = m.warmBody[:0]
	for _, s := range m.warm {
		body, err := m.get(s.query)
		if err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
		m.warmBody = append(m.warmBody, body)
	}
	return nil
}

func (m *serveMix) close() {
	if m.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	m.hs.Shutdown(ctx)
	<-m.done
	m.client.CloseIdleConnections()
	m.hs = nil
}

// get sends one request and returns the body of a 200 response.
func (m *serveMix) get(query string) ([]byte, error) {
	resp, err := m.client.Get(m.base + query)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", query, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", query, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

func (m *serveMix) pass(tr *tracer, r *report) passResult {
	// The writer's list: warm selection indices, and -1-k for cold
	// selection k, in seeded order.
	rng := splitmix64(m.o.seed*0xbf58476d1ce4e5b9 + 1)
	ops := make([]int, 0, len(m.cold)*(m.warmPerCold+1))
	for k := range m.cold {
		ops = append(ops, -1-k)
		for j := 0; j < m.warmPerCold; j++ {
			ops = append(ops, rng.intn(len(m.warm)))
		}
	}
	rng.shuffle(len(ops), func(a, b int) { ops[a], ops[b] = ops[b], ops[a] })
	reader := splitmix64(rng.next())

	var p passResult
	var before serve.Stats
	if tr != nil {
		p.from = tr.next()
		before = m.srv.Stats()
	}
	m.coldBody = make([][]byte, len(m.cold))
	root := tr.begin("workload", 0, tr.newTrace())
	type clientLat struct{ ops, cold []time.Duration }
	var writer, read clientLat
	// send issues one request and records its latency.  Only the writer
	// sends cold requests, so only it writes m.coldBody.
	send := func(op int, l *clientLat) {
		name, query := "serve.request/warm", ""
		if op >= 0 {
			query = m.warm[op].query
		} else {
			name, query = "serve.request/cold", m.cold[-1-op].query
		}
		id := tr.begin(name, root, tr.newTrace())
		s := time.Now()
		body, err := m.get(query)
		d := time.Since(s)
		tr.end(id)
		l.ops = append(l.ops, d)
		switch {
		case err != nil:
		case op >= 0:
			if !bytes.Equal(body, m.warmBody[op]) {
				err = fmt.Errorf("warm response for %s differs from its cold bytes", query)
			}
		default:
			l.cold = append(l.cold, d)
			m.coldBody[-1-op] = body
		}
		r.op(err)
	}
	// The writer client sends the pass's list; the reader client sends
	// seeded warm requests until the writer is done, so at most one cold
	// request computes at a time and every one has a reader beside it.
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			send(reader.intn(len(m.warm)), &read)
		}
	}()
	t0 := time.Now()
	for _, op := range ops {
		send(op, &writer)
	}
	p.wall = time.Since(t0)
	done.Store(true)
	wg.Wait()
	tr.end(root)
	p.ops = append(writer.ops, read.ops...)
	p.cold = writer.cold
	if tr != nil {
		p.to = tr.next()
		after := m.srv.Stats()
		m.hits, m.miss = after.Hits-before.Hits, after.Misses-before.Misses
		m.computed = after.Computed - before.Computed
	}
	// The pass's outputs: the warm set's prefill bytes (computed afresh
	// in every set-up) and the cold responses in cold-set order.
	h := sha256.New()
	for _, body := range m.warmBody {
		h.Write(body)
	}
	for _, body := range m.coldBody {
		h.Write(body)
	}
	p.digest = hex.EncodeToString(h.Sum(nil))
	return p
}

// verify re-runs a seeded sample of served selections directly — seq
// first, then each job, App.Check after every parallel leg — and
// requires the served bytes to equal harness.WriteJSON of the records.
func (m *serveMix) verify(tr *tracer, r *report) {
	rng := splitmix64(m.o.seed*0x94d049bb133111eb + 1)
	idx := make([]int, len(m.cold))
	for k := range idx {
		idx[k] = k
	}
	rng.shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
	var picks []response
	for _, k := range idx[:min(sampleCold, len(idx))] {
		picks = append(picks, response{m.cold[k], m.coldBody[k]})
	}
	for i := 0; i < sampleWarm; i++ {
		k := rng.intn(len(m.warm))
		picks = append(picks, response{m.warm[k], m.warmBody[k]})
	}

	if tr != nil {
		m.verifyFrom = tr.next()
	}
	root := tr.begin("verify", 0, tr.newTrace())
	m.verifyRecs = nil
	t0 := time.Now()
	for _, pk := range picks {
		recs, err := runDirect(pk.s.sel, m.scale, tr, root)
		if err == nil {
			var buf bytes.Buffer
			if err = harness.WriteJSON(&buf, recs); err == nil && !bytes.Equal(buf.Bytes(), pk.body) {
				err = fmt.Errorf("served %s differs from harness.WriteJSON of a direct run", pk.s.query)
			}
		}
		r.op(err)
		m.verifyRecs = append(m.verifyRecs, recs...)
	}
	m.verifyWall = time.Since(t0)
	tr.end(root)
	if tr != nil {
		m.verifyTo = tr.next()
	}
}

// runDirect resolves a selection and runs its jobs without the server:
// each app's seq leg first (not part of the output), then the
// selection's jobs with App.Check after each.
func runDirect(sel harness.Selection, scale float64, tr *tracer, parent int32) ([]harness.Record, error) {
	g, err := sel.Resolve(scale)
	if err != nil {
		return nil, err
	}
	jobs, err := g.Jobs()
	if err != nil {
		return nil, err
	}
	seqDone := map[core.App]bool{}
	var recs []harness.Record
	for _, j := range jobs {
		if !seqDone[j.App] {
			seqDone[j.App] = true
			if _, err := runChecked(harness.Job{App: j.App, Backend: core.Seq, Scenario: core.Base(1)}, tr, parent); err != nil {
				return nil, err
			}
		}
		rec, err := runChecked(j, tr, parent)
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

func (m *serveMix) layers(tr *tracer, p passResult, r *report) {
	spanLayers(tr, m.verifyFrom, m.verifyTo, m.verifyWall, r)
	var recs []harness.Record
	for _, body := range m.coldBody {
		var rs []harness.Record
		if err := json.Unmarshal(body, &rs); err != nil {
			r.check(false, "decode served records: %v", err)
		}
		recs = append(recs, rs...)
	}
	recordLayers(recs, r)
	perDiffApplied(r, m.verifyRecs)
	lookups := m.hits + m.miss
	ratio := 0.0
	if lookups > 0 {
		ratio = float64(m.hits) / float64(lookups)
	}
	r.set("serve.hit_ratio", "ratio", ratio, int(lookups))
	r.set("serve.lookups", "count", float64(lookups), 1)
	r.set("serve.computed", "count", float64(m.computed), 1)
}
