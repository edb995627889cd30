package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"net/http/httptest"
	"time"

	"repro/internal/harness"
	"repro/internal/serve"
	"repro/internal/tmk"
)

// Layer probes: each drives one layer through its public functions on
// seeded inputs, verifies the result once, then times batches of calls
// and reports the median batch's time per call.

const probeBatches = 15

// sink keeps timed results alive so the compiler cannot drop the calls.
var sink int64

// timeBatches runs f(n) probeBatches times and returns the median time
// per call of one batch of n calls.
func timeBatches(n int, f func(n int)) time.Duration {
	per := make([]float64, probeBatches)
	for b := range per {
		t0 := time.Now()
		f(n)
		per[b] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return time.Duration(median(per))
}

// probes adds every probe metric to r, failing r on a wrong result.
func probes(o options, r *report) {
	rng := splitmix64(o.seed*0xd1b54a32d192ed03 + 7)
	for _, p := range []func(*splitmix64, *report) error{
		probeMakeDiff, probeVCGet, probeHarness, probeServe,
	} {
		r.op(p(&rng, r))
	}
}

// sorPages returns seeded twin/page pairs shaped like SOR's: rows of
// float64, with a red-black sweep rewriting every other element of a
// row (SOR-Nonzero) or only the band near the boundary (SOR-Zero).
func sorPages(rng *splitmix64, n int) (twins, pages [][]byte) {
	const words = 4096 / 8
	for i := 0; i < n; i++ {
		twin := make([]byte, 4096)
		for w := 0; w < words; w++ {
			binary.LittleEndian.PutUint64(twin[8*w:], math.Float64bits(float64(rng.next()%1000)/7))
		}
		page := bytes.Clone(twin)
		lo, hi := 0, words
		if i%2 == 1 { // boundary band only
			lo = rng.intn(words - 64)
			hi = lo + 64
		}
		for w := lo + (i/2)%2; w < hi; w += 2 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(page[8*w:]))
			binary.LittleEndian.PutUint64(page[8*w:], math.Float64bits(v*0.75+1.5))
		}
		twins, pages = append(twins, twin), append(pages, page)
	}
	return twins, pages
}

func probeMakeDiff(rng *splitmix64, r *report) error {
	twins, pages := sorPages(rng, 32)
	dst := make([]byte, 4096)
	for i := range twins {
		copy(dst, twins[i])
		tmk.MakeDiff(i, twins[i], pages[i]).Apply(dst)
		if !bytes.Equal(dst, pages[i]) {
			return fmt.Errorf("makediff probe: applying the diff of page %d to its twin does not give the page", i)
		}
	}
	d := timeBatches(len(twins)*8, func(n int) {
		for k := 0; k < n; k++ {
			i := k % len(twins)
			copy(dst, twins[i])
			tmk.MakeDiff(i, twins[i], pages[i]).Apply(dst)
		}
		sink += int64(dst[0])
	})
	r.set("tmk.makediff_ns_per_page", "ns", float64(d.Nanoseconds()), probeBatches)
	return nil
}

func probeVCGet(rng *splitmix64, r *report) error {
	const writers = 256
	v := tmk.NewVC(writers)
	want := make([]int32, writers)
	for p := range want {
		want[p] = int32(rng.intn(1000) + 1)
		v.SetMax(p, want[p])
	}
	order := make([]int, 4096)
	for i := range order {
		order[i] = rng.intn(writers)
	}
	for _, p := range order {
		if got := v.Get(p); got != want[p] {
			return fmt.Errorf("vc probe: Get(%d) = %d, want %d", p, got, want[p])
		}
	}
	d := timeBatches(len(order)*16, func(n int) {
		var s int32
		for k := 0; k < n; k++ {
			s += v.Get(order[k%len(order)])
		}
		sink += int64(s)
	})
	r.set("tmk.vc_get_ns_w256", "ns", float64(d.Nanoseconds()), probeBatches)
	return nil
}

// probeSelection is the selection the harness and serve probes use.
var probeSelection = harness.Selection{Apps: []string{"SOR-Zero", "EP"}, Backends: []string{"tmk", "pvm"},
	Scenarios: []string{"base", "page"}, NProcs: []int{2}}

func probeHarness(rng *splitmix64, r *report) error {
	g, err := probeSelection.Resolve(serveScale)
	if err != nil {
		return err
	}
	jobs, err := g.Jobs()
	if err != nil {
		return err
	}
	if len(jobs) != 24 {
		return fmt.Errorf("resolve probe: %d jobs, want 24", len(jobs))
	}
	hashes := make([]string, len(jobs))
	for i, j := range jobs {
		hashes[i] = harness.SpecHash(j)
		if len(hashes[i]) != 64 || harness.SpecHash(j) != hashes[i] {
			return fmt.Errorf("spechash probe: unstable hash for job %d", i)
		}
	}
	// WriteJSON over records of a direct run (one app: cheap).
	recs, err := runDirect(harness.Selection{Apps: []string{"EP"}, Backends: []string{"tmk", "pvm"},
		Scenarios: []string{"page"}, NProcs: []int{2}}, serveScale, nil, 0)
	if err != nil {
		return err
	}
	var first, buf bytes.Buffer
	if err := harness.WriteJSON(&first, recs); err != nil {
		return err
	}
	if err := harness.WriteJSON(&buf, recs); err != nil || !bytes.Equal(buf.Bytes(), first.Bytes()) {
		return fmt.Errorf("writejson probe: output not stable (%v)", err)
	}

	d := timeBatches(20, func(n int) {
		for k := 0; k < n; k++ {
			g, _ := probeSelection.Resolve(serveScale)
			sink += int64(len(g.Scenarios))
		}
	})
	r.set("harness.resolve_us", "us", float64(d.Nanoseconds())/1e3, probeBatches)
	d = timeBatches(len(jobs)*4, func(n int) {
		for k := 0; k < n; k++ {
			sink += int64(len(harness.SpecHash(jobs[k%len(jobs)])))
		}
	})
	r.set("harness.spechash_us", "us", float64(d.Nanoseconds())/1e3, probeBatches)
	d = timeBatches(50, func(n int) {
		for k := 0; k < n; k++ {
			buf.Reset()
			harness.WriteJSON(&buf, recs)
		}
		sink += int64(buf.Len())
	})
	r.set("harness.writejson_us", "us", float64(d.Nanoseconds())/1e3, probeBatches)
	return nil
}

func probeServe(rng *splitmix64, r *report) error {
	store, err := serve.NewStore(0, "")
	if err != nil {
		return err
	}
	srv := serve.New(serve.Options{Scale: serveScale, Workers: 1, Store: store})
	h := srv.Handler()
	sel := newSelection(probeSelection)
	target := "/v1/grid?" + sel.query
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
	if rec.Code != 200 {
		return fmt.Errorf("handler probe: cold status %d", rec.Code)
	}
	cold := rec.Body.Bytes()
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
	if rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), cold) {
		return fmt.Errorf("handler probe: warm response differs from the cold one")
	}

	g, err := probeSelection.Resolve(serveScale)
	if err != nil {
		return err
	}
	jobs, err := g.Jobs()
	if err != nil {
		return err
	}
	keys := make([]string, len(jobs))
	for i, j := range jobs {
		keys[i] = harness.SpecHash(j)
		if _, ok := store.Get(keys[i]); !ok {
			return fmt.Errorf("store probe: job %d missing after the cold request", i)
		}
	}
	order := make([]int, 256)
	for i := range order {
		order[i] = rng.intn(len(keys))
	}

	d := timeBatches(200, func(n int) {
		for k := 0; k < n; k++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
			sink += int64(rec.Body.Len())
		}
	})
	r.set("serve.handler_warm_us", "us", float64(d.Nanoseconds())/1e3, probeBatches)
	d = timeBatches(len(order)*8, func(n int) {
		for k := 0; k < n; k++ {
			rec, _ := store.Get(keys[order[k%len(order)]])
			sink += rec.TimeNS
		}
	})
	r.set("serve.store_get_us", "us", float64(d.Nanoseconds())/1e3, probeBatches)
	return nil
}
