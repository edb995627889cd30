package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/apps/barnes"
	"repro/internal/apps/ep"
	"repro/internal/apps/fft"
	"repro/internal/apps/ilink"
	"repro/internal/apps/is"
	"repro/internal/apps/qsort"
	"repro/internal/core"
	"repro/internal/harness"
)

// gridWorkload runs a fixed job list closed loop, one job at a time:
// per app the seq leg, then each parallel leg on the same instance,
// with App.Check after every parallel leg.  One pass over the list is
// one request.
type gridWorkload struct {
	build func() (harness.Grid, error)
	jobs  []harness.Job
	recs  []harness.Record // the traced pass's records
}

// newPaperP8 is the paper's own experiment: all twelve applications at
// paper scale on the base testbed at P=8.
func newPaperP8(o options) *gridWorkload {
	scale := o.scale
	if scale == 0 {
		scale = 1
	}
	return &gridWorkload{build: func() (harness.Grid, error) {
		return harness.Grid{
			Apps:      seededApps(harness.Apps(scale), paperInputs, o.seed),
			Backends:  core.StandardBackends(),
			Scenarios: []core.Scenario{core.Base(8)},
		}, nil
	}}
}

// newBigP256 is the large-P cell where the tmk pending-diff merge
// dominates: IS-Large and QSORT on the bigp scenario at P=256.
func newBigP256(o options) *gridWorkload {
	scale := o.scale
	if scale == 0 {
		scale = 1
	}
	return &gridWorkload{build: func() (harness.Grid, error) {
		big := harness.BigApps(scale)
		var apps []core.App
		for _, name := range []string{"IS-Large", "QSORT"} {
			app := harness.Find(big, name)
			if app == nil {
				return harness.Grid{}, fmt.Errorf("no %s in the bigp registry", name)
			}
			apps = append(apps, app)
		}
		scs, err := harness.ScenarioSet("bigp", []int{256})
		if err != nil {
			return harness.Grid{}, err
		}
		return harness.Grid{
			Apps:      seededApps(apps, bigInputs, o.seed),
			Backends:  core.StandardBackends(),
			Scenarios: scs,
		}, nil
	}}
}

func (w *gridWorkload) setup() error {
	g, err := w.build()
	if err != nil {
		return err
	}
	w.jobs, err = g.Jobs()
	return err
}

func (w *gridWorkload) close() {}

func (w *gridWorkload) pass(tr *tracer, r *report) passResult {
	var p passResult
	if tr != nil {
		p.from = tr.next()
	}
	root := tr.begin("workload", 0, tr.newTrace())
	recs := make([]harness.Record, 0, len(w.jobs))
	t0 := time.Now()
	for _, j := range w.jobs {
		rec, err := runChecked(j, tr, root)
		r.op(err)
		recs = append(recs, rec)
	}
	p.wall = time.Since(t0)
	// The request is the whole job list — what one /v1/grid request for
	// the workload's selection computes cold — so its latency is the
	// pass time.  Per-job times are in the traced run's spans.
	p.ops = []time.Duration{p.wall}
	p.cold = p.ops
	tr.end(root)
	if tr != nil {
		p.to = tr.next()
		w.recs = recs
	}
	p.digest = digest(recs)
	return p
}

// runChecked runs one job and, for a parallel leg, checks its output
// against the seq leg the same app instance ran before it.  Traced, it
// records Job.Run with the backend's Run inside it, then App.Check.
func runChecked(j harness.Job, tr *tracer, parent int32) (harness.Record, error) {
	baseline := core.IsBaseline(j.Backend)
	trace := tr.newTrace()
	id := tr.begin("Job.Run", parent, trace)
	if tr != nil {
		j.Backend = spanBackend{Backend: j.Backend, tr: tr, parent: id, trace: trace}
	}
	rec, err := j.Run()
	tr.end(id)
	if err != nil || baseline {
		return rec, err
	}
	id = tr.begin("App.Check", parent, trace)
	err = j.App.Check()
	tr.end(id)
	if err != nil {
		return rec, fmt.Errorf("%s/%s/%s n=%d: check: %w", rec.App, rec.Backend, rec.Scenario, rec.Procs, err)
	}
	return rec, nil
}

// spanBackend records a span named after the backend around its Run.
type spanBackend struct {
	core.Backend
	tr            *tracer
	parent, trace int32
}

func (b spanBackend) Run(app core.App, sc core.Scenario) (core.Result, error) {
	id := b.tr.begin("Backend.Run/"+b.Name(), b.parent, b.trace)
	defer b.tr.end(id)
	return b.Backend.Run(app, sc)
}

// digest is the SHA-256 of the records' harness.WriteJSON bytes.
func digest(recs []harness.Record) string {
	var buf bytes.Buffer
	if err := harness.WriteJSON(&buf, recs); err != nil {
		return "error: " + err.Error()
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

func (w *gridWorkload) verify(*tracer, *report) {}

func (w *gridWorkload) layers(tr *tracer, p passResult, r *report) {
	spanLayers(tr, p.from, p.to, p.wall, r)
	recordLayers(w.recs, r)
	perDiffApplied(r, w.recs)
	// The grid workloads never reach the service tier.
	r.set("serve.hit_ratio", "ratio", 0, 0)
	r.set("serve.lookups", "count", 0, 1)
	r.set("serve.computed", "count", 0, 1)
}

// spanLayers adds the host-time metrics of the spans in [from, to):
// per-backend Run time, Check time, and what they leave of wall.
func spanLayers(tr *tracer, from, to int32, wall time.Duration, r *report) {
	seq := tr.sum("Backend.Run/seq", from, to)
	tmk := tr.sum("Backend.Run/tmk", from, to)
	pvm := tr.sum("Backend.Run/pvm", from, to)
	check := tr.sum("App.Check", from, to)
	r.set("apps.seq_host_s", "s", seq.Seconds(), 1)
	r.set("apps.check_host_s", "s", check.Seconds(), 1)
	r.set("tmk.host_s", "s", tmk.Seconds(), 1)
	r.set("tmk.host_over_seq_s", "s", (tmk - seq).Seconds(), 1)
	r.set("pvm.host_s", "s", pvm.Seconds(), 1)
	r.set("harness.overhead_s", "s", (wall - seq - tmk - pvm - check).Seconds(), 1)
}

// recordLayers adds the modeled counts of the records: exact, so a
// pure performance change must leave every one of them identical.
func recordLayers(recs []harness.Record, r *report) {
	var faults, diffReq, diffs, timeouts int
	var diffBytes, lockNS, barrierNS, modelNS int64
	vn := map[string]*[4]int64{"tmk": {}, "pvm": {}}
	for _, rec := range recs {
		modelNS += rec.TimeNS
		if v := vn[rec.Backend]; v != nil {
			v[0] += rec.Messages
			v[1] += rec.Bytes
			v[2] += rec.Dropped
			v[3] += rec.Retrans
		}
		if rec.Backend != "tmk" {
			continue
		}
		faults += rec.Faults
		diffReq += rec.DiffRequests
		diffs += rec.DiffsApplied
		diffBytes += rec.DiffBytes
		timeouts += rec.Timeouts
		lockNS += rec.LockWaitNS
		barrierNS += rec.BarrierWaitNS
	}
	r.set("tmk.faults", "count", float64(faults), len(recs))
	r.set("tmk.diff_requests", "count", float64(diffReq), len(recs))
	r.set("tmk.diffs_applied", "count", float64(diffs), len(recs))
	r.set("tmk.diff_bytes", "bytes", float64(diffBytes), len(recs))
	r.set("tmk.timeouts", "count", float64(timeouts), len(recs))
	r.set("tmk.lock_wait_model_s", "s", float64(lockNS)/1e9, len(recs))
	r.set("tmk.barrier_wait_model_s", "s", float64(barrierNS)/1e9, len(recs))
	for _, b := range []string{"tmk", "pvm"} {
		v := vn[b]
		r.set("vnet."+b+"_messages", "count", float64(v[0]), len(recs))
		r.set("vnet."+b+"_bytes", "bytes", float64(v[1]), len(recs))
		r.set("vnet."+b+"_dropped", "count", float64(v[2]), len(recs))
		r.set("vnet."+b+"_retrans", "count", float64(v[3]), len(recs))
	}
	r.set("sim.model_s", "s", float64(modelNS)/1e9, len(recs))
}

// perDiffApplied divides the tmk host time already reported by the
// diffs the tmk records of the same runs applied.
func perDiffApplied(r *report, recs []harness.Record) {
	diffs := 0
	for _, rec := range recs {
		if rec.Backend == "tmk" {
			diffs += rec.DiffsApplied
		}
	}
	v := 0.0
	if diffs > 0 {
		v = r.metrics["tmk.host_s"].Value * 1e9 / float64(diffs)
	}
	r.set("tmk.host_ns_per_diff_applied", "ns", v, diffs)
}

// An input is an app package's public constructor for one registry
// entry, taking the offset added to the entry's input seed.
type input func(off uint64) core.App

// paperInputs rebuild the paper-scale registry entries whose inputs are
// seeded.  TSP is left out on purpose: its branch-and-bound search
// cost depends on the city layout (seq host time ranged 36 ms to 2.2 s
// over six seeds), so a seeded TSP would make wall_s measure the seed.
var paperInputs = map[string]input{
	"EP":         func(off uint64) core.App { c := ep.Paper(); c.Seed += off; return ep.NewApp(c) },
	"IS-Small":   func(off uint64) core.App { c := is.PaperSmall(); c.Seed += off; return is.NewApp(c) },
	"IS-Large":   func(off uint64) core.App { c := is.PaperLarge(); c.Seed += off; return is.NewApp(c) },
	"QSORT":      func(off uint64) core.App { c := qsort.Paper(); c.Seed += off; return qsort.NewApp(c) },
	"Barnes-Hut": func(off uint64) core.App { c := barnes.Paper(); c.Seed += off; return barnes.NewApp(c) },
	"3D-FFT":     func(off uint64) core.App { c := fft.Paper(); c.Seed += off; return fft.NewApp(c) },
	"ILINK":      func(off uint64) core.App { c := ilink.Paper(); c.Seed += off; return ilink.NewApp(c) },
}

// bigInputs rebuild the bigp registry entries.  IS-Large has none: its
// bigp entry clamps the key range below the threshold at which
// is.NewApp names an input IS-Large.
var bigInputs = map[string]input{
	"QSORT": func(off uint64) core.App {
		c := qsort.Paper()
		c.N, c.Threshold = 128*1024, 512
		c.Seed += off
		return qsort.NewApp(c)
	},
}

// seededApps offsets the input seed of each registry entry that inputs
// can rebuild with the same identity (name, figure and problem size; a
// rebuild that differs, as at a scale other than the input's, keeps the
// registry entry).  Offset 0 keeps the registry entries themselves.
func seededApps(apps []core.App, inputs map[string]input, off uint64) []core.App {
	if off == 0 {
		return apps
	}
	out := make([]core.App, len(apps))
	for i, app := range apps {
		out[i] = app
		build := inputs[app.Name()]
		if build == nil {
			continue
		}
		if a := build(off); a.Name() == app.Name() && a.Figure() == app.Figure() && a.Problem() == app.Problem() {
			out[i] = a
		}
	}
	return out
}
