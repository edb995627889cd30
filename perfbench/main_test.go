package main

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
)

// spec is the part of ../BENCHMARK.json the self-test checks against.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSelfTest runs every workload at a tiny scale, untraced and then
// traced, and requires every metric BENCHMARK.json names to be emitted
// with its unit and every check to pass.
func TestSelfTest(t *testing.T) {
	s := loadSpec(t)
	for _, w := range s.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			o := options{workload: w.Name, seed: 3, seconds: 0.001, scale: 0.02, out: t.TempDir(),
				coldPerPass: 8, warmPerCold: 10}
			if w.Name == "bigp-256" {
				o.scale = 0.001
			}
			for _, traced := range []bool{false, true} {
				o.trace = traced
				r, err := run(o)
				if err != nil {
					t.Fatal(err)
				}
				if r.failed != 0 || r.attempted == 0 {
					t.Fatalf("trace=%v: %d of %d operations failed: %v", traced, r.failed, r.attempted, r.failures)
				}
				want := s.EndToEnd
				if traced {
					want = s.PerLayer
				}
				for _, m := range want {
					got, ok := r.metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("trace=%v: metric %s = %+v (present %v), want unit %q", traced, m.Name, got, ok, m.Unit)
					}
				}
				if len(r.metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics emitted, BENCHMARK.json names %d", traced, len(r.metrics), len(want))
				}
				if traced && r.metrics["sim.polled_waits"].Value != 0 {
					t.Errorf("sim.polled_waits = %v, want 0", r.metrics["sim.polled_waits"].Value)
				}
			}
		})
	}
}

// TestSeededInputs pins which registry entries a nonzero seed rebuilds:
// every seeded paper-scale input but TSP's and Water's, and QSORT in
// the bigp set.
func TestSeededInputs(t *testing.T) {
	for _, tc := range []struct {
		apps    []core.App
		inputs  map[string]input
		rebuilt int
	}{
		{harness.Apps(1), paperInputs, 7},
		{harness.BigApps(1), bigInputs, 1},
	} {
		if got := seededApps(tc.apps, tc.inputs, 0); !same(got, tc.apps) {
			t.Errorf("seed 0 changed the registry entries")
		}
		got := seededApps(tc.apps, tc.inputs, 5)
		rebuilt := 0
		for i, a := range got {
			if a.Name() != tc.apps[i].Name() || a.Problem() != tc.apps[i].Problem() {
				t.Errorf("entry %d: %s (%s) replaced by %s (%s)", i, tc.apps[i].Name(), tc.apps[i].Problem(), a.Name(), a.Problem())
			}
			if a != tc.apps[i] {
				rebuilt++
			}
		}
		if rebuilt != tc.rebuilt {
			t.Errorf("%d entries rebuilt, want %d", rebuilt, tc.rebuilt)
		}
	}
}

func same(a, b []core.App) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return len(a) == len(b)
}
