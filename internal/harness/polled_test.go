package harness

import (
	"testing"

	"repro/internal/sim"
)

// TestGoldenGridNeverPolled proves the legacy polled wake path is dead
// code on the full golden grid: every blocking wait in the workloads,
// the protocol layers and the network registers with an indexed Source
// (WaitOn), so the engine's O(polled) repoll sweep never runs.  The
// counter is process-wide, so the test brackets a full grid and
// requires an exactly zero delta.
func TestGoldenGridNeverPolled(t *testing.T) {
	if testing.Short() {
		t.Skip("full golden grid in -short mode")
	}
	before := sim.PolledWaits()
	if _, err := goldenGrid(0).Run(); err != nil {
		t.Fatal(err)
	}
	if d := sim.PolledWaits() - before; d != 0 {
		t.Fatalf("golden grid took the polled wait path %d times; hot-path waits must carry a Source (WaitOn)", d)
	}
}
