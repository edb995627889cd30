package vnet

import (
	"testing"

	"repro/internal/sim"
)

// faultPattern runs one lossy datagram exchange — 200 sends from node 0
// to node 1 — and returns the wire stats plus the delivered arrival
// sequence, the observable fingerprint of the fault pattern.
func faultPattern(t *testing.T, fc FaultConfig) (Stats, []sim.Time) {
	t.Helper()
	cfg := testConfig()
	cfg.Faults = fc
	n := New(cfg)
	e := sim.NewEngine()
	a := n.NewEndpoint(0, true)
	b := n.NewEndpoint(1, true)
	e.Spawn("a", false, func(c *sim.Ctx) {
		for i := 0; i < 200; i++ {
			a.Send(c, b, 5, make([]byte, 100))
		}
	})
	var arrivals []sim.Time
	e.Spawn("b", false, func(c *sim.Ctx) {
		for {
			m := b.RecvDeadline(c, -1, 5, c.Now()+sim.Second)
			if m == nil {
				return
			}
			arrivals = append(arrivals, m.Arrival)
			b.Free(m)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return n.WireStats(), arrivals
}

func TestFaultSeededDeterminism(t *testing.T) {
	fc := FaultConfig{
		Seed:    42,
		Loss:    0.2,
		Dup:     0.1,
		Reorder: 0.15,
		Jitter:  30 * sim.Microsecond,
	}
	st1, arr1 := faultPattern(t, fc)
	st2, arr2 := faultPattern(t, fc)
	if st1 != st2 {
		t.Fatalf("same seed, different stats: %+v vs %+v", st1, st2)
	}
	if len(arr1) != len(arr2) {
		t.Fatalf("same seed, different delivery counts: %d vs %d", len(arr1), len(arr2))
	}
	for i := range arr1 {
		if arr1[i] != arr2[i] {
			t.Fatalf("same seed, arrival %d differs: %v vs %v", i, arr1[i], arr2[i])
		}
	}
	// The pattern actually exercised every knob.
	if st1.Dropped == 0 || st1.Retrans == 0 {
		t.Fatalf("fault knobs inert: %+v", st1)
	}
	// Accounting is disjoint: every first transmission is either
	// delivered (Messages) or killed (Dropped); duplicates are Retrans.
	if st1.Messages+st1.Dropped != 200 {
		t.Fatalf("messages %d + dropped %d != 200 sends", st1.Messages, st1.Dropped)
	}
	if int64(len(arr1)) != st1.Messages+st1.Retrans {
		t.Fatalf("delivered %d, want Messages+Retrans = %d", len(arr1), st1.Messages+st1.Retrans)
	}

	fc.Seed = 43
	st3, _ := faultPattern(t, fc)
	if st1 == st3 {
		t.Fatalf("different seeds produced identical stats %+v", st1)
	}
}

func TestDuplicationCountsRetrans(t *testing.T) {
	st, arrivals := faultPattern(t, FaultConfig{Seed: 7, Dup: 0.999999})
	if st.Dropped != 0 {
		t.Fatalf("dropped = %d with no loss", st.Dropped)
	}
	if st.Messages != 200 {
		t.Fatalf("messages = %d, want 200", st.Messages)
	}
	if st.Retrans != 200 {
		t.Fatalf("retrans = %d, want 200 duplicate deliveries", st.Retrans)
	}
	if len(arrivals) != 400 {
		t.Fatalf("delivered = %d, want 400", len(arrivals))
	}
	// Bytes counts first transmissions only.
	if st.Bytes != 200*(100+40) {
		t.Fatalf("bytes = %d, want %d", st.Bytes, 200*(100+40))
	}
}

func TestPartitionWindow(t *testing.T) {
	cfg := testConfig()
	cfg.Faults = FaultConfig{
		Partitions: []Partition{{Start: 1 * sim.Millisecond, Heal: 2 * sim.Millisecond, Nodes: []int{1}}},
	}
	n := New(cfg)
	e := sim.NewEngine()
	a := n.NewEndpoint(0, true)
	b := n.NewEndpoint(1, true)
	e.Spawn("a", false, func(c *sim.Ctx) {
		a.Send(c, b, 1, make([]byte, 100)) // before the window: delivered
		c.Compute(1200 * sim.Microsecond)  // inside [1ms, 2ms)
		a.Send(c, b, 1, make([]byte, 100)) // severed: dropped
		c.Compute(1 * sim.Millisecond)     // past the heal
		a.Send(c, b, 1, make([]byte, 100)) // healed: delivered
	})
	e.Spawn("b", false, func(c *sim.Ctx) {
		for i := 0; i < 2; i++ {
			b.Free(b.Recv(c, 0, 1))
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := n.WireStats()
	if st.Messages != 2 || st.Dropped != 1 {
		t.Fatalf("stats = %+v, want 2 delivered / 1 dropped", st)
	}
}

func TestStreamARQInOrderExactlyOnce(t *testing.T) {
	cfg := testConfig()
	cfg.Faults = FaultConfig{Seed: 99, Loss: 0.4}
	n := New(cfg)
	e := sim.NewEngine()
	a := n.NewEndpoint(0, false)
	b := n.NewEndpoint(1, false)
	const N = 100
	e.Spawn("a", false, func(c *sim.Ctx) {
		for i := 0; i < N; i++ {
			a.SendObj(c, b, 3, i, 64)
		}
	})
	e.Spawn("b", false, func(c *sim.Ctx) {
		last := sim.Time(-1)
		for i := 0; i < N; i++ {
			m := b.Recv(c, 0, 3)
			if got := m.Obj.(int); got != i {
				t.Errorf("recv %d: got payload %d (stream reordered or dropped)", i, got)
			}
			if m.Arrival < last {
				t.Errorf("recv %d: arrival %v before predecessor %v", i, m.Arrival, last)
			}
			last = m.Arrival
			b.Free(m)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := n.WireStats()
	// The user-level send always counts once; ARQ losses and retries are
	// side columns and pair up exactly (every killed attempt is retried).
	if st.Messages != N {
		t.Fatalf("messages = %d, want %d", st.Messages, N)
	}
	if st.Dropped == 0 || st.Dropped != st.Retrans {
		t.Fatalf("ARQ accounting: dropped=%d retrans=%d, want equal and nonzero", st.Dropped, st.Retrans)
	}
}

func TestRecvDeadline(t *testing.T) {
	n := New(testConfig())
	e := sim.NewEngine()
	a := n.NewEndpoint(0, true)
	b := n.NewEndpoint(1, true)
	e.Spawn("a", false, func(c *sim.Ctx) {
		c.Compute(5 * sim.Millisecond)
		a.Send(c, b, 1, make([]byte, 100))
	})
	e.Spawn("b", false, func(c *sim.Ctx) {
		// Deadline fires with nothing in flight.
		if m := b.RecvDeadline(c, 0, 1, 1*sim.Millisecond); m != nil {
			t.Errorf("expected timeout, got %+v", m)
		}
		if c.Now() != 1*sim.Millisecond {
			t.Errorf("timeout woke at %v, want 1ms", c.Now())
		}
		// Deadline fires while the message is still in flight (arrival
		// past the deadline); the message must stay queued for later.
		if m := b.RecvDeadline(c, 0, 1, 5100*sim.Microsecond); m != nil {
			t.Errorf("expected timeout before arrival, got %+v", m)
		}
		// Now the message is receivable.
		m := b.RecvDeadline(c, 0, 1, c.Now()+sim.Second)
		if m == nil {
			t.Fatal("expected delivery before deadline")
		}
		b.Free(m)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSlowdownScalesSendCost(t *testing.T) {
	cfg := testConfig()
	cfg.Faults = FaultConfig{Slowdown: []float64{1, 2}}
	n := New(cfg)
	e := sim.NewEngine()
	a := n.NewEndpoint(1, true) // the slow node
	b := n.NewEndpoint(0, true)
	e.Spawn("a", false, func(c *sim.Ctx) {
		a.Send(c, b, 1, make([]byte, 960)) // 960+40 hdr = 1000 B wire
		// Normal cost: 100µs overhead + 100µs transmit; slowed 2x.
		if c.Now() != 400*sim.Microsecond {
			t.Errorf("slowed sender clock = %v, want 400µs", c.Now())
		}
	})
	e.Spawn("b", false, func(c *sim.Ctx) {
		b.Free(b.Recv(c, 1, 1))
		// Arrival 400+50 latency; recv overhead 100µs at full speed.
		if c.Now() != 550*sim.Microsecond {
			t.Errorf("receiver clock = %v, want 550µs", c.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestDropsSkipPool exercises the message pool across a drop burst: a
// killed transmission never allocates a Message, so a partition-window
// barrage followed by normal recycled traffic must deliver cleanly.
func TestDropsSkipPool(t *testing.T) {
	cfg := testConfig()
	cfg.Faults = FaultConfig{
		Partitions: []Partition{{Start: 0, Heal: 10 * sim.Millisecond, Nodes: []int{1}}},
	}
	n := New(cfg)
	e := sim.NewEngine()
	a := n.NewEndpoint(0, true)
	b := n.NewEndpoint(1, true)
	e.Spawn("a", false, func(c *sim.Ctx) {
		for i := 0; i < 50; i++ {
			a.SendObj(c, b, 1, i, 100) // all severed
		}
		if b.Pending() != 0 {
			t.Errorf("pending = %d after pure drops, want 0", b.Pending())
		}
		if c.Now() < 10*sim.Millisecond {
			c.Compute(10*sim.Millisecond - c.Now())
		}
		for i := 0; i < 50; i++ {
			a.SendObj(c, b, 1, 1000+i, 100)
		}
	})
	e.Spawn("b", false, func(c *sim.Ctx) {
		for i := 0; i < 50; i++ {
			m := b.Recv(c, 0, 1)
			if got := m.Obj.(int); got != 1000+i {
				t.Errorf("recv %d: payload %d, want %d", i, got, 1000+i)
			}
			b.Free(m)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := n.WireStats()
	if st.Dropped != 50 || st.Messages != 50 {
		t.Fatalf("stats = %+v, want 50 dropped / 50 delivered", st)
	}
}

func TestZeroFaultConfigIdentical(t *testing.T) {
	// A FaultConfig with only a seed set is not Enabled: the run must be
	// byte-identical to a fault-free network.
	st1, arr1 := faultPattern(t, FaultConfig{})
	st2, arr2 := faultPattern(t, FaultConfig{Seed: 12345})
	if st1 != st2 || len(arr1) != len(arr2) {
		t.Fatalf("seed-only fault config perturbed the run: %+v vs %+v", st1, st2)
	}
	for i := range arr1 {
		if arr1[i] != arr2[i] {
			t.Fatalf("arrival %d differs: %v vs %v", i, arr1[i], arr2[i])
		}
	}
	if st1.Dropped != 0 || st1.Retrans != 0 {
		t.Fatalf("fault counters moved on a fault-free run: %+v", st1)
	}
}

func TestDrawProperties(t *testing.T) {
	fc := FaultConfig{Seed: 1}
	for seq := uint64(1); seq < 1000; seq++ {
		for _, kind := range []uint64{kLoss, kDup, kReorder, kJitter, kDupDelay, kStream} {
			v := fc.draw(seq, kind)
			if v < 0 || v >= 1 {
				t.Fatalf("draw(%d,%d) = %v out of [0,1)", seq, kind, v)
			}
		}
		if fc.draw(seq, kLoss) == fc.draw(seq, kDup) {
			t.Fatalf("seq %d: loss and dup sub-streams collide", seq)
		}
	}
}
