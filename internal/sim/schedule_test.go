package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestSameInstantBatchDrain pins the run-queue commit order at one
// virtual instant.  Five procs arm at the same time T; the scheduler
// must pop the smallest id from the heap and drain the rest into the
// run queue, committing them back-to-back in ascending id order.  The
// first proc's turn also arms a *smaller*-id proc at the same T (a late
// same-instant arrival, via Notify): it lands in the heap after the
// drain, and the head-vs-heap compare must schedule it before the
// higher-id procs already queued.  Expected order each round:
// p1 (heap pop), p0 (late arrival beats queued p2), p2..p5 (queue).
func TestSameInstantBatchDrain(t *testing.T) {
	const rounds = 3
	e := NewEngine()
	var src Source
	round := 0
	var at Time
	var trace []string
	e.Spawn("p0", false, func(c *Ctx) {
		for seen := 0; seen < rounds; seen++ {
			c.WaitOn(&src, "round", func() (Time, bool) {
				if round <= seen {
					return 0, false
				}
				return at, true
			})
			trace = append(trace, fmt.Sprintf("p0@%d", c.Now()))
		}
	})
	for i := 1; i <= 5; i++ {
		id := i
		e.Spawn(fmt.Sprintf("p%d", id), false, func(c *Ctx) {
			for r := 0; r < rounds; r++ {
				c.Compute(Millisecond)
				c.Yield() // scheduling point: the batch forms at the new clock
				if id == 1 {
					round++
					at = c.Now()
					src.Notify()
				}
				trace = append(trace, fmt.Sprintf("p%d@%d", id, c.Now()))
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var want []string
	for r := 1; r <= rounds; r++ {
		now := Time(r) * Millisecond
		for _, id := range []int{1, 0, 2, 3, 4, 5} {
			want = append(want, fmt.Sprintf("p%d@%d", id, now))
		}
	}
	if len(trace) != len(want) {
		t.Fatalf("trace length %d, want %d\ngot %v", len(trace), len(want), trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("commit order diverges at %d: got %q, want %q\ntrace: %v", i, trace[i], want[i], trace)
		}
	}
}

// stableBox is a single-consumer mailbox: deliveries only append and
// the head's arrival time never moves, so once the wait condition holds
// it keeps holding with the same wake time — the Stable contract.
// Whether the source actually declares it is the caller's choice.
type stableBox struct {
	src  Source
	msgs []Time
}

func (b *stableBox) recv(c *Ctx) {
	c.WaitOn(&b.src, "mail", func() (Time, bool) {
		if len(b.msgs) == 0 {
			return 0, false
		}
		return b.msgs[0], true
	})
	b.msgs = b.msgs[1:]
}

// stableRingTrace runs a token ring — compute, send, trace, receive —
// over mailboxes whose sources are marked Stable or not, with every
// event on the millisecond grid, so receiver wake times collide with
// computing procs' arrival times and same-instant batches routinely hold
// condition-blocked receivers.  It returns the committed send order and
// how many condition-blocked procs were seen committed to the run queue
// ahead of their turn.
func stableRingTrace(t *testing.T, stable bool, procs, rounds int, seed int64) ([]string, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	work := make([][]Time, procs)
	for i := range work {
		work[i] = make([]Time, rounds)
		for r := range work[i] {
			if i%2 == 0 {
				work[i][r] = Time(1+r%3) * Millisecond
			} else {
				work[i][r] = Time(1+rng.Intn(3)) * Millisecond
			}
		}
	}
	e := NewEngine()
	boxes := make([]*stableBox, procs)
	for i := range boxes {
		boxes[i] = &stableBox{}
		boxes[i].src.Stable = stable
	}
	var trace []string
	early := 0
	for i := 0; i < procs; i++ {
		id := i
		e.Spawn(fmt.Sprintf("p%d", id), false, func(c *Ctx) {
			for r := 0; r < rounds; r++ {
				c.Compute(work[id][r])
				dst := (id + 1) % procs
				boxes[dst].msgs = append(boxes[dst].msgs, c.Now()+Millisecond)
				boxes[dst].src.Notify()
				trace = append(trace, fmt.Sprintf("p%d@%d->%d", id, c.Now(), dst))
				for _, q := range e.runq[e.runqHead:] {
					if q.cond != nil {
						early++
					}
				}
				boxes[id].recv(c)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return trace, early
}

// TestStableEarlyCommitMatchesHeapOrder pins the run queue's early
// commit of stable waiters: draining condition-blocked procs into the
// same-instant run queue must commit exactly the steps the heap path
// commits when the sources are not marked Stable.  The seeded schedules
// are adversarial by construction — all wake times and compute arrivals
// share the millisecond grid — and the test checks that the Stable runs
// really took the early-commit path.
func TestStableEarlyCommitMatchesHeapOrder(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		procs := 2 + int(seed)%5
		heap, heapEarly := stableRingTrace(t, false, procs, 6, seed)
		stable, early := stableRingTrace(t, true, procs, 6, seed)
		if heapEarly != 0 {
			t.Fatalf("seed %d: %d early commits without Stable sources", seed, heapEarly)
		}
		if early == 0 {
			t.Errorf("seed %d: no stable waiter was committed early; the test does not reach the path", seed)
		}
		if len(heap) != len(stable) {
			t.Fatalf("seed %d: trace lengths differ: %d vs %d", seed, len(heap), len(stable))
		}
		for i := range heap {
			if heap[i] != stable[i] {
				t.Fatalf("seed %d: traces diverge at %d: %q vs %q\nheap:   %v\nstable: %v",
					seed, i, heap[i], stable[i], heap, stable)
			}
		}
	}
}

// TestBrokenStableContractFails wrongly marks a two-consumer source
// Stable.  Both consumers arm at the same instant for the only item, so
// the run queue commits the second behind the first; the first takes
// the item, withdrawing the second's wake-up.  Run must fail at the
// re-verification and name the second consumer rather than resume it.
func TestBrokenStableContractFails(t *testing.T) {
	e := NewEngine()
	box := &stableBox{}
	box.src.Stable = true // wrong: two procs consume from this box
	for _, name := range []string{"c1", "c2"} {
		e.Spawn(name, false, func(c *Ctx) { box.recv(c) })
	}
	e.Spawn("producer", false, func(c *Ctx) {
		c.Compute(Millisecond)
		box.msgs = append(box.msgs, c.Now())
		box.src.Notify()
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), `stable condition withdrawn on "c2"`) {
		t.Fatalf("Run error = %v, want a withdrawn stable condition on c2", err)
	}
}

// TestWaiterIndexSurvivesExit is a regression test for waiter-list
// maintenance: three procs register on one source, the middle one wakes
// and exits, and a later notify must still reach both survivors through
// the index.  A removal bug that drops or strands the wrong waiter
// shows up as a deadlock; a bug that lets removal perturb commit order
// shows up in the wake sequence (same-instant wakes stay in id order no
// matter how the index was compacted).
func TestWaiterIndexSurvivesExit(t *testing.T) {
	e := NewEngine()
	var src Source
	stage := 0
	var at Time
	var woke []string
	waiter := func(name string, need int) {
		e.Spawn(name, false, func(c *Ctx) {
			c.WaitOn(&src, name, func() (Time, bool) {
				if stage < need {
					return 0, false
				}
				return at, true
			})
			woke = append(woke, name)
		})
	}
	waiter("w0", 2)
	waiter("w1", 1) // middle registrant: wakes first, then exits
	waiter("w2", 2)
	e.Spawn("driver", false, func(c *Ctx) {
		c.Compute(Millisecond)
		c.Yield()
		stage, at = 1, c.Now()
		src.Notify() // wakes only w1
		c.Compute(Millisecond)
		c.Yield()
		stage, at = 2, c.Now()
		src.Notify() // must reach w0 and w2 despite w1's removal
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"w1", "w0", "w2"}
	if len(woke) != len(want) {
		t.Fatalf("woke %v, want %v", woke, want)
	}
	for i := range want {
		if woke[i] != want[i] {
			t.Fatalf("wake order %v, want %v", woke, want)
		}
	}
}
