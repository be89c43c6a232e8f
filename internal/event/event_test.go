package event

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestFIFOWithinCycle(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-cycle events fired out of order: %v", order)
		}
	}
	if s.Now() != 5 {
		t.Fatalf("clock = %d, want 5", s.Now())
	}
}

func TestTimeOrdering(t *testing.T) {
	s := New()
	var fired []Time
	times := []Time{9, 3, 7, 1, 3, 100, 0}
	for _, at := range times {
		at := at
		s.At(at, func() { fired = append(fired, at) })
	}
	s.Run()
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("events out of time order: %v", fired)
		}
	}
	if len(fired) != len(times) {
		t.Fatalf("fired %d events, want %d", len(fired), len(times))
	}
}

func TestAfterAndNestedScheduling(t *testing.T) {
	s := New()
	var hits []Time
	s.At(10, func() {
		hits = append(hits, s.Now())
		s.After(5, func() { hits = append(hits, s.Now()) })
	})
	s.Run()
	if len(hits) != 2 || hits[0] != 10 || hits[1] != 15 {
		t.Fatalf("hits = %v, want [10 15]", hits)
	}
}

func TestSchedulingInPastClamps(t *testing.T) {
	s := New()
	var at Time
	s.At(20, func() {
		s.At(3, func() { at = s.Now() }) // in the past: clamps to now
	})
	s.Run()
	if at != 20 {
		t.Fatalf("past event fired at %d, want clamped to 20", at)
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	count := 0
	for i := Time(1); i <= 10; i++ {
		s.At(i*10, func() { count++ })
	}
	s.RunUntil(55)
	if count != 5 {
		t.Fatalf("RunUntil(55) fired %d events, want 5", count)
	}
	if s.Pending() != 5 {
		t.Fatalf("pending = %d, want 5", s.Pending())
	}
	// The clock ends at the limit, not at the last fired event (cycle 50):
	// epoch sampling depends on RunUntil landing exactly on the boundary.
	if s.Now() != 55 {
		t.Fatalf("after RunUntil(55), Now() = %d, want 55", s.Now())
	}
	s.Run()
	if count != 10 {
		t.Fatalf("after Run, fired %d, want 10", count)
	}
}

func TestRunUntilEmptyCycleWindowEndsAtLimit(t *testing.T) {
	s := New()
	s.At(3, func() {})
	s.RunUntil(10) // events exist but none in (3, 10]
	if s.Now() != 10 {
		t.Fatalf("Now() = %d, want 10", s.Now())
	}
	s.RunUntil(20) // entirely empty window
	if s.Now() != 20 {
		t.Fatalf("Now() = %d, want 20", s.Now())
	}
	// Sampling epochs of width 10 from these boundaries must not drift:
	// a later event still fires at its own time.
	var at Time
	s.At(25, func() { at = s.Now() })
	s.RunUntil(30)
	if at != 25 || s.Now() != 30 {
		t.Fatalf("event at %d (want 25), Now() = %d (want 30)", at, s.Now())
	}
}

func TestAdvanceTo(t *testing.T) {
	s := New()
	s.AdvanceTo(7)
	if s.Now() != 7 {
		t.Fatalf("Now() = %d, want 7", s.Now())
	}
	s.AdvanceTo(3) // backwards: no-op
	if s.Now() != 7 {
		t.Fatalf("Now() = %d after backwards AdvanceTo, want 7", s.Now())
	}
	// Never advances past a pending event (which would fire it late).
	s.At(10, func() {})
	s.AdvanceTo(50)
	if s.Now() != 10 {
		t.Fatalf("Now() = %d, want clamped to 10 (pending event)", s.Now())
	}
	if !s.Step() || s.Now() != 10 {
		t.Fatal("pending event should still fire at its own time")
	}
}

func TestRunWhile(t *testing.T) {
	s := New()
	count := 0
	for i := 0; i < 100; i++ {
		s.After(Time(i), func() { count++ })
	}
	s.RunWhile(func() bool { return count < 7 })
	if count != 7 {
		t.Fatalf("RunWhile stopped at %d, want 7", count)
	}
}

// Property: for any random schedule, events fire in nondecreasing time order
// and all events fire exactly once.
func TestPropertyOrdering(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		total := int(n%64) + 1
		fired := 0
		last := Time(0)
		ok := true
		for i := 0; i < total; i++ {
			at := Time(rng.Intn(50))
			s.At(at, func() {
				fired++
				if s.Now() < last {
					ok = false
				}
				last = s.Now()
			})
		}
		s.Run()
		return ok && fired == total && s.Pending() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Fired counter matches the number of scheduled events after Run.
func TestPropertyFiredCount(t *testing.T) {
	f := func(times []uint16) bool {
		s := New()
		for _, at := range times {
			s.At(Time(at), func() {})
		}
		s.Run()
		return s.Fired == uint64(len(times))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestMixedFormsSameCycleFIFO interleaves the closure and pre-bound forms in
// one cycle and chains zero-delay schedules from inside firing events: the
// two forms share one FIFO, and every After(0) hop fires in the same cycle,
// after everything already queued for it.
func TestMixedFormsSameCycleFIFO(t *testing.T) {
	s := New()
	var order []string
	note := func(a any) { order = append(order, a.(string)) }
	var chain func(left int)
	chain = func(left int) {
		order = append(order, "hop")
		if left > 0 {
			s.After(0, func() { chain(left - 1) })
		}
	}
	s.At(4, func() { order = append(order, "a") })
	s.AtFn(4, note, "b")
	s.At(4, func() { chain(2) })
	s.AfterFn(4, note, "c")
	s.Run()
	want := "a b hop c hop hop"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("fired %q, want %q", got, want)
	}
	if s.Now() != 4 {
		t.Fatalf("clock at %d, want 4", s.Now())
	}
}
