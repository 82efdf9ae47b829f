package locks

import (
	"slices"
	"testing"

	"specdb/internal/msg"
)

var (
	kc    = Key{Table: "t", Row: "c"}
	rngAC = Key{Table: "t", Row: "a", Hi: "c", IsRange: true}
	rngBD = Key{Table: "t", Row: "b", Hi: "d", IsRange: true}
	rngCE = Key{Table: "t", Row: "c", Hi: "e", IsRange: true}
	rngC  = Key{Table: "t", Row: "c", IsRange: true} // [c, ∞)
)

func TestRangePointXInsideHeldRangeSQueues(t *testing.T) {
	m := NewManager()
	if !m.Acquire(t1, rngAC, Shared) {
		t.Fatal("range S not granted")
	}
	if m.Acquire(t2, kb, Exclusive) {
		t.Fatal("point X inside a held range S granted")
	}
	if !m.Waiting(t2) {
		t.Fatal("t2 not waiting")
	}
	// The range is half-open: its high bound is outside it.
	if !m.Acquire(t3, kc, Exclusive) {
		t.Fatal("point X at the range's exclusive high bound blocked")
	}
	// A point S inside the range is compatible with it.
	if !m.Acquire(t4, ka, Shared) {
		t.Fatal("point S inside a range S blocked")
	}
}

func TestRangeSOverHeldPointXQueues(t *testing.T) {
	m := NewManager()
	m.Acquire(t1, kb, Exclusive)
	if m.Acquire(t2, rngAC, Shared) {
		t.Fatal("range S over a held point X granted")
	}
	if !m.Waiting(t2) {
		t.Fatal("t2 not waiting")
	}
	if !m.Acquire(t3, rngC, Shared) {
		t.Fatal("range S clear of the point X blocked")
	}
}

func TestRangeDisjointCoexist(t *testing.T) {
	m := NewManager()
	if !m.Acquire(t1, rngAC, Exclusive) || !m.Acquire(t2, rngCE, Exclusive) {
		t.Fatal("disjoint range X locks conflict")
	}
	if m.Acquire(t3, rngBD, Shared) {
		t.Fatal("range S overlapping two range X locks granted")
	}
	m = NewManager()
	if !m.Acquire(t1, rngAC, Shared) || !m.Acquire(t2, rngBD, Shared) {
		t.Fatal("overlapping range S locks conflict")
	}
}

func TestRangeReleaseGrantsWaiterOnOtherEntry(t *testing.T) {
	// A point waiter queued under a range holder sits on its own entry; only
	// the global drain after the range's release can grant it.
	m := NewManager()
	m.Acquire(t1, rngAC, Shared)
	m.Acquire(t2, kb, Exclusive)
	grants := m.Release(t1)
	if want := []Grant{{Txn: t2, K: kb, Mode: Exclusive}}; !slices.Equal(grants, want) {
		t.Fatalf("grants = %v, want %v", grants, want)
	}
	if !m.Holds(t2, kb, Exclusive) || m.Waiting(t2) {
		t.Fatal("t2 not granted")
	}

	// And the other way round: a range waiter under a point holder.
	m = NewManager()
	m.Acquire(t1, kb, Exclusive)
	m.Acquire(t2, rngAC, Shared)
	grants = m.Release(t1)
	if want := []Grant{{Txn: t2, K: rngAC, Mode: Shared}}; !slices.Equal(grants, want) {
		t.Fatalf("grants = %v, want %v", grants, want)
	}
	m.Release(t2)
	if m.Active() {
		t.Fatal("entries leaked after range release")
	}
}

func TestRangeWaitsForCrossEntryEdges(t *testing.T) {
	m := NewManager()
	m.Acquire(t3, rngBD, Shared)
	m.Acquire(t1, rngAC, Shared)
	m.Acquire(t2, kb, Exclusive)
	if got, want := m.WaitsFor(t2), []msg.TxnID{t1, t3}; !slices.Equal(got, want) {
		t.Fatalf("WaitsFor(point under two ranges) = %v, want %v", got, want)
	}

	m = NewManager()
	m.Acquire(t2, kb, Exclusive)
	m.Acquire(t1, ka, Exclusive)
	m.Acquire(t3, Key{Table: "t", IsRange: true}, Shared) // the whole table
	if got, want := m.WaitsFor(t3), []msg.TxnID{t1, t2}; !slices.Equal(got, want) {
		t.Fatalf("WaitsFor(range over two points) = %v, want %v", got, want)
	}
}

func TestRangeFindCycleRangePointDeadlock(t *testing.T) {
	m := NewManager()
	m.Acquire(t1, rngAC, Shared)
	m.Acquire(t2, kc, Exclusive)
	if m.Acquire(t1, kc, Exclusive) {
		t.Fatal("t1 granted t2's point X")
	}
	if c := m.FindCycle(t1); c != nil {
		t.Fatalf("premature cycle: %v", c)
	}
	if m.Acquire(t2, kb, Exclusive) {
		t.Fatal("t2 granted a point X inside t1's range S")
	}
	c := m.FindCycle(t2)
	if len(c) != 2 || !slices.Contains(c, t1) || !slices.Contains(c, t2) {
		t.Fatalf("cycle = %v, want t1 and t2", c)
	}
	grants := m.Release(t2) // the victim
	if want := []Grant{{Txn: t1, K: kc, Mode: Exclusive}}; !slices.Equal(grants, want) {
		t.Fatalf("grants = %v, want %v", grants, want)
	}
}
