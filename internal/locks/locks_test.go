package locks

import (
	"testing"

	"specdb/internal/msg"
)

var (
	t1 = msg.TxnID(1)
	t2 = msg.TxnID(2)
	t3 = msg.TxnID(3)
	t4 = msg.TxnID(4)
	ka = Key{Table: "t", Row: "a"}
	kb = Key{Table: "t", Row: "b"}
)

func TestSharedCompatibility(t *testing.T) {
	m := NewManager()
	if !m.Acquire(t1, ka, Shared) {
		t.Fatal("first S not granted")
	}
	if !m.Acquire(t2, ka, Shared) {
		t.Fatal("second S not granted")
	}
	if m.Acquire(t3, ka, Exclusive) {
		t.Fatal("X granted alongside S holders")
	}
	if !m.Waiting(t3) {
		t.Fatal("t3 not waiting")
	}
}

func TestExclusiveBlocksAll(t *testing.T) {
	m := NewManager()
	m.Acquire(t1, ka, Exclusive)
	if m.Acquire(t2, ka, Shared) {
		t.Fatal("S granted under X")
	}
	if m.Acquire(t3, ka, Exclusive) {
		t.Fatal("X granted under X")
	}
}

func TestReentrantAcquire(t *testing.T) {
	m := NewManager()
	m.Acquire(t1, ka, Exclusive)
	if !m.Acquire(t1, ka, Shared) {
		t.Fatal("S under own X not granted")
	}
	if !m.Acquire(t1, ka, Exclusive) {
		t.Fatal("re-X not granted")
	}
	if m.HeldCount(t1) != 1 {
		t.Fatalf("HeldCount = %d", m.HeldCount(t1))
	}
}

func TestUpgradeSoleHolder(t *testing.T) {
	m := NewManager()
	m.Acquire(t1, ka, Shared)
	if !m.Acquire(t1, ka, Exclusive) {
		t.Fatal("sole-holder upgrade not granted")
	}
	if !m.Holds(t1, ka, Exclusive) {
		t.Fatal("upgrade not recorded")
	}
	if m.Acquire(t2, ka, Shared) {
		t.Fatal("S granted under upgraded X")
	}
}

func TestUpgradeWaitsForOtherSharers(t *testing.T) {
	m := NewManager()
	m.Acquire(t1, ka, Shared)
	m.Acquire(t2, ka, Shared)
	if m.Acquire(t1, ka, Exclusive) {
		t.Fatal("upgrade granted while another sharer exists")
	}
	grants := m.Release(t2)
	if len(grants) != 1 || grants[0].Txn != t1 || grants[0].Mode != Exclusive {
		t.Fatalf("grants = %v", grants)
	}
	if !m.Holds(t1, ka, Exclusive) {
		t.Fatal("upgrade not applied after release")
	}
}

func TestUpgradeJumpsQueue(t *testing.T) {
	m := NewManager()
	m.Acquire(t1, ka, Shared)
	m.Acquire(t2, ka, Shared)
	m.Acquire(t3, ka, Exclusive) // queued
	m.Acquire(t1, ka, Exclusive) // upgrade, must jump ahead of t3
	grants := m.Release(t2)
	if len(grants) != 1 || grants[0].Txn != t1 {
		t.Fatalf("grants = %v; upgrade should win over queued X", grants)
	}
}

func TestFIFOWakeups(t *testing.T) {
	m := NewManager()
	m.Acquire(t1, ka, Exclusive)
	m.Acquire(t2, ka, Exclusive)
	m.Acquire(t3, ka, Shared)
	grants := m.Release(t1)
	// FIFO: t2 (X) first, t3 must keep waiting behind it.
	if len(grants) != 1 || grants[0].Txn != t2 {
		t.Fatalf("grants = %v", grants)
	}
	grants = m.Release(t2)
	if len(grants) != 1 || grants[0].Txn != t3 || grants[0].Mode != Shared {
		t.Fatalf("grants = %v", grants)
	}
}

func TestBatchSharedWakeup(t *testing.T) {
	m := NewManager()
	m.Acquire(t1, ka, Exclusive)
	m.Acquire(t2, ka, Shared)
	m.Acquire(t3, ka, Shared)
	grants := m.Release(t1)
	if len(grants) != 2 {
		t.Fatalf("grants = %v; both shared waiters should wake", grants)
	}
}

func TestReleaseCancelsOwnWait(t *testing.T) {
	m := NewManager()
	m.Acquire(t1, ka, Exclusive)
	m.Acquire(t2, ka, Exclusive) // t2 queued
	m.Acquire(t3, ka, Shared)    // t3 queued behind
	// t2 is aborted (deadlock victim elsewhere): its wait must vanish and
	// t3 must still be blocked by t1's X.
	grants := m.Release(t2)
	if len(grants) != 0 {
		t.Fatalf("grants = %v", grants)
	}
	if m.Waiting(t2) {
		t.Fatal("t2 still waiting")
	}
	grants = m.Release(t1)
	if len(grants) != 1 || grants[0].Txn != t3 {
		t.Fatalf("grants = %v", grants)
	}
}

func TestVictimWaitRemovalUnblocksQueue(t *testing.T) {
	m := NewManager()
	m.Acquire(t1, ka, Shared)
	m.Acquire(t2, ka, Exclusive) // queued on S holder
	m.Acquire(t3, ka, Shared)    // queued behind X
	grants := m.Release(t2)      // victim cancels: t3's S is compatible with t1's S
	if len(grants) != 1 || grants[0].Txn != t3 || grants[0].Mode != Shared {
		t.Fatalf("grants = %v", grants)
	}
}

func TestWaitsForEdges(t *testing.T) {
	m := NewManager()
	m.Acquire(t1, ka, Exclusive)
	m.Acquire(t2, ka, Exclusive)
	edges := m.WaitsFor(t2)
	if len(edges) != 1 || edges[0] != t1 {
		t.Fatalf("WaitsFor(t2) = %v", edges)
	}
	if m.WaitsFor(t1) != nil {
		t.Fatal("holder has waits-for edges")
	}
	// Queued-ahead incompatible waiter also creates an edge.
	m.Acquire(t3, ka, Exclusive)
	edges = m.WaitsFor(t3)
	if len(edges) != 2 {
		t.Fatalf("WaitsFor(t3) = %v", edges)
	}
}

func TestFindSimpleCycle(t *testing.T) {
	m := NewManager()
	m.Acquire(t1, ka, Exclusive)
	m.Acquire(t2, kb, Exclusive)
	m.Acquire(t1, kb, Exclusive) // t1 waits on t2
	if c := m.FindCycle(t1); c != nil {
		t.Fatalf("premature cycle: %v", c)
	}
	// t2 cannot call Acquire while not yet waiting... it requests ka:
	m.Acquire(t2, ka, Exclusive) // t2 waits on t1 → cycle
	c := m.FindCycle(t2)
	if len(c) != 2 {
		t.Fatalf("cycle = %v", c)
	}
	members := map[msg.TxnID]bool{c[0]: true, c[1]: true}
	if !members[t1] || !members[t2] {
		t.Fatalf("cycle = %v", c)
	}
}

func TestFindUpgradeDeadlock(t *testing.T) {
	// Classic: two sharers both request upgrades.
	m := NewManager()
	m.Acquire(t1, ka, Shared)
	m.Acquire(t2, ka, Shared)
	m.Acquire(t1, ka, Exclusive) // waits for t2
	m.Acquire(t2, ka, Exclusive) // waits for t1 → cycle
	c := m.FindCycle(t2)
	if len(c) != 2 {
		t.Fatalf("upgrade deadlock not found: %v", c)
	}
}

func TestFindThreeCycle(t *testing.T) {
	m := NewManager()
	kc := Key{Table: "t", Row: "c"}
	m.Acquire(t1, ka, Exclusive)
	m.Acquire(t2, kb, Exclusive)
	m.Acquire(t3, kc, Exclusive)
	m.Acquire(t1, kb, Exclusive)
	m.Acquire(t2, kc, Exclusive)
	m.Acquire(t3, ka, Exclusive)
	c := m.FindCycle(t3)
	if len(c) != 3 {
		t.Fatalf("cycle = %v", c)
	}
}

func TestNoCycleOnChain(t *testing.T) {
	m := NewManager()
	m.Acquire(t1, ka, Exclusive)
	m.Acquire(t2, ka, Exclusive)
	m.Acquire(t3, ka, Exclusive)
	if c := m.FindCycle(t3); c != nil {
		t.Fatalf("found cycle in a chain: %v", c)
	}
}

func TestVictimBreaksDeadlock(t *testing.T) {
	m := NewManager()
	m.Acquire(t1, ka, Exclusive)
	m.Acquire(t2, kb, Exclusive)
	m.Acquire(t1, kb, Exclusive)
	m.Acquire(t2, ka, Exclusive)
	if c := m.FindCycle(t1); c == nil {
		t.Fatal("no cycle found")
	}
	grants := m.Release(t2) // kill t2
	// t1 gets kb.
	if len(grants) != 1 || grants[0].Txn != t1 || grants[0].K != kb {
		t.Fatalf("grants = %v", grants)
	}
	if m.FindCycle(t1) != nil {
		t.Fatal("cycle persists after victim release")
	}
}

func TestActiveAndFree(t *testing.T) {
	m := NewManager()
	if m.Active() {
		t.Fatal("fresh manager active")
	}
	m.Acquire(t1, ka, Shared)
	m.Acquire(t1, kb, Exclusive)
	if !m.Active() {
		t.Fatal("manager with holders not active")
	}
	m.Release(t1)
	if m.Active() {
		t.Fatal("entries leaked after release")
	}
}

func TestStatsCounting(t *testing.T) {
	m := NewManager()
	m.Acquire(t1, ka, Shared)    // immediate
	m.Acquire(t1, ka, Exclusive) // upgrade immediate
	m.Acquire(t2, ka, Shared)    // wait
	m.Release(t1)
	s := m.Stats()
	if s.Acquires != 3 || s.Immediate != 2 || s.Waits != 1 || s.Upgrades != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Releases != 1 {
		t.Fatalf("releases = %d", s.Releases)
	}
}

func TestAcquireWhileWaitingPanics(t *testing.T) {
	m := NewManager()
	m.Acquire(t1, ka, Exclusive)
	m.Acquire(t2, ka, Exclusive)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Acquire(t2, kb, Shared)
}

func TestManyKeysIndependent(t *testing.T) {
	m := NewManager()
	for i := 0; i < 100; i++ {
		k := Key{Table: "t", Row: string(rune('a' + i))}
		if !m.Acquire(msg.TxnID(uint64(i+1)), k, Exclusive) {
			t.Fatalf("independent key %d blocked", i)
		}
	}
	for i := 0; i < 100; i++ {
		m.Release(msg.TxnID(uint64(i + 1)))
	}
	if m.Active() {
		t.Fatal("lock table not empty")
	}
}

func TestHoldsModeSemantics(t *testing.T) {
	m := NewManager()
	m.Acquire(t1, ka, Shared)
	if !m.Holds(t1, ka, Shared) {
		t.Fatal("S not held")
	}
	if m.Holds(t1, ka, Exclusive) {
		t.Fatal("X reported for S holder")
	}
	if m.Holds(t2, ka, Shared) {
		t.Fatal("non-holder reported holding")
	}
}

func TestWarmCycleAllocatesNothing(t *testing.T) {
	m := NewManager()
	keys := make([]Key, 12)
	for i := range keys {
		keys[i] = Key{Table: "kv", Row: string(rune('a' + i))}
	}
	id := msg.TxnID(0)
	cycle := func() {
		id++
		for _, k := range keys {
			m.Acquire(id, k, Exclusive)
			m.Acquire(id, k, Exclusive)
		}
		m.Release(id)
	}
	cycle() // warm the free lists
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("warm 12-key acquire/release cycle allocates %.1f times", avg)
	}
}

func TestBlockWithoutCycleAllocatesNothing(t *testing.T) {
	m := NewManager()
	m.Acquire(t1, ka, Exclusive)
	m.Acquire(t1, kb, Exclusive)
	block := func() {
		if m.Acquire(t2, ka, Exclusive) {
			t.Fatal("t2 granted t1's X")
		}
		if c := m.FindCycle(t2); c != nil {
			t.Fatalf("cycle = %v", c)
		}
		m.Release(t2) // cancel the wait
	}
	block() // warm the queue and the search scratch
	if avg := testing.AllocsPerRun(100, block); avg != 0 {
		t.Fatalf("a block that finds no cycle allocates %.1f times", avg)
	}
}
