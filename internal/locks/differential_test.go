package locks

import (
	"fmt"
	"testing"

	"specdb/internal/msg"
)

// lockTable is the surface Manager and refManager share.
type lockTable interface {
	Acquire(msg.TxnID, Key, Mode) bool
	Release(msg.TxnID) []Grant
	Holds(msg.TxnID, Key, Mode) bool
	HeldCount(msg.TxnID) int
	Waiting(msg.TxnID) bool
	WaitsFor(msg.TxnID) []msg.TxnID
	FindCycle(msg.TxnID) []msg.TxnID
	Active() bool
	Stats() Stats
}

// fuzzPoints and fuzzRanges are the keys a fuzz op can name. The ranges
// overlap each other and the points in every way the overlap predicate
// distinguishes: bounded, unbounded above, unbounded below.
var (
	fuzzPoints = [4]Key{
		{Table: "t", Row: "a"},
		{Table: "t", Row: "b"},
		{Table: "t", Row: "c"},
		{Table: "t", Row: "d"},
	}
	fuzzRanges = [4]Key{
		{Table: "t", Row: "a", Hi: "c", IsRange: true},
		{Table: "t", Row: "b", Hi: "d", IsRange: true},
		{Table: "t", Row: "c", IsRange: true},
		{Table: "t", Row: "", Hi: "b", IsRange: true},
	}
)

// Op byte layout: bits 0–1 pick the transaction (1–4). A byte ≥ 0xC0
// releases it. Otherwise bits 2–3 pick the key, bit 4 makes it a range and
// bit 5 asks for Exclusive.
const opRelease = 0xC0

func opAcquire(txn, key int, isRange, exclusive bool) byte {
	b := byte(txn-1) | byte(key)<<2
	if isRange {
		b |= 1 << 4
	}
	if exclusive {
		b |= 1 << 5
	}
	return b
}

func opReleaseTxn(txn int) byte { return opRelease | byte(txn-1) }

func decodeOp(b byte) (txn msg.TxnID, k Key, mode Mode, release bool) {
	txn = msg.TxnID(b&3 + 1)
	if b >= opRelease {
		return txn, Key{}, 0, true
	}
	k = fuzzPoints[b>>2&3]
	if b&(1<<4) != 0 {
		k = fuzzRanges[b>>2&3]
	}
	if b&(1<<5) != 0 {
		mode = Exclusive
	}
	return txn, k, mode, false
}

// observe renders everything a caller can see of a lock table.
func observe(m lockTable) string {
	s := fmt.Sprintf("active=%v stats=%+v", m.Active(), m.Stats())
	for txn := msg.TxnID(1); txn <= 4; txn++ {
		s += fmt.Sprintf("\n t%d waiting=%v held=%d waitsFor=%v cycle=%v holds=",
			txn, m.Waiting(txn), m.HeldCount(txn), m.WaitsFor(txn), m.FindCycle(txn))
		for _, k := range append(fuzzPoints[:], fuzzRanges[:]...) {
			switch {
			case m.Holds(txn, k, Exclusive):
				s += "X"
			case m.Holds(txn, k, Shared):
				s += "S"
			default:
				s += "-"
			}
		}
	}
	return s
}

// sameTables checks that m's table has exactly ref's entries, each with the
// same holders, the same queue and its own key, and that the range lists
// agree in order.
func sameTables(t *testing.T, m *Manager, ref *refManager) {
	t.Helper()
	for k, e := range m.table {
		if e.key != k {
			t.Fatalf("entry for %v stored under %v", e.key, k)
		}
	}
	if len(m.table) != len(ref.table) {
		t.Fatalf("table has %d entries, reference %d", len(m.table), len(ref.table))
	}
	for k, re := range ref.table {
		e := m.table[k]
		if e == nil {
			t.Fatalf("entry for %v missing", k)
		}
		if len(e.holders) != len(re.holders) {
			t.Fatalf("%v: holders %v, reference %v", k, e.holders, re.holders)
		}
		for _, h := range e.holders {
			if mode, ok := re.holders[h.txn]; !ok || mode != h.mode {
				t.Fatalf("%v: holders %v, reference %v", k, e.holders, re.holders)
			}
		}
		if len(e.queue) != len(re.queue) {
			t.Fatalf("%v: queue %v, reference %v", k, e.queue, re.queue)
		}
		for i, w := range re.queue {
			if e.queue[i] != waiter(w) {
				t.Fatalf("%v: queue %v, reference %v", k, e.queue, re.queue)
			}
		}
	}
	if len(m.rangeEntries) != len(ref.rangeKeys) {
		t.Fatalf("%d range entries, reference %d", len(m.rangeEntries), len(ref.rangeKeys))
	}
	for i, e := range m.rangeEntries {
		if e.key != ref.rangeKeys[i] {
			t.Fatalf("range entry %d is %v, reference %v", i, e.key, ref.rangeKeys[i])
		}
	}
}

// runDifferential replays ops against Manager and refManager and fails at
// the first op after which any return value or observation differs.
func runDifferential(t *testing.T, ops []byte) {
	m, ref := NewManager(), newRefManager()
	for i, b := range ops {
		txn, k, mode, release := decodeOp(b)
		var got, want string
		switch {
		case release:
			got = fmt.Sprint(m.Release(txn))
			want = fmt.Sprint(ref.Release(txn))
		case ref.Waiting(txn):
			continue // a blocked transaction issues no requests
		default:
			got = fmt.Sprint(m.Acquire(txn, k, mode))
			want = fmt.Sprint(ref.Acquire(txn, k, mode))
		}
		if got != want {
			t.Fatalf("op %d (%#02x): returned %s, reference %s", i, b, got, want)
		}
		if got, want := observe(m), observe(ref); got != want {
			t.Fatalf("op %d (%#02x):\n got %s\nwant %s", i, b, got, want)
		}
		sameTables(t, m, ref)
	}
}

// FuzzManagerMatchesReference checks Manager against the map-of-maps manager
// it replaced: same grants in the same order, same waits-for graph, same
// cycles and counters, after every op.
func FuzzManagerMatchesReference(f *testing.F) {
	x, s := true, false
	pt, rg := false, true
	// Reentrant acquires, an immediate sole-holder upgrade, and a queued
	// upgrade that jumps an X waiter and is granted when the other sharer
	// leaves.
	f.Add([]byte{
		opAcquire(1, 0, pt, s), opAcquire(1, 0, pt, s), opAcquire(1, 0, pt, x), opAcquire(1, 0, pt, s),
		opAcquire(2, 1, pt, s), opAcquire(3, 1, pt, s), opAcquire(2, 1, pt, x), opAcquire(4, 1, pt, x),
		opReleaseTxn(3), opReleaseTxn(2), opReleaseTxn(4), opReleaseTxn(1),
	})
	// Locks taken out of key order, each with a waiter: Release must grant
	// in key order, not in acquisition order.
	f.Add([]byte{
		opAcquire(1, 2, pt, x), opAcquire(1, 0, pt, x), opAcquire(1, 3, pt, s), opAcquire(2, 2, pt, x),
		opAcquire(3, 0, pt, s), opAcquire(4, 3, pt, x), opReleaseTxn(1), opReleaseTxn(3),
		opReleaseTxn(2), opReleaseTxn(4),
	})
	// A two-transaction point deadlock, an upgrade deadlock, and the victim
	// releases that break them.
	f.Add([]byte{
		opAcquire(1, 0, pt, x), opAcquire(2, 1, pt, x), opAcquire(1, 1, pt, x), opAcquire(2, 0, pt, x),
		opReleaseTxn(2), opAcquire(3, 2, pt, s), opAcquire(4, 2, pt, s), opAcquire(3, 2, pt, x),
		opAcquire(4, 2, pt, x), opReleaseTxn(4), opReleaseTxn(3), opReleaseTxn(1),
	})
	// Range releases that drain waiters queued on other entries: a point X
	// under a range S, a range S over a point X, and a point S under a range
	// X; then a range/point deadlock.
	f.Add([]byte{
		opAcquire(1, 0, rg, s), opAcquire(2, 1, pt, x), opAcquire(3, 2, rg, x), opAcquire(4, 2, pt, s),
		opReleaseTxn(1), opReleaseTxn(3), opReleaseTxn(2), opReleaseTxn(4),
		opAcquire(1, 1, pt, x), opAcquire(2, 0, rg, s), opReleaseTxn(1), opReleaseTxn(2),
		opAcquire(1, 0, rg, s), opAcquire(2, 3, pt, x), opAcquire(1, 3, pt, x), opAcquire(2, 1, pt, x),
		opReleaseTxn(2), opReleaseTxn(1),
	})
	// Overlapping and unbounded ranges with range upgrades.
	f.Add([]byte{
		opAcquire(1, 3, rg, s), opAcquire(2, 0, rg, s), opAcquire(1, 3, rg, x), opAcquire(3, 2, rg, s),
		opAcquire(4, 1, rg, x), opAcquire(3, 2, rg, x), opReleaseTxn(2), opReleaseTxn(1),
		opReleaseTxn(3), opReleaseTxn(4),
	})
	f.Add([]byte("\x00\x25\x31\x0e\xc1\x2c\x17\x3a\xc0\x19\x06\x2b\xc2\x11\x34\xc3"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		runDifferential(t, ops)
	})
}
