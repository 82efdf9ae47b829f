// Package locks implements the single-threaded lock manager of §4.3. Because
// each partition runs one thread, there is no latching: the manager is plain
// data manipulated between transaction steps, which is exactly the property
// the paper exploits to make locking "much lower overhead than traditional
// locking schemes".
//
// Locks are row-granularity shared/exclusive with FIFO wait queues and
// shared→exclusive upgrades. The manager exposes the waits-for graph so the
// engine can run cycle detection at block time and choose a victim (the paper
// prefers killing single-partition transactions, which waste less work).
package locks

import (
	"fmt"
	"iter"
	"slices"

	"specdb/internal/msg"
)

// Mode is a lock mode.
type Mode uint8

const (
	// Shared permits concurrent readers.
	Shared Mode = iota
	// Exclusive permits a single writer.
	Exclusive
)

func (m Mode) String() string {
	if m == Shared {
		return "S"
	}
	return "X"
}

// compatible reports whether a lock in mode a coexists with one in mode b.
// The same S/X row applies to range keys, through the overlap predicate: two
// locks conflict iff their keys overlap and their modes are incompatible.
func compatible(a, b Mode) bool { return a == Shared && b == Shared }

// Key identifies a lockable unit: a single row, or — when IsRange is set — the
// half-open key range [Row, Hi). Range keys are how scans take next-key/gap
// coverage: an insert's point-X on any key inside the range conflicts with the
// scanner's range-S even though the scanner never touched that row.
type Key struct {
	Table string
	// Row is the point row, or the inclusive low bound of a range.
	Row string
	// Hi is the exclusive high bound of a range key; empty means unbounded.
	Hi string
	// IsRange marks the key as covering [Row, Hi) rather than the single Row.
	IsRange bool
}

func (k Key) String() string {
	if k.IsRange {
		return fmt.Sprintf("%s[%q,%q)", k.Table, k.Row, k.Hi)
	}
	return fmt.Sprintf("%s[%q]", k.Table, k.Row)
}

// overlaps reports whether two keys cover a common row (same table, and point
// equality, point-in-range containment, or range intersection).
func overlaps(a, b Key) bool {
	if a.Table != b.Table {
		return false
	}
	switch {
	case !a.IsRange && !b.IsRange:
		return a.Row == b.Row
	case a.IsRange && !b.IsRange:
		return b.Row >= a.Row && (a.Hi == "" || b.Row < a.Hi)
	case !a.IsRange && b.IsRange:
		return a.Row >= b.Row && (b.Hi == "" || a.Row < b.Hi)
	default:
		return (a.Hi == "" || b.Row < a.Hi) && (b.Hi == "" || a.Row < b.Hi)
	}
}

// compareKeys is the deterministic total order used wherever keys are sorted.
func compareKeys(a, b Key) int {
	if a.Table != b.Table {
		if a.Table < b.Table {
			return -1
		}
		return 1
	}
	if a.Row != b.Row {
		if a.Row < b.Row {
			return -1
		}
		return 1
	}
	if a.Hi != b.Hi {
		if a.Hi < b.Hi {
			return -1
		}
		return 1
	}
	if a.IsRange != b.IsRange {
		if !a.IsRange {
			return -1
		}
		return 1
	}
	return 0
}

// Grant reports a lock granted to a previously waiting transaction.
type Grant struct {
	Txn  msg.TxnID
	K    Key
	Mode Mode
}

// Stats counts lock manager activity for the cost model and the §5.6
// profiler-style breakdown.
type Stats struct {
	Acquires  uint64 // Acquire calls
	Immediate uint64 // granted without waiting
	Waits     uint64 // had to queue
	Upgrades  uint64 // S→X upgrades (immediate or queued)
	Releases  uint64 // locks released
}

// Add returns the field-wise sum of two stat sets; the hosting partition
// uses it to carry lock statistics across engine swaps.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Acquires:  s.Acquires + o.Acquires,
		Immediate: s.Immediate + o.Immediate,
		Waits:     s.Waits + o.Waits,
		Upgrades:  s.Upgrades + o.Upgrades,
		Releases:  s.Releases + o.Releases,
	}
}

type waiter struct {
	txn     msg.TxnID
	mode    Mode
	upgrade bool
}

// holder is one transaction's grant on an entry.
type holder struct {
	txn  msg.TxnID
	mode Mode
}

// entry is one key's lock. It carries its own key, so a transaction's held
// list reaches it, orders it and reports grants on it without a table lookup.
// An entry has a handful of holders at most, so a slice scan beats a map.
type entry struct {
	key     Key
	holders []holder
	queue   []waiter
}

// holderIndex returns txn's position in e.holders, or -1.
func (e *entry) holderIndex(txn msg.TxnID) int {
	for i, h := range e.holders {
		if h.txn == txn {
			return i
		}
	}
	return -1
}

// popWaiter drops the head of the queue in place, so the queue keeps its
// capacity across recycles.
func (e *entry) popWaiter() {
	e.queue = e.queue[:copy(e.queue, e.queue[1:])]
}

// byKey orders entries by compareKeys.
func byKey(a, b *entry) int { return compareKeys(a.key, b.key) }

// txnState is what the manager tracks for one transaction: the entries it
// holds, in grant order, and the entry it is queued on, if any.
type txnState struct {
	held    []*entry
	waiting *entry
}

// Manager is one partition's lock table.
type Manager struct {
	// table holds the live entries by key. A request hashes its key once to
	// look it up, and once more to insert a new entry; Release reaches held
	// entries by pointer and hashes a key only to delete a freed entry.
	table map[Key]*entry
	txns  map[msg.TxnID]*txnState
	stats Stats

	// rangeEntries lists the range entries currently in the table, in
	// creation order. While it is empty — every run without scans — the
	// point path takes no overlap checks and behaves byte-identically to a
	// range-free manager.
	rangeEntries []*entry

	// freeEntries and freeTxns recycle emptied lock entries and transaction
	// states, with their slices' capacity. Every transaction acquires and
	// fully releases a handful of row locks, and a warm acquire/release
	// cycle allocates nothing: the paper's "much lower overhead than
	// traditional locking" (§4.3) should not be spent in the allocator.
	freeEntries []*entry
	freeTxns    []*txnState

	// Scratch reused by drainAll and FindCycle, so that a block that finds
	// no cycle allocates nothing.
	pending []*entry
	visited map[msg.TxnID]bool
	path    []msg.TxnID
	edges   []msg.TxnID
}

// NewManager returns an empty lock table.
func NewManager() *Manager {
	return &Manager{
		table:   make(map[Key]*entry),
		txns:    make(map[msg.TxnID]*txnState),
		visited: make(map[msg.TxnID]bool),
	}
}

// Stats returns a copy of the counters.
func (m *Manager) Stats() Stats { return m.stats }

// Active reports whether any transaction holds or awaits any lock.
func (m *Manager) Active() bool { return len(m.table) > 0 }

// HeldCount returns how many keys txn currently holds.
func (m *Manager) HeldCount(txn msg.TxnID) int {
	if st := m.txns[txn]; st != nil {
		return len(st.held)
	}
	return 0
}

// Holds reports whether txn holds k at least in the given mode.
func (m *Manager) Holds(txn msg.TxnID, k Key, mode Mode) bool {
	e := m.table[k]
	if e == nil {
		return false
	}
	i := e.holderIndex(txn)
	return i >= 0 && (e.holders[i].mode == Exclusive || mode == Shared)
}

// Waiting reports whether txn is queued for some lock.
func (m *Manager) Waiting(txn msg.TxnID) bool {
	st := m.txns[txn]
	return st != nil && st.waiting != nil
}

// Acquire requests k in the given mode for txn. It returns true if the lock
// was granted immediately; false means txn is now queued and must suspend
// until a later Release returns a Grant for it (or txn is itself released,
// which cancels the wait).
func (m *Manager) Acquire(txn msg.TxnID, k Key, mode Mode) bool {
	m.stats.Acquires++
	st := m.txns[txn]
	if st != nil && st.waiting != nil {
		panic("locks: Acquire while already waiting")
	}
	e := m.table[k]
	if e == nil {
		e = m.newEntry(k)
	}
	if i := e.holderIndex(txn); i >= 0 {
		if e.holders[i].mode == Exclusive || mode == Shared {
			m.stats.Immediate++
			return true // reentrant, already sufficient
		}
		// Upgrade request.
		m.stats.Upgrades++
		if len(e.holders) == 1 && !m.conflictsElsewhere(txn, e, Exclusive) {
			e.holders[i].mode = Exclusive
			m.stats.Immediate++
			return true
		}
		// Queue the upgrade ahead of ordinary waiters.
		e.queue = slices.Insert(e.queue, 0, waiter{txn: txn, mode: Exclusive, upgrade: true})
		st.waiting = e
		m.stats.Waits++
		return false
	}
	if st == nil {
		st = m.newTxn(txn)
	}
	if len(e.queue) == 0 && compatibleWithHolders(e, mode) && !m.conflictsElsewhere(txn, e, mode) {
		grant(st, e, txn, mode)
		m.stats.Immediate++
		return true
	}
	e.queue = append(e.queue, waiter{txn: txn, mode: mode})
	st.waiting = e
	m.stats.Waits++
	return false
}

func (m *Manager) newEntry(k Key) *entry {
	var e *entry
	if n := len(m.freeEntries); n > 0 {
		e = m.freeEntries[n-1]
		m.freeEntries = m.freeEntries[:n-1]
	} else {
		e = &entry{}
	}
	e.key = k
	m.table[k] = e
	if k.IsRange {
		m.rangeEntries = append(m.rangeEntries, e)
	}
	return e
}

func (m *Manager) newTxn(txn msg.TxnID) *txnState {
	var st *txnState
	if n := len(m.freeTxns); n > 0 {
		st = m.freeTxns[n-1]
		m.freeTxns = m.freeTxns[:n-1]
	} else {
		st = &txnState{}
	}
	m.txns[txn] = st
	return st
}

func compatibleWithHolders(e *entry, mode Mode) bool {
	for _, h := range e.holders {
		if !compatible(mode, h.mode) {
			return false
		}
	}
	return true
}

// conflictsElsewhere reports whether a request on e conflicts with a holder
// of a *different*, overlapping key: a point request landing inside a held
// range, or a range request overlapping held points and ranges. With no range
// keys in the table there is nothing to overlap (point keys only meet at
// equality, which is the same entry) and the check is one length comparison —
// the point path stays exactly as fast and as ordered as before ranges
// existed.
func (m *Manager) conflictsElsewhere(txn msg.TxnID, e *entry, mode Mode) bool {
	if len(m.rangeEntries) == 0 {
		return false
	}
	for range m.crossBlockers(txn, e, mode) {
		return true
	}
	return false
}

// crossBlockers yields the holders, other than txn, of keys that overlap e's
// key without being it and hold a mode incompatible with mode: holders of
// overlapping ranges and, for a range request, of overlapping points. A
// transaction holding several such keys is yielded once per key. The order
// follows Go's unordered table map, so callers use only existence or sort.
func (m *Manager) crossBlockers(txn msg.TxnID, e *entry, mode Mode) iter.Seq[msg.TxnID] {
	return func(yield func(msg.TxnID) bool) {
		blockers := func(o *entry) bool {
			for _, h := range o.holders {
				if h.txn != txn && !compatible(mode, h.mode) && !yield(h.txn) {
					return false
				}
			}
			return true
		}
		for _, re := range m.rangeEntries {
			if re != e && overlaps(e.key, re.key) && !blockers(re) {
				return
			}
		}
		if !e.key.IsRange {
			return
		}
		for _, pe := range m.table {
			if !pe.key.IsRange && pe != e && overlaps(e.key, pe.key) && !blockers(pe) {
				return
			}
		}
	}
}

func grant(st *txnState, e *entry, txn msg.TxnID, mode Mode) {
	e.holders = append(e.holders, holder{txn: txn, mode: mode})
	st.held = append(st.held, e)
}

// Release releases every lock held by txn and removes any queued request it
// has, returning the locks newly granted to waiting transactions. Strict two
// phase locking releases only at commit/abort, so there is no single-lock
// release.
func (m *Manager) Release(txn msg.TxnID) []Grant {
	var grants []Grant
	ranged := len(m.rangeEntries) > 0
	if st := m.txns[txn]; st != nil {
		// Cancel a pending wait first.
		if e := st.waiting; e != nil {
			for i, w := range e.queue {
				if w.txn == txn {
					e.queue = append(e.queue[:i], e.queue[i+1:]...)
					break
				}
			}
			st.waiting = nil
			grants = m.drainQueue(e, grants)
			m.maybeFree(e)
		}
		// Release in key order: deterministic grant order keeps whole-system
		// runs reproducible.
		slices.SortFunc(st.held, byKey)
		for _, e := range st.held {
			i := e.holderIndex(txn)
			e.holders = slices.Delete(e.holders, i, i+1)
			m.stats.Releases++
			grants = m.drainQueue(e, grants)
			m.maybeFree(e)
		}
		delete(m.txns, txn)
		clear(st.held)
		st.held = st.held[:0]
		m.freeTxns = append(m.freeTxns, st)
	}
	if ranged {
		// Releasing range coverage can unblock waiters queued on *other*
		// entries (points inside the range, overlapping ranges); the per-key
		// drains above only saw their own queues. Run a global pass to
		// fixpoint, in sorted key order for determinism.
		grants = m.drainAll(grants)
	}
	return grants
}

// drainAll repeatedly sweeps every queued entry in sorted key order, granting
// whatever has become grantable under the overlap rule, until a full pass
// grants nothing. Only invoked when range keys are (or were just) in play.
// A pass frees only the entry it is draining, so every pending entry is still
// in the table when its turn comes.
func (m *Manager) drainAll(grants []Grant) []Grant {
	for {
		pending := m.pending[:0]
		for _, e := range m.table {
			if len(e.queue) > 0 {
				pending = append(pending, e)
			}
		}
		m.pending = pending
		if len(pending) == 0 {
			return grants
		}
		slices.SortFunc(pending, byKey)
		progress := false
		for _, e := range pending {
			before := len(grants)
			grants = m.drainQueue(e, grants)
			m.maybeFree(e)
			if len(grants) > before {
				progress = true
			}
		}
		if !progress {
			return grants
		}
	}
}

// drainQueue grants as many queued requests on e as now fit, in FIFO order.
func (m *Manager) drainQueue(e *entry, grants []Grant) []Grant {
	for len(e.queue) > 0 {
		w := e.queue[0]
		if w.upgrade {
			// Grantable only when w.txn is the sole holder.
			if len(e.holders) == 1 && e.holders[0].txn == w.txn && !m.conflictsElsewhere(w.txn, e, Exclusive) {
				e.holders[0].mode = Exclusive
				m.txns[w.txn].waiting = nil
				grants = append(grants, Grant{Txn: w.txn, K: e.key, Mode: Exclusive})
				e.popWaiter()
				continue
			}
			return grants
		}
		if !compatibleWithHolders(e, w.mode) || m.conflictsElsewhere(w.txn, e, w.mode) {
			return grants
		}
		st := m.txns[w.txn]
		grant(st, e, w.txn, w.mode)
		st.waiting = nil
		grants = append(grants, Grant{Txn: w.txn, K: e.key, Mode: w.mode})
		e.popWaiter()
	}
	return grants
}

// maybeFree deletes e from the table once nobody holds or awaits it, and
// recycles it.
func (m *Manager) maybeFree(e *entry) {
	if len(e.holders) > 0 || len(e.queue) > 0 {
		return
	}
	delete(m.table, e.key)
	if e.key.IsRange {
		if i := slices.Index(m.rangeEntries, e); i >= 0 {
			m.rangeEntries = slices.Delete(m.rangeEntries, i, i+1)
		}
	}
	e.key = Key{}
	m.freeEntries = append(m.freeEntries, e)
}

// WaitsFor returns the transactions that txn is directly waiting on: holders
// of the contested lock with an incompatible mode, plus incompatible requests
// queued ahead of it.
func (m *Manager) WaitsFor(txn msg.TxnID) []msg.TxnID {
	return m.appendWaitsFor(nil, txn)
}

// appendWaitsFor appends WaitsFor(txn) to dst.
func (m *Manager) appendWaitsFor(dst []msg.TxnID, txn msg.TxnID) []msg.TxnID {
	st := m.txns[txn]
	if st == nil || st.waiting == nil {
		return dst
	}
	e := st.waiting
	pos := -1
	var mode Mode
	for i, w := range e.queue {
		if w.txn == txn {
			pos, mode = i, w.mode
			break
		}
	}
	if pos < 0 {
		return dst
	}
	lo := len(dst)
	for _, h := range e.holders {
		if h.txn == txn {
			continue // upgrade: we hold S ourselves
		}
		if !compatible(mode, h.mode) || mode == Exclusive {
			dst = append(dst, h.txn)
		}
	}
	// Cross-entry edges: holders of overlapping range keys (and, for a range
	// request, overlapping point keys) block this request just like holders
	// of the contested entry do.
	for h := range m.crossBlockers(txn, e, mode) {
		dst = append(dst, h)
	}
	// Deterministic edge order: holders in ascending ID, then queued
	// requests in queue order.
	slices.Sort(dst[lo:])
	dst = dst[:lo+len(slices.Compact(dst[lo:]))]
	for i := 0; i < pos; i++ {
		w := e.queue[i]
		if w.txn != txn && (!compatible(mode, w.mode) || mode == Exclusive) {
			dst = append(dst, w.txn)
		}
	}
	return dst
}

// FindCycle searches the waits-for graph from start and returns the
// transactions forming a cycle that includes blocked transactions, or nil.
// It is invoked each time a transaction blocks, per §4.3 ("cycle detection to
// handle local deadlocks"). The search is a recursive DFS over the manager's
// scratch; only a found cycle is copied out.
func (m *Manager) FindCycle(start msg.TxnID) []msg.TxnID {
	clear(m.visited)
	m.path = m.path[:0]
	m.edges = m.edges[:0]
	return m.dfs(start)
}

// dfs visits t. Each level appends t's out-edges to m.edges and reads them
// by index, since deeper levels append after them and truncate back.
func (m *Manager) dfs(t msg.TxnID) []msg.TxnID {
	// The path is as deep as the longest wait chain at one partition, so a
	// scan of it is the on-path test.
	if i := slices.Index(m.path, t); i >= 0 {
		return slices.Clone(m.path[i:])
	}
	if m.visited[t] {
		return nil
	}
	m.visited[t] = true
	m.path = append(m.path, t)
	lo := len(m.edges)
	m.edges = m.appendWaitsFor(m.edges, t)
	for i, hi := lo, len(m.edges); i < hi; i++ {
		if cyc := m.dfs(m.edges[i]); cyc != nil {
			return cyc
		}
	}
	m.edges = m.edges[:lo]
	m.path = m.path[:len(m.path)-1]
	return nil
}
