package main

import (
	"math/rand"
	"time"

	"specdb"
	"specdb/internal/durable"
	"specdb/internal/locks"
	"specdb/internal/msg"
	"specdb/internal/storage"
	"specdb/internal/txn"
	"specdb/internal/undo"
	"specdb/internal/workload"
)

// captureFrags is how many primary fragment executions of the measured
// window the traced pass captures for the layer replays.
const captureFrags = 4096

// replayReps is how many times each replay runs the captured fragments.
const replayReps = 5

// tracer records spans around the public seams the benchmark owns — the
// Generator, every Procedure (through the Registry) and the WithSetup loader
// — and captures fragment inputs for replay through the public APIs of the
// layers that run inside the simulation. A nil *tracer is the untraced run:
// every wrap method returns its argument unchanged.
//
// The simulation runs one goroutine at a time (Locking's fibers hand off
// strictly), so the tracer needs no synchronization.
type tracer struct {
	// inWindow gates span recording to the measured window.
	inWindow bool
	// backups holds the backup stores; a Run on one is a replica apply.
	backups map[*storage.Store]bool
	primary map[*storage.Store]int

	next, plan, run, apply spanHist
	// runNs and applyNs sum the Run spans' running time.
	runNs, applyNs time.Duration

	// Time attribution. A Locking fiber that waits for a lock parks inside
	// Run while the event loop goes on, so a Run span's wall extent is not
	// its running time. Time is charged to the span entered last (cur)
	// until the next span event, and to the span that exits from the last
	// span event to its exit. Without parking, spans never overlap and this
	// is exact. spans sums the charged time of the window's spans; the rest
	// of the window's wall time is self time (engine, coordinator, kernel).
	cur       *openSpan
	last      time.Time
	spans     time.Duration
	wall      time.Duration
	nextSpan  openSpan
	planSpan  openSpan
	freeSpans []*openSpan

	// Loader time of the current Open, and the last Open's share of it.
	load      time.Duration
	loadShare float64

	// Capture for the replays: clones of the primary stores at the start of
	// the window, and the first captureFrags primary fragments run on them.
	clones    []*storage.Store
	captured  []*capturedFrag
	capturing bool
}

// openSpan is a span in progress: the running time charged to it so far.
type openSpan struct {
	active time.Duration
}

func (t *tracer) enter(s *openSpan) {
	now := time.Now()
	if t.cur != nil {
		t.cur.active += now.Sub(t.last)
	}
	t.cur, t.last = s, now
	s.active = 0
}

// exit closes s and returns its running time.
func (t *tracer) exit(s *openSpan) time.Duration {
	now := time.Now()
	s.active += now.Sub(t.last)
	t.cur, t.last = nil, now
	if t.inWindow {
		t.spans += s.active
	}
	return s.active
}

func (t *tracer) beginOpen() {
	if t != nil {
		t.load = 0
	}
}

func (t *tracer) endOpen(d time.Duration) {
	if t != nil {
		t.loadShare = t.load.Seconds() / d.Seconds()
	}
}

// beginWindow snapshots what the replays need and starts recording.
func (t *tracer) beginWindow(db *specdb.DB) {
	if t == nil {
		return
	}
	// Capture in the first traced round only, against its own clones.
	t.capturing = t.clones == nil
	t.backups = map[*storage.Store]bool{}
	t.primary = map[*storage.Store]int{}
	for p := 0; p < partitions; p++ {
		s := db.PartitionStore(specdb.PartitionID(p))
		t.primary[s] = p
		if t.capturing {
			t.clones = append(t.clones, s.Clone())
		}
		for _, b := range db.BackupStores(specdb.PartitionID(p)) {
			t.backups[b] = true
		}
	}
	t.inWindow = true
	t.cur = nil
}

func (t *tracer) endWindow(wall time.Duration) {
	if t != nil {
		t.inWindow = false
		t.capturing = false
		t.wall += wall
	}
}

// setup wraps the partition loader to time it.
func (t *tracer) setup(fn func(specdb.PartitionID, *specdb.Store)) func(specdb.PartitionID, *specdb.Store) {
	if t == nil {
		return fn
	}
	return func(p specdb.PartitionID, s *specdb.Store) {
		t0 := time.Now()
		fn(p, s)
		t.load += time.Since(t0)
	}
}

// gen wraps a generator with a Next span.
func (t *tracer) gen(g specdb.Generator) specdb.Generator {
	if t == nil {
		return g
	}
	return &tracedGen{inner: g, t: t}
}

type tracedGen struct {
	inner specdb.Generator
	t     *tracer
}

func (g *tracedGen) Next(ci int, rng *rand.Rand) *txn.Invocation {
	t := g.t
	if !t.inWindow {
		return g.inner.Next(ci, rng)
	}
	t.enter(&t.nextSpan)
	inv := g.inner.Next(ci, rng)
	t.next.add(int64(t.exit(&t.nextSpan)))
	return inv
}

// SetShape forwards the cluster shape: Micro picks its buffer-reuse mode
// from it, so a wrapper that dropped it would trace a different program.
func (g *tracedGen) SetShape(s workload.Shape) {
	if sa, ok := g.inner.(workload.ShapeAware); ok {
		sa.SetShape(s)
	}
}

// proc wraps a procedure with Plan and Run spans.
func (t *tracer) proc(p specdb.Procedure) specdb.Procedure {
	if t == nil {
		return p
	}
	return &tracedProc{Procedure: p, t: t}
}

type tracedProc struct {
	specdb.Procedure
	t *tracer
}

func (p *tracedProc) Plan(args any, cat *txn.Catalog) txn.Plan {
	t := p.t
	if !t.inWindow {
		return p.Procedure.Plan(args, cat)
	}
	t.enter(&t.planSpan)
	plan := p.Procedure.Plan(args, cat)
	t.plan.add(int64(t.exit(&t.planSpan)))
	return plan
}

func (p *tracedProc) Run(view *storage.TxnView, w any) (out any, err error) {
	t := p.t
	if !t.inWindow {
		return p.Procedure.Run(view, w)
	}
	backup := t.backups[view.Store()]
	var cf *capturedFrag
	var prevObs storage.Observer
	if !backup && t.capturing && len(t.captured) < captureFrags {
		cf = &capturedFrag{part: t.primary[view.Store()], proc: p.Procedure, work: w}
		prevObs, view.Obs = view.Obs, cf
	}
	finished := false
	sp := t.newSpan()
	t.enter(sp)
	defer func() {
		d := t.exit(sp)
		t.freeSpans = append(t.freeSpans, sp)
		if !t.inWindow {
			return // a fiber parked across the window's end
		}
		if backup {
			t.apply.add(int64(d))
			t.applyNs += d
		} else {
			t.run.add(int64(d))
			t.runNs += d
		}
		if cf != nil {
			view.Obs = prevObs
			// A Locking kill unwinds Run by panic; keep only fragments
			// that ran to the end.
			if finished && len(t.captured) < captureFrags {
				t.captured = append(t.captured, cf)
			}
		}
	}()
	out, err = p.Procedure.Run(view, w)
	finished = true
	return out, err
}

func (t *tracer) newSpan() *openSpan {
	if n := len(t.freeSpans); n > 0 {
		sp := t.freeSpans[n-1]
		t.freeSpans = t.freeSpans[:n-1]
		return sp
	}
	return &openSpan{}
}

// capturedFrag is one primary fragment execution: its input and the rows it
// touched, in order. It observes its own Run, so fragments interleaved on
// Locking fibers do not mix.
type capturedFrag struct {
	part int
	proc specdb.Procedure
	work any
	rows []rowAccess
}

type rowAccess struct {
	key   locks.Key
	write bool
}

func (c *capturedFrag) ObserveGet(table, key string, _ any, _ bool) {
	c.rows = append(c.rows, rowAccess{key: locks.Key{Table: table, Row: key}})
}

func (c *capturedFrag) ObservePut(table, key string, _ any) {
	c.rows = append(c.rows, rowAccess{key: locks.Key{Table: table, Row: key}, write: true})
}

func (c *capturedFrag) ObserveDelete(table, key string) {
	c.rows = append(c.rows, rowAccess{key: locks.Key{Table: table, Row: key}, write: true})
}

func (c *capturedFrag) ObserveScan(table, lo, hi string, _ bool, _ int, _ []string, _ []any) {
	c.rows = append(c.rows, rowAccess{key: locks.Key{Table: table, Row: lo, Hi: hi, IsRange: true}})
}

// lockPlan returns the lock requests a locking engine would make for the
// fragment: one per access, exclusive for rows the fragment writes (the
// GetForUpdate discipline), shared otherwise.
func (c *capturedFrag) lockPlan() ([]locks.Key, []locks.Mode) {
	written := map[locks.Key]bool{}
	for _, r := range c.rows {
		if r.write {
			written[r.key] = true
		}
	}
	keys := make([]locks.Key, len(c.rows))
	modes := make([]locks.Mode, len(c.rows))
	for i, r := range c.rows {
		keys[i] = r.key
		modes[i] = locks.Shared
		if written[r.key] {
			modes[i] = locks.Exclusive
		}
	}
	return keys, modes
}

// replays runs the captured fragments through the layers' public APIs, each
// replay on fresh clones of the window-start primary stores.
type replays struct {
	storage, undo, locks, encode spanHist
}

func (t *tracer) replay() *replays {
	r := &replays{}
	if len(t.captured) == 0 {
		return r
	}
	type lockReq struct {
		keys  []locks.Key
		modes []locks.Mode
	}
	reqs := make([]lockReq, len(t.captured))
	works := make([][]any, len(t.captured))
	for i, c := range t.captured {
		reqs[i].keys, reqs[i].modes = c.lockPlan()
		works[i] = []any{c.work}
	}
	var view storage.TxnView
	buf := undo.New()
	logBuf := make([]byte, 0, 1<<16)
	for rep := 0; rep < replayReps; rep++ {
		// Storage: Run with no undo and no locker, state advancing.
		stores := t.cloneStores()
		for _, c := range t.captured {
			view.Reset(stores[c.part], nil, nil)
			t0 := time.Now()
			_, _ = c.proc.Run(&view, c.work) // a user abort is a valid outcome
			r.storage.add(int64(time.Since(t0)))
		}
		// Undo: the same Run recording before-images, then Rollback.
		stores = t.cloneStores()
		for _, c := range t.captured {
			view.Reset(stores[c.part], buf, nil)
			t0 := time.Now()
			_, _ = c.proc.Run(&view, c.work)
			buf.Rollback()
			r.undo.add(int64(time.Since(t0)))
		}
		// Locks: acquire every access's lock, then release; per lock.
		m := locks.NewManager()
		for i, q := range reqs {
			if len(q.keys) == 0 {
				continue
			}
			id := msg.TxnID(rep*len(reqs) + i + 1)
			t0 := time.Now()
			for j, k := range q.keys {
				m.Acquire(id, k, q.modes[j])
			}
			m.Release(id)
			r.locks.add(int64(time.Since(t0)) / int64(len(q.keys)))
		}
		// Durable: encode each fragment as a committed log record.
		for i, c := range t.captured {
			t0 := time.Now()
			logBuf = durable.AppendRecord(logBuf[:0], durable.RecordCommitted, msg.TxnID(i+1), c.proc.Name(), works[i], true)
			r.encode.add(int64(time.Since(t0)))
		}
	}
	return r
}

func (t *tracer) cloneStores() []*storage.Store {
	out := make([]*storage.Store, len(t.clones))
	for i, s := range t.clones {
		out[i] = s.Clone()
	}
	return out
}
