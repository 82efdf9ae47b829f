package durable

import (
	"bytes"
	"testing"

	"specdb/internal/kvstore"
	"specdb/internal/msg"
	"specdb/internal/sim"
	"specdb/internal/storage"
	"specdb/internal/txn"
)

// owner is a test double for the logger's owning partition: it executes
// queued commands against the logger inside a Receive (so ctx is live) and
// collects the gates released by batch completions.
type owner struct {
	log      *Logger
	released []Gate
	ckptDone int
}

// cmd is a command the test injects into the owner's Receive.
type cmd func(ctx *sim.Context)

func (o *owner) Receive(ctx *sim.Context, m sim.Message) {
	switch v := m.(type) {
	case cmd:
		v(ctx)
	case *WriteDone:
		if v.Checkpoint {
			o.log.CheckpointDurable(v.Seq)
			o.ckptDone++
			return
		}
		o.released = append(o.released, o.log.Durable(v.Seq)...)
	case FlushTick:
		o.log.Flush(ctx, v.Batch)
	default:
		panic("unexpected message")
	}
}

// rig wires a scheduler, disk actor, and logger-owning test actor.
func rig(cfg Config) (*sim.ShardedScheduler, *owner, sim.ActorID) {
	s := sim.NewSharded(1, sim.Microsecond)
	disk := s.Register("disk", &Disk{Latency: cfg.DiskLatency, Bandwidth: cfg.DiskBandwidth})
	o := &owner{}
	id := s.Register("owner", o)
	o.log = NewLogger(cfg, disk)
	o.log.Bind(id)
	return s, o, id
}

func kvWorks() []any {
	return []any{&testWork{keys: []string{"a", "b"}}}
}

// testWork is a minimal AppendEncoder fragment input.
type testWork struct{ keys []string }

func (w *testWork) AppendLog(dst []byte) []byte {
	dst = append(dst, "tw"...)
	for _, k := range w.keys {
		dst = append(dst, ' ')
		dst = append(dst, k...)
	}
	return dst
}

func TestGroupCommitBySize(t *testing.T) {
	cfg := Config{GroupCommitBytes: 40, GroupCommitDelay: sim.Second, DiskLatency: 10 * sim.Microsecond}
	s, o, id := rig(cfg)
	// Two records of ~22 bytes each cross the 40-byte threshold and seal
	// without waiting for the (huge) delay timer.
	s.SendAt(0, id, cmd(func(ctx *sim.Context) {
		o.log.AppendCommitted(ctx, 1, "kv", kvWorks(), 0, nil)
		o.log.AppendCommitted(ctx, 2, "kv", kvWorks(), 0, nil)
	}))
	s.Run(100 * sim.Microsecond)
	if o.log.DurableBatches != 1 {
		t.Fatalf("DurableBatches = %d, want 1 (size-triggered seal)", o.log.DurableBatches)
	}
	if got := len(o.released); got != 2 {
		t.Fatalf("released %d gates, want 2", got)
	}
	if o.released[0] != (Gate{Txn: 1, Rec: 0}) || o.released[1] != (Gate{Txn: 2, Rec: 1}) {
		t.Fatalf("gates = %+v, want txn 1 rec 0, txn 2 rec 1", o.released)
	}
	if o.log.DurableLen() != len(o.log.Image()) {
		t.Fatalf("durable prefix %d != image %d after all batches complete", o.log.DurableLen(), len(o.log.Image()))
	}
	// Tail replays from the initial checkpoint: both records.
	if got := len(o.log.Tail()); got != 2 {
		t.Fatalf("tail has %d records, want 2", got)
	}
}

func TestGroupCommitByTimer(t *testing.T) {
	cfg := Config{GroupCommitBytes: 1 << 20, GroupCommitDelay: 50 * sim.Microsecond, DiskLatency: 10 * sim.Microsecond}
	s, o, id := rig(cfg)
	s.SendAt(0, id, cmd(func(ctx *sim.Context) {
		o.log.AppendCommitted(ctx, 7, "kv", kvWorks(), 0, nil)
	}))
	s.Run(40 * sim.Microsecond)
	if len(o.released) != 0 {
		t.Fatal("record became durable before the group-commit delay elapsed")
	}
	s.Run(200 * sim.Microsecond)
	if len(o.released) != 1 || o.released[0].Txn != 7 {
		t.Fatalf("released = %+v, want one gate for txn 7 after the delay", o.released)
	}
}

func TestStaleFlushTickIgnored(t *testing.T) {
	cfg := Config{GroupCommitBytes: 10, GroupCommitDelay: 50 * sim.Microsecond, DiskLatency: 10 * sim.Microsecond}
	s, o, id := rig(cfg)
	// The single append crosses the size threshold immediately; the armed
	// FlushTick arrives later for the already-sealed batch and must no-op.
	s.SendAt(0, id, cmd(func(ctx *sim.Context) {
		o.log.AppendCommitted(ctx, 1, "kv", kvWorks(), 0, nil)
	}))
	s.Drain()
	if o.log.DurableBatches != 1 {
		t.Fatalf("DurableBatches = %d, want exactly 1 (stale tick must not seal an empty batch)", o.log.DurableBatches)
	}
}

func TestDecisionRecordsUngated(t *testing.T) {
	cfg := Config{GroupCommitBytes: 4, GroupCommitDelay: 50 * sim.Microsecond, DiskLatency: 10 * sim.Microsecond}
	s, o, id := rig(cfg)
	s.SendAt(0, id, cmd(func(ctx *sim.Context) {
		o.log.AppendDecision(ctx, 9, true)
	}))
	s.Drain()
	if len(o.released) != 0 {
		t.Fatalf("decision record released gates %+v; decisions are not gated", o.released)
	}
	if o.log.DurableLen() == 0 {
		t.Fatal("decision record never became durable")
	}
}

func TestOutOfOrderCompletionPanics(t *testing.T) {
	cfg := Config{GroupCommitBytes: 4, GroupCommitDelay: sim.Second}
	s, o, id := rig(cfg)
	s.SendAt(0, id, cmd(func(ctx *sim.Context) {
		o.log.AppendCommitted(ctx, 1, "kv", kvWorks(), 0, nil)
		o.log.AppendCommitted(ctx, 2, "kv", kvWorks(), 0, nil)
	}))
	defer func() {
		if recover() == nil {
			t.Fatal("Durable with a non-front batch seq did not panic")
		}
	}()
	// Two sealed batches exist (seqs 1 and 2); completing 2 first violates
	// the FIFO prefix invariant.
	o.log.Durable(2)
	_ = s
}

func testStore() *storage.Store {
	st := storage.NewStore()
	tab := storage.NewHashTable("kv")
	tab.Put("k", int64(1))
	st.AddTable(tab)
	return st
}

func TestCheckpointRotatesAndTruncates(t *testing.T) {
	cfg := Config{GroupCommitBytes: 4, GroupCommitDelay: sim.Second, DiskLatency: 10 * sim.Microsecond}
	s, o, id := rig(cfg)
	st := testStore()
	o.log.InstallInitial(st)
	s.SendAt(0, id, cmd(func(ctx *sim.Context) {
		o.log.AppendCommitted(ctx, 1, "kv", kvWorks(), 0, nil)
	}))
	s.Drain()
	s.SendAt(s.Now(), id, cmd(func(ctx *sim.Context) {
		if !o.log.CanCheckpoint() {
			t.Error("CanCheckpoint false with no checkpoint in flight")
		}
		o.log.StartCheckpoint(ctx, st)
		if o.log.CanCheckpoint() {
			t.Error("CanCheckpoint true while a checkpoint write is in flight")
		}
	}))
	s.Drain()
	if o.log.Checkpoints() != 1 {
		t.Fatalf("Checkpoints = %d, want 1", o.log.Checkpoints())
	}
	ck := o.log.Latest()
	if ck.Offset != 1 {
		t.Fatalf("checkpoint offset = %d, want 1 (covers the appended record)", ck.Offset)
	}
	if o.log.TruncatedBytes() == 0 {
		t.Fatal("rotation truncated no log bytes")
	}
	// The checkpoint covers every durable record, so the replay tail is empty.
	if tail := o.log.Tail(); tail != nil {
		t.Fatalf("tail = %d records, want nil (checkpoint covers the whole durable log)", len(tail))
	}
}

func TestReattachDiscardsVolatileState(t *testing.T) {
	cfg := Config{GroupCommitBytes: 25, GroupCommitDelay: sim.Second, DiskLatency: 10 * sim.Microsecond}
	s, o, id := rig(cfg)
	o.log.InstallInitial(testStore())
	// First append seals and completes; second stays in the open batch.
	s.SendAt(0, id, cmd(func(ctx *sim.Context) {
		o.log.AppendCommitted(ctx, 1, "kv", kvWorks(), 0, nil)
	}))
	s.Drain()
	s.SendAt(s.Now(), id, cmd(func(ctx *sim.Context) {
		o.log.AppendCommitted(ctx, 2, "kv", kvWorks(), 0, nil)
	}))
	s.Step() // deliver the append only; leave its batch open
	durableLen := o.log.DurableLen()
	if len(o.log.Image()) <= durableLen {
		t.Fatal("test setup: second record should be appended but not durable")
	}
	o.log.Reattach(id)
	if got := len(o.log.Image()); got != durableLen {
		t.Fatalf("image length after Reattach = %d, want durable watermark %d", got, durableLen)
	}
	if got := len(o.log.Tail()); got != 1 {
		t.Fatalf("tail after Reattach = %d records, want 1 (only the durable record survives)", got)
	}
}

func TestDiskServiceTime(t *testing.T) {
	s := sim.NewSharded(1, sim.Microsecond)
	d := &Disk{Latency: 20 * sim.Microsecond, Bandwidth: 1e6} // 1 MB/s
	disk := s.Register("disk", d)
	var doneAt sim.Time
	o := actorFunc(func(ctx *sim.Context, m sim.Message) {
		if _, ok := m.(*WriteDone); ok {
			doneAt = ctx.Now()
		}
	})
	id := s.Register("owner", o)
	// 1e6 bytes at 1 MB/s = 1 s of bandwidth time, plus 20 µs latency.
	s.SendAt(0, disk, &WriteReq{Seq: 1, Bytes: 1e6, Notify: id})
	s.Drain()
	want := sim.Second + 20*sim.Microsecond
	if doneAt != want {
		t.Fatalf("WriteDone arrived at %v, want %v (latency + bytes/bandwidth)", doneAt, want)
	}
}

type actorFunc func(ctx *sim.Context, m sim.Message)

func (f actorFunc) Receive(ctx *sim.Context, m sim.Message) { f(ctx, m) }

func TestAppendRecordFormat(t *testing.T) {
	var dst []byte
	dst = AppendRecord(dst, RecordCommitted, 5, "kv", kvWorks(), false)
	dst = AppendRecord(dst, RecordPrepared, 6, "kv", kvWorks(), false)
	dst = AppendRecord(dst, RecordDecision, 6, "", nil, true)
	want := "C t=5 p=kv w=tw a b\nP t=6 p=kv w=tw a b\nD t=6 c=1\n"
	if !bytes.Equal(dst, []byte(want)) {
		t.Fatalf("encoded image:\n%q\nwant:\n%q", dst, want)
	}
}

func TestAppendRecordZeroAllocs(t *testing.T) {
	works := kvWorks()
	dst := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(100, func() {
		dst = AppendRecord(dst[:0], RecordCommitted, 12345, "kv", works, false)
	})
	if allocs != 0 {
		t.Fatalf("AppendRecord allocates %.1f times per record on the warm path, want 0", allocs)
	}
}

func TestKVWorkEncodeZeroAllocs(t *testing.T) {
	// The real microbenchmark fragment input must encode through the
	// AppendEncoder fast path, not the allocating fmt fallback.
	p := kvstore.Proc{}
	plan := p.Plan(&kvstore.Args{Keys: map[msg.PartitionID][]string{0: {"c000.p00.k00", "c000.p00.k01"}}},
		&txn.Catalog{NumPartitions: 2})
	works := []any{plan.Work[0]}
	if _, ok := works[0].(AppendEncoder); !ok {
		t.Fatal("kvstore fragment input does not implement AppendEncoder")
	}
	dst := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(100, func() {
		dst = AppendRecord(dst[:0], RecordCommitted, 12345, "kv", works, false)
	})
	if allocs != 0 {
		t.Fatalf("kvstore log append allocates %.1f times per record on the warm path, want 0", allocs)
	}
}
