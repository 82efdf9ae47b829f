// Benchmarks regenerating every table and figure of the paper (virtual-time
// experiments via the harness in internal/bench), plus real-CPU component
// benchmarks measuring what Table 2 measured on the authors' testbed —
// per-fragment execution cost, undo overhead and lock overhead — for this
// repository's actual Go engine.
//
// Run everything:   go test -bench=. -benchmem
// One figure:       go test -bench=BenchmarkFigure4
package specdb_test

import (
	"fmt"
	"math/rand"
	"testing"

	"specdb/internal/bench"
	"specdb/internal/btree"
	"specdb/internal/kvstore"
	"specdb/internal/locks"
	"specdb/internal/msg"
	"specdb/internal/sim"
	"specdb/internal/storage"
	"specdb/internal/tpcc"
	"specdb/internal/txn"
	"specdb/internal/undo"
)

// benchExperiment runs one paper experiment per iteration and reports the
// first series' peak throughput as a metric.
func benchExperiment(b *testing.B, id string) {
	e, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	o := bench.QuickOpts()
	var peak float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series := e.Run(o)
		peak = 0
		for _, s := range series {
			for _, p := range s.Points {
				if p.Y > peak {
					peak = p.Y
				}
			}
		}
	}
	b.ReportMetric(peak, "peak_tps")
}

func BenchmarkFigure4Microbenchmark(b *testing.B) { benchExperiment(b, "fig4") }
func BenchmarkFigure5Conflicts(b *testing.B)      { benchExperiment(b, "fig5") }
func BenchmarkFigure6Aborts(b *testing.B)         { benchExperiment(b, "fig6") }
func BenchmarkFigure7GeneralTxns(b *testing.B)    { benchExperiment(b, "fig7") }
func BenchmarkFigure8TPCCWarehouses(b *testing.B) { benchExperiment(b, "fig8") }
func BenchmarkFigure9TPCCNewOrder(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFigure10Model(b *testing.B)         { benchExperiment(b, "fig10") }
func BenchmarkTable1SchemeSummary(b *testing.B)   { benchExperiment(b, "table1") }
func BenchmarkTable2ModelVariables(b *testing.B)  { benchExperiment(b, "table2") }
func BenchmarkAblationAlwaysLock(b *testing.B)    { benchExperiment(b, "ablation-alwayslock") }
func BenchmarkAblationLocalSpec(b *testing.B)     { benchExperiment(b, "ablation-localspec") }
func BenchmarkAblationReplication(b *testing.B)   { benchExperiment(b, "ablation-replication") }
func BenchmarkRecoveryCheckpoint(b *testing.B)    { benchExperiment(b, "recovery-checkpoint") }
func BenchmarkDurableOverhead(b *testing.B)       { benchExperiment(b, "durable-overhead") }

// --- Real-CPU component benchmarks (this engine's Table 2 equivalents) ---

// BenchmarkRealTspKVFragment measures the actual Go cost of the paper's
// 12-key read/write fragment without undo: our real tsp.
func BenchmarkRealTspKVFragment(b *testing.B) {
	s := storage.NewStore()
	kvstore.AddSchema(s)
	kvstore.Load(s, 0, 4, 12)
	args := &kvstore.Args{Keys: map[msg.PartitionID][]string{0: nil}}
	for i := 0; i < 12; i++ {
		args.Keys[0] = append(args.Keys[0], kvstore.ClientKey(1, 0, i))
	}
	plan := kvstore.Proc{}.Plan(args, &txn.Catalog{NumPartitions: 1})
	work := plan.Work[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		view := storage.NewTxnView(s, nil, nil)
		if _, err := (kvstore.Proc{}).Run(view, work); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRealTspSKVFragmentUndo is the same fragment with undo recording
// and rollback: the tspS − tsp overhead plus abort cost.
func BenchmarkRealTspSKVFragmentUndo(b *testing.B) {
	s := storage.NewStore()
	kvstore.AddSchema(s)
	kvstore.Load(s, 0, 4, 12)
	args := &kvstore.Args{Keys: map[msg.PartitionID][]string{0: nil}}
	for i := 0; i < 12; i++ {
		args.Keys[0] = append(args.Keys[0], kvstore.ClientKey(1, 0, i))
	}
	plan := kvstore.Proc{}.Plan(args, &txn.Catalog{NumPartitions: 1})
	work := plan.Work[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := undo.New()
		view := storage.NewTxnView(s, buf, nil)
		if _, err := (kvstore.Proc{}).Run(view, work); err != nil {
			b.Fatal(err)
		}
		buf.Rollback()
	}
}

// BenchmarkRealTPCCNewOrder measures the real CPU of a NewOrder fragment
// (the paper's §3.3 figure for its C++ engine is ~26 µs per transaction).
func BenchmarkRealTPCCNewOrder(b *testing.B) {
	layout := tpcc.Layout{Warehouses: 1, Partitions: 1}
	scale := tpcc.Scale{Items: 1000, StockPerWarehouse: 1000, CustomersPerDist: 100, InitialOrders: 5}
	s := storage.NewStore()
	tpcc.Loader{Layout: layout, Scale: scale, Seed: 1}.Load(0, s)
	cat := &txn.Catalog{NumPartitions: 1, Meta: layout}
	rng := rand.New(rand.NewSource(2))
	mix := &tpcc.Mix{Layout: layout, Scale: scale}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inv := mix.Next(0, rng)
		if inv.Proc != tpcc.ProcNewOrder {
			i--
			continue
		}
		plan := tpcc.NewOrderProc{}.Plan(inv.Args, cat)
		view := storage.NewTxnView(s, nil, nil)
		if _, err := (tpcc.NewOrderProc{}).Run(view, plan.Work[0]); err != nil && err != txn.ErrUserAbort {
			b.Fatal(err)
		}
	}
}

// BenchmarkRealLockAcquireRelease measures the single-threaded lock manager:
// 24 acquires + release, the per-transaction locking overhead l.
func BenchmarkRealLockAcquireRelease(b *testing.B) {
	m := locks.NewManager()
	keys := make([]locks.Key, 12)
	for i := range keys {
		keys[i] = locks.Key{Table: "kv", Row: fmt.Sprintf("k%02d", i)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := msg.TxnID(uint64(i + 1))
		for _, k := range keys {
			m.Acquire(id, k, locks.Exclusive)
			m.Acquire(id, k, locks.Exclusive) // reentrant second call
		}
		m.Release(id)
	}
}

// BenchmarkRealBTree measures ordered-table point operations.
func BenchmarkRealBTree(b *testing.B) {
	t := btree.New[int]()
	for i := 0; i < 100000; i++ {
		t.Put(fmt.Sprintf("key-%08d", i), i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := fmt.Sprintf("key-%08d", i%100000)
		t.Put(k, i)
		if _, ok := t.Get(k); !ok {
			b.Fatal("missing key")
		}
	}
}

// BenchmarkRealBTreeScan measures a 100-row range scan.
func BenchmarkRealBTreeScan(b *testing.B) {
	t := btree.New[int]()
	for i := 0; i < 100000; i++ {
		t.Put(fmt.Sprintf("key-%08d", i), i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		lo := fmt.Sprintf("key-%08d", (i*97)%99000)
		t.Ascend(lo, "", func(k string, v int) bool {
			n++
			return n < 100
		})
	}
}

// BenchmarkRealSimulator measures discrete-event kernel throughput
// (events/second of virtual message passing) on the width-1 kernel with the
// window horizon a DB uses by default (the one-way latency).
func BenchmarkRealSimulator(b *testing.B) {
	s := sim.NewSharded(1, 20*sim.Microsecond)
	type ping struct{ hops int }
	var a1, a2 sim.ActorID
	h := func(next *sim.ActorID) sim.Handler {
		return handlerFunc(func(ctx *sim.Context, m sim.Message) {
			p := m.(*ping)
			if p.hops <= 0 {
				return
			}
			p.hops--
			ctx.Spend(sim.Microsecond)
			ctx.Send(*next, p, 20*sim.Microsecond)
		})
	}
	a1 = s.Register("a1", h(&a2))
	a2 = s.Register("a2", h(&a1))
	b.ResetTimer()
	s.SendAt(0, a1, &ping{hops: b.N})
	s.Drain()
	if s.DeliveredCount() < uint64(b.N) {
		b.Fatalf("delivered %d of %d", s.DeliveredCount(), b.N)
	}
}

type handlerFunc func(*sim.Context, sim.Message)

func (f handlerFunc) Receive(ctx *sim.Context, m sim.Message) { f(ctx, m) }
