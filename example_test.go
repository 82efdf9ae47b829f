package specdb_test

import (
	"fmt"
	"log"

	"specdb"
	"specdb/internal/kvstore"
	"specdb/internal/msg"
	"specdb/internal/txn"
	"specdb/internal/workload"
)

// ExampleOpen opens a two-partition cluster, runs a fixed script of three
// transactions to completion, and inspects the stores. Runs are
// deterministic, so the output is exact.
func ExampleOpen() {
	reg := specdb.NewRegistry()
	reg.Register(kvstore.Proc{})

	// Two single-partition transactions and one multi-partition
	// transaction spanning both partitions.
	script := &workload.Script{Invs: []*specdb.Invocation{
		{Proc: kvstore.ProcName, Args: &kvstore.Args{Keys: map[msg.PartitionID][]string{
			0: {kvstore.ClientKey(0, 0, 0)},
		}}, AbortAt: txn.NoAbort},
		{Proc: kvstore.ProcName, Args: &kvstore.Args{Keys: map[msg.PartitionID][]string{
			1: {kvstore.ClientKey(0, 1, 0)},
		}}, AbortAt: txn.NoAbort},
		{Proc: kvstore.ProcName, Args: &kvstore.Args{Keys: map[msg.PartitionID][]string{
			0: {kvstore.ClientKey(0, 0, 0)},
			1: {kvstore.ClientKey(0, 1, 0)},
		}}, AbortAt: txn.NoAbort},
	}}

	db, err := specdb.Open(
		specdb.WithPartitions(2),
		specdb.WithClients(1),
		specdb.WithScheme(specdb.Speculation),
		specdb.WithRegistry(reg),
		specdb.WithSetup(func(p specdb.PartitionID, s *specdb.Store) {
			kvstore.AddSchema(s)
			kvstore.Load(s, p, 1, 1)
		}),
		specdb.WithWorkload(script),
	)
	if err != nil {
		log.Fatal(err)
	}
	res := db.Run() // Measure 0: runs the finite script to quiescence

	fmt.Println("committed:", res.Committed)
	fmt.Println("partition 0 counter sum:", kvstore.Sum(db.PartitionStore(0)))
	fmt.Println("partition 1 counter sum:", kvstore.Sum(db.PartitionStore(1)))
	// Output:
	// committed: 3
	// partition 0 counter sum: 2
	// partition 1 counter sum: 2
}

// ExampleSweep runs a scheme × multi-partition-fraction grid — the shape of
// the paper's figures — and prints the cell identities in grid order.
func ExampleSweep() {
	reg := specdb.NewRegistry()
	reg.Register(kvstore.Proc{})
	const clients, keys = 4, 2

	cells, err := specdb.Sweep{
		Name: "mini-fig4",
		Base: []specdb.Option{
			specdb.WithPartitions(2),
			specdb.WithClients(clients),
			specdb.WithRegistry(reg),
			specdb.WithSetup(func(p specdb.PartitionID, s *specdb.Store) {
				kvstore.AddSchema(s)
				kvstore.Load(s, p, clients, keys)
			}),
			specdb.WithWarmup(1 * specdb.Millisecond),
			specdb.WithMeasure(4 * specdb.Millisecond),
		},
		Axes: []specdb.Axis{
			specdb.SchemeAxis(specdb.Blocking, specdb.Speculation),
			specdb.NumAxis("mp", []float64{0, 0.5}, func(f float64) []specdb.Option {
				return []specdb.Option{specdb.WithWorkload(&workload.Micro{
					Partitions: 2, KeysPerTxn: keys, MPFraction: f,
				})}
			}),
		},
	}.Run()
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range cells {
		fmt.Printf("%s mp=%s completed=%v\n", c.Labels[0], c.Labels[1], c.Result.Committed > 0)
	}
	// Output:
	// blocking mp=0 completed=true
	// blocking mp=0.5 completed=true
	// speculation mp=0 completed=true
	// speculation mp=0.5 completed=true
}

// ExampleDB_SetScheme switches a live cluster's concurrency control scheme
// mid-run: the DB drains to a quiescent point, swaps every partition's
// engine, and resumes — all in virtual time, so the run stays deterministic.
// ExampleWithOpenLoop drives a cluster with open-loop Poisson arrivals far
// above its service rate: the in-flight window and pending queue stay
// bounded, the excess is shed, and the tail latency reflects the queueing
// the paper's closed-loop clients cannot express. Deterministic, so the
// output is exact.
func ExampleWithOpenLoop() {
	reg := specdb.NewRegistry()
	reg.Register(kvstore.Proc{})
	const clients, keys = 8, 12
	db, err := specdb.Open(
		specdb.WithPartitions(2),
		specdb.WithClients(clients),
		specdb.WithRegistry(reg),
		specdb.WithSeed(1),
		specdb.WithWarmup(10*specdb.Millisecond),
		specdb.WithMeasure(100*specdb.Millisecond),
		specdb.WithSetup(func(p specdb.PartitionID, s *specdb.Store) {
			kvstore.AddSchema(s)
			kvstore.Load(s, p, clients, keys)
		}),
		specdb.WithWorkload(&workload.Micro{Partitions: 2, KeysPerTxn: keys}),
		specdb.WithOpenLoop(specdb.OpenLoopConfig{
			Rate:   100_000, // far beyond the ~30k/s service rate
			Window: 2,
			Queue:  4,
		}),
	)
	if err != nil {
		log.Fatal(err)
	}
	res := db.Run()
	fmt.Printf("served %d, shed %d, p50 %v, p99 %v\n",
		res.Committed, res.Shed, res.Latency.P50, res.Latency.P99)
	// Output:
	// served 3073, shed 6975, p50 1648.446µs, p99 2755.461µs
}

// ExampleWithDurability runs a durable, unreplicated cluster through a
// crash-restart: the command log and fuzzy checkpoints let the restarted
// primary reload its latest checkpoint, replay the log tail in commit
// order, and resume with state bit-identical to what it committed before
// the crash. Deterministic, so the output is exact.
func ExampleWithDurability() {
	reg := specdb.NewRegistry()
	reg.Register(kvstore.Proc{})
	const clients, keys = 4, 4
	db, err := specdb.Open(
		specdb.WithPartitions(2),
		specdb.WithClients(clients),
		specdb.WithScheme(specdb.Speculation),
		specdb.WithSeed(1),
		specdb.WithRegistry(reg),
		specdb.WithSetup(func(p specdb.PartitionID, s *specdb.Store) {
			kvstore.AddSchema(s)
			kvstore.Load(s, p, clients, keys)
		}),
		specdb.WithWorkload(&workload.Limit{
			Gen: &workload.Micro{Partitions: 2, KeysPerTxn: keys, MPFraction: 0.1},
			N:   600,
		}),
		specdb.WithDurability(specdb.DurabilityConfig{
			CheckpointInterval: 5 * specdb.Millisecond,
		}),
		specdb.WithFaults(specdb.CrashRestart(0, 8*specdb.Millisecond)),
	)
	if err != nil {
		log.Fatal(err)
	}
	res := db.Run()
	ev := res.Recovery[0]
	fmt.Println("committed:", res.Committed)
	fmt.Printf("partition %d recovered: replayed %d txns, downtime %v\n",
		ev.Partition, ev.ReplayTxns, ev.Downtime())
	// Output:
	// committed: 600
	// partition 0 recovered: replayed 32 txns, downtime 11676.541µs
}

func ExampleDB_SetScheme() {
	reg := specdb.NewRegistry()
	reg.Register(kvstore.Proc{})
	const clients, keys = 4, 2

	db, err := specdb.Open(
		specdb.WithPartitions(2),
		specdb.WithClients(clients),
		specdb.WithScheme(specdb.Blocking),
		specdb.WithRegistry(reg),
		specdb.WithSetup(func(p specdb.PartitionID, s *specdb.Store) {
			kvstore.AddSchema(s)
			kvstore.Load(s, p, clients, keys)
		}),
		specdb.WithWorkload(&workload.Micro{Partitions: 2, KeysPerTxn: keys, MPFraction: 0.2}),
	)
	if err != nil {
		log.Fatal(err)
	}

	db.RunFor(5 * specdb.Millisecond)
	fmt.Println("phase 1:", db.Scheme())
	if err := db.SetScheme(specdb.Locking); err != nil {
		log.Fatal(err)
	}
	db.RunFor(5 * specdb.Millisecond)
	fmt.Println("phase 2:", db.Scheme())
	for _, c := range db.SchemeHistory() {
		fmt.Printf("switched %v -> %v (auto=%v)\n", c.From, c.To, c.Auto)
	}
	// Output:
	// phase 1: blocking
	// phase 2: locking
	// switched blocking -> locking (auto=false)
}

// ExampleWithParallelism runs one cluster at two shard widths. The sharded
// runtime's contract is that the Result is independent of the width — the
// event loop fans out over OS threads without perturbing a single event —
// so the two runs agree bit for bit and only the runtime observability
// (cross-shard traffic, busy split) differs.
func ExampleWithParallelism() {
	run := func(shards int) specdb.Result {
		reg := specdb.NewRegistry()
		reg.Register(kvstore.Proc{})
		const clients, keys = 8, 4
		db, err := specdb.Open(
			specdb.WithPartitions(4),
			specdb.WithClients(clients),
			specdb.WithScheme(specdb.Speculation),
			specdb.WithSeed(42),
			specdb.WithWarmup(2*specdb.Millisecond),
			specdb.WithMeasure(20*specdb.Millisecond),
			specdb.WithRegistry(reg),
			specdb.WithSetup(func(p specdb.PartitionID, s *specdb.Store) {
				kvstore.AddSchema(s)
				kvstore.Load(s, p, clients, keys)
			}),
			specdb.WithWorkloadFactory(func() specdb.Generator {
				return &workload.Micro{Partitions: 4, KeysPerTxn: keys, MPFraction: 0.2}
			}),
			specdb.WithParallelism(specdb.ParallelismConfig{Shards: shards}),
		)
		if err != nil {
			log.Fatal(err)
		}
		return db.Run()
	}
	one, four := run(1), run(4)
	fmt.Println("throughput matches:", one.Throughput == four.Throughput)
	fmt.Println("events match:", one.Events == four.Events)
	fmt.Println("barriers match:", one.Parallel.Barriers == four.Parallel.Barriers)
	fmt.Printf("%.0f txns/s across %d shards\n", four.Throughput, four.Parallel.Shards)
	// Output:
	// throughput matches: true
	// events match: true
	// barriers match: true
	// 23400 txns/s across 4 shards
}

// ExampleScan runs a bounded YCSB-E-style mix — half the transactions are
// declared read-only short range scans against ordered B-tree tables — under
// two-phase locking, and reports how many of the committed transactions were
// scans. Scans are phantom-safe in every scheme: here the locking engine
// covers each scanned range with one shared range lock, so a writer into the
// range waits behind the scan instead of creating a phantom.
func ExampleScan() {
	reg := specdb.NewRegistry()
	reg.Register(kvstore.Proc{})
	const clients, keys = 4, 4
	db, err := specdb.Open(
		specdb.WithPartitions(2),
		specdb.WithClients(clients),
		specdb.WithScheme(specdb.Locking),
		specdb.WithSeed(7),
		specdb.WithRegistry(reg),
		specdb.WithSetup(func(p specdb.PartitionID, s *specdb.Store) {
			kvstore.AddOrderedSchema(s) // scans need the B-tree layout
			kvstore.Load(s, p, clients, keys)
		}),
		specdb.WithWorkload(&workload.Limit{Gen: &workload.Micro{
			Partitions:   2,
			KeysPerTxn:   keys,
			MPFraction:   0.25,
			ScanFraction: 0.5,
			ScanLength:   8,
		}, N: 200}),
	)
	if err != nil {
		log.Fatal(err)
	}
	res := db.Run() // finite generator: runs the 200 transactions to quiescence

	fmt.Println("committed:", res.Committed)
	fmt.Println("range scans:", res.CommittedScan)
	// Output:
	// committed: 200
	// range scans: 91
}

// ExampleWithElasticity turns on elastic repartitioning under a Zipfian
// hot-partition workload: home-partition popularity concentrates on partition
// 0, the saturation trigger fires at an evaluation interval, and the hot
// partition's upper key range is frozen, copied, and cut over to the idlest
// partition mid-run — a live split of the paper's otherwise static partition
// map. The migration timeline (trigger to cutover, the "dip") and the rows
// moved come back on the Result; determinism is unchanged, so the same seed
// reproduces the same split at the same virtual time.
func ExampleWithElasticity() {
	reg := specdb.NewRegistry()
	reg.Register(kvstore.Proc{})
	const clients, keys = 16, 6
	db, err := specdb.Open(
		specdb.WithPartitions(4),
		specdb.WithClients(clients),
		specdb.WithScheme(specdb.Speculation),
		specdb.WithSeed(11),
		specdb.WithWarmup(5*specdb.Millisecond),
		specdb.WithMeasure(40*specdb.Millisecond),
		specdb.WithRegistry(reg),
		specdb.WithSetup(func(p specdb.PartitionID, s *specdb.Store) {
			kvstore.AddSchema(s)
			kvstore.Load(s, p, clients, keys)
		}),
		specdb.WithWorkloadFactory(func() specdb.Generator {
			return &workload.Micro{KeysPerTxn: keys, PartitionSkew: 0.95}
		}),
		specdb.WithElasticity(specdb.ElasticityConfig{}),
	)
	if err != nil {
		log.Fatal(err)
	}
	res := db.Run()
	for _, m := range res.Migrations {
		fmt.Printf("migration: partition %d -> %d, %d rows, dip %v\n", m.From, m.To, m.RowsMoved, m.Dip())
	}
	fmt.Printf("total dip %v over %d migrations\n", res.MigrationDip, len(res.Migrations))
	// Output:
	// migration: partition 0 -> 3, 48 rows, dip 1284.817µs
	// total dip 1284.817µs over 1 migrations
}
