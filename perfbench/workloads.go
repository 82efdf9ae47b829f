package main

import (
	"fmt"
	"slices"

	"specdb"
	"specdb/internal/kvstore"
	"specdb/internal/storage"
	"specdb/internal/tpcc"
	"specdb/internal/workload"
)

// Shared shape of every workload: the paper's testbed of 40 closed-loop
// clients on two partitions (§5.1), on the default single-threaded kernel.
const (
	clients    = 40
	partitions = 2
	kvKeys     = 12
)

// workloadSpec is one fixed benchmark workload. Everything it builds derives
// from the seed, so the same seed gives the same inputs.
type workloadSpec struct {
	name string
	// opts are the workload-specific Open options (scheme, replicas,
	// durability).
	opts []specdb.Option
	// procs are the workload's stored procedures.
	procs []specdb.Procedure
	// setup returns the partition loader for a seed.
	setup func(seed int64) func(specdb.PartitionID, *specdb.Store)
	// gen returns a fresh generator (generators are stateful, one per DB).
	gen func() specdb.Generator
	// check verifies the drained cluster's outputs; committed counts every
	// committed transaction of the run, warm-up and drain included.
	check func(db *specdb.DB, committed uint64) error
	// warmup is the virtual time run before measuring, long enough that
	// allocs/txn has levelled (see NOTES.md).
	warmup specdb.Time
	// window is the measured virtual time of one round. It bounds the
	// heap a round grows (the command log and TPC-C's tables never shrink).
	window specdb.Time
	// setupReps is how many times each untraced round times Open; the
	// median over every timed Open is reported.
	setupReps int
}

var tpccLayout = tpcc.Layout{Warehouses: 20, Partitions: partitions}

var workloads = []*workloadSpec{
	{
		// §5.2 conflict microbenchmark under Locking: the only workload
		// where the lock manager and the fiber hand-off work, and the only
		// one that kills and retries.
		name:  "kv-locking",
		opts:  []specdb.Option{specdb.WithScheme(specdb.Locking)},
		procs: []specdb.Procedure{kvstore.Proc{}},
		setup: kvSetup,
		gen: func() specdb.Generator {
			return &workload.Micro{Partitions: partitions, KeysPerTxn: kvKeys, MPFraction: 0.3, ConflictProb: 0.2, Pinned: true}
		},
		check:     kvCheck,
		warmup:    2 * specdb.Second,
		window:    10 * specdb.Second,
		setupReps: 15,
	},
	{
		// §5.1 microbenchmark under Speculation with a backup and command
		// logging: speculation, undo, 2PC, replica apply and log append,
		// and no locks.
		name: "kv-spec-durable",
		opts: []specdb.Option{
			specdb.WithScheme(specdb.Speculation),
			specdb.WithReplicas(2),
			specdb.WithDurability(specdb.DurabilityConfig{}),
		},
		procs: []specdb.Procedure{kvstore.Proc{}},
		setup: kvSetup,
		gen: func() specdb.Generator {
			return &workload.Micro{Partitions: partitions, KeysPerTxn: kvKeys, MPFraction: 0.1}
		},
		check:     kvCheck,
		warmup:    2 * specdb.Second,
		window:    5 * specdb.Second,
		setupReps: 15,
	},
	{
		// TPC-C five-procedure mix under Speculation on 20 warehouses:
		// B-tree storage, range reads, a 41 MB heap and the only real
		// loader.
		name:  "tpcc",
		opts:  []specdb.Option{specdb.WithScheme(specdb.Speculation), specdb.WithCatalog(&specdb.Catalog{Meta: tpccLayout})},
		procs: tpccProcs(),
		setup: func(seed int64) func(specdb.PartitionID, *specdb.Store) {
			return tpcc.Loader{Layout: tpccLayout, Scale: tpcc.DefaultScale(), Seed: seed}.Load
		},
		gen: func() specdb.Generator {
			return &tpcc.Mix{Layout: tpccLayout, Scale: tpcc.DefaultScale(), RemoteItemProb: 0.01, RemotePaymentProb: 0.15}
		},
		check: func(db *specdb.DB, _ uint64) error {
			if err := tpcc.CheckConsistency(tpccLayout, primaries(db)); err != nil {
				return fmt.Errorf("tpcc consistency: %w", err)
			}
			return checkReplicas(db)
		},
		warmup:    500 * specdb.Millisecond,
		window:    3 * specdb.Second,
		setupReps: 2,
	},
}

func workloadByName(name string) (*workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func kvSetup(int64) func(specdb.PartitionID, *specdb.Store) {
	return func(p specdb.PartitionID, s *specdb.Store) {
		kvstore.AddSchema(s)
		kvstore.Load(s, p, clients, kvKeys)
	}
}

// kvCheck verifies that every committed transaction incremented exactly
// kvKeys counters, and that every backup equals its primary.
func kvCheck(db *specdb.DB, committed uint64) error {
	var sum int64
	for _, s := range primaries(db) {
		sum += kvstore.Sum(s)
	}
	if want := int64(kvKeys) * int64(committed); sum != want {
		return fmt.Errorf("kv sum %d != %d × %d committed", sum, kvKeys, committed)
	}
	return checkReplicas(db)
}

func checkReplicas(db *specdb.DB) error {
	for p := 0; p < partitions; p++ {
		primary := db.PartitionStore(specdb.PartitionID(p))
		for r, b := range db.BackupStores(specdb.PartitionID(p)) {
			if err := storage.DiffStores(primary, b); err != nil {
				return fmt.Errorf("partition %d backup %d differs: %w", p, r, err)
			}
		}
	}
	return nil
}

func primaries(db *specdb.DB) []*specdb.Store {
	out := make([]*specdb.Store, partitions)
	for p := range out {
		out[p] = db.PartitionStore(specdb.PartitionID(p))
	}
	return out
}

func tpccProcs() []specdb.Procedure {
	reg := specdb.NewRegistry()
	tpcc.RegisterAll(reg)
	names := reg.Names()
	slices.Sort(names)
	var out []specdb.Procedure
	for _, n := range names {
		out = append(out, reg.Get(n))
	}
	return out
}
