package specdb

import (
	"errors"
	"fmt"

	"specdb/internal/advisor"
	"specdb/internal/client"
	"specdb/internal/costs"
	"specdb/internal/fault"
	"specdb/internal/txn"
	"specdb/internal/workload"
)

// Open validation errors. Each is wrapped with the offending value where one
// exists, so callers can branch with errors.Is and still log useful detail.
var (
	// ErrNoRegistry: no procedure registry was supplied (WithRegistry).
	ErrNoRegistry = errors.New("specdb: no procedure registry (use WithRegistry)")
	// ErrNoWorkload: no workload generator was supplied (WithWorkload).
	ErrNoWorkload = errors.New("specdb: no workload generator (use WithWorkload)")
	// ErrBadScheme: the scheme is not one of Blocking, Speculation,
	// Locking, MVCC or OCC.
	ErrBadScheme = errors.New("specdb: unknown concurrency control scheme (want Blocking, Speculation, Locking, MVCC or OCC)")
	// ErrBadPartitions: the partition count is not positive.
	ErrBadPartitions = errors.New("specdb: partition count must be positive")
	// ErrBadClients: the client count is not positive.
	ErrBadClients = errors.New("specdb: client count must be positive")
	// ErrBadReplicas: the replica count (k) is not positive.
	ErrBadReplicas = errors.New("specdb: replica count must be positive")
	// ErrBadWindow: warmup or measure is negative.
	ErrBadWindow = errors.New("specdb: warmup and measure must be non-negative")
	// ErrBadFaults: the fault schedule is invalid for the cluster shape
	// (partition out of range, CrashPrimary without a backup to promote,
	// more than one fault per partition, or bad detector parameters).
	ErrBadFaults = errors.New("specdb: invalid fault schedule")
	// ErrFaultsLocking: fault injection is limited to the coordinator-based
	// schemes; under locking, clients coordinate 2PC themselves and there
	// is no central decision log to recover buffered transactions from.
	ErrFaultsLocking = errors.New("specdb: fault injection is not supported under the locking scheme")
	// ErrFaultsAdvisor: the advisor may recommend switching to locking
	// mid-run, which fault injection does not support.
	ErrFaultsAdvisor = errors.New("specdb: fault injection cannot be combined with WithAdvisor")
	// ErrBadOpenLoop: the open-loop configuration is invalid (rate not
	// positive, or a negative window/queue other than QueueNone).
	ErrBadOpenLoop = errors.New("specdb: invalid open-loop configuration")
	// ErrOpenLoopUnbounded: open-loop arrivals never cease, so an
	// open-ended run (Measure zero) would not terminate; set WithMeasure.
	ErrOpenLoopUnbounded = errors.New("specdb: open-loop runs need a measurement window (WithMeasure)")
	// ErrFaultsOpenLoopWindow: failover recovery deduplicates resends by
	// remembering one reply per client, which assumes at most one
	// transaction outstanding per client; open-loop windows above one break
	// that.
	ErrFaultsOpenLoopWindow = errors.New("specdb: fault injection is limited to open-loop windows of 1")
	// ErrBadDurability: a DurabilityConfig field is negative.
	ErrBadDurability = errors.New("specdb: invalid durability configuration")
	// ErrBadParallelism: the ParallelismConfig is invalid — Shards not
	// positive, or a Horizon that is negative or exceeds the cost model's
	// one-way network latency (the minimum cross-shard message latency, and
	// therefore the largest window the conservative barrier protocol can
	// run without reordering).
	ErrBadParallelism = errors.New("specdb: invalid parallelism configuration")
	// ErrBadElasticity: the ElasticityConfig is invalid for this setup — a
	// negative or out-of-range field, fewer than two partitions (nothing to
	// rebalance between), or a workload that cannot be re-targeted after a
	// key-range migration (not RouterAware after unwrapping, or one whose
	// mode rejects routing, e.g. range scans).
	ErrBadElasticity = errors.New("specdb: invalid elasticity configuration")
)

// Option configures a DB at Open time. Options apply in order, so later
// options override earlier ones — which is how Sweep axes specialize a shared
// base configuration.
type Option func(*settings)

// settings is the resolved configuration a DB is assembled from.
type settings struct {
	partitions int
	clients    int
	scheme     Scheme
	replicas   int
	costs      CostModel
	lockCfg    LockConfig
	specCfg    SpecConfig
	seed       int64
	warmup     Time
	measure    Time
	registry   *Registry
	catalog    *Catalog
	setup      func(PartitionID, *Store)
	workload   Generator
	onComplete func(clientIdx int, inv *Invocation, reply *Reply)
	advisor    *advisor.Config
	faults     []fault.Event
	detect     fault.Detection
	openLoop   *OpenLoopConfig
	durable    *DurabilityConfig
	parallel   *ParallelismConfig
	elastic    *ElasticityConfig
	// history enables the serializability oracle's per-partition value-
	// trace recording (test-only; see internal/oracle and DB histories).
	history bool
	// brokenOCC disables OCC commit validation — the oracle's negative
	// control: with it set, the OCC engine intentionally commits
	// unserializable histories that Verify must reject (test-only).
	brokenOCC bool
}

// defaultSettings mirrors the paper's testbed: two partitions, 40 closed-loop
// clients (§5.1), speculative concurrency control, no replication, Table 2
// costs, and an open-ended run (Measure zero runs to quiescence).
func defaultSettings() settings {
	return settings{
		partitions: 2,
		clients:    40,
		scheme:     Speculation,
		replicas:   1,
		costs:      costs.Default(),
	}
}

func (s *settings) validate() error {
	if s.partitions <= 0 {
		return fmt.Errorf("%w (got %d)", ErrBadPartitions, s.partitions)
	}
	if s.clients <= 0 {
		return fmt.Errorf("%w (got %d)", ErrBadClients, s.clients)
	}
	if s.replicas <= 0 {
		return fmt.Errorf("%w (got %d)", ErrBadReplicas, s.replicas)
	}
	switch s.scheme {
	case Blocking, Speculation, Locking, MVCC, OCC:
	default:
		return fmt.Errorf("%w (%d)", ErrBadScheme, int(s.scheme))
	}
	if s.warmup < 0 || s.measure < 0 {
		return fmt.Errorf("%w (warmup=%v measure=%v)", ErrBadWindow, s.warmup, s.measure)
	}
	if s.registry == nil {
		return ErrNoRegistry
	}
	if s.workload == nil {
		return ErrNoWorkload
	}
	if len(s.faults) > 0 {
		if s.scheme == Locking {
			return ErrFaultsLocking
		}
		if s.advisor != nil {
			return ErrFaultsAdvisor
		}
		if err := fault.Validate(s.faults, s.partitions, s.replicas, s.detect.WithDefaults(), s.durable != nil); err != nil {
			return fmt.Errorf("%w: %v", ErrBadFaults, err)
		}
	}
	if s.durable != nil {
		d := *s.durable
		if d.GroupCommit.MaxBytes < 0 || d.GroupCommit.MaxDelay < 0 ||
			d.CheckpointInterval < 0 || d.DiskLatency < 0 || d.DiskBandwidth < 0 {
			return fmt.Errorf("%w (%+v)", ErrBadDurability, d)
		}
	}
	if s.parallel != nil {
		p := *s.parallel
		if p.Shards < 1 {
			return fmt.Errorf("%w (shards=%d)", ErrBadParallelism, p.Shards)
		}
		if p.Horizon < 0 || p.Horizon > s.costs.OneWayLatency {
			return fmt.Errorf("%w (horizon=%v, one-way latency=%v)", ErrBadParallelism, p.Horizon, s.costs.OneWayLatency)
		}
		if p.Horizon == 0 && s.costs.OneWayLatency <= 0 {
			return fmt.Errorf("%w (no positive horizon: one-way latency=%v)", ErrBadParallelism, s.costs.OneWayLatency)
		}
	}
	if s.elastic != nil {
		e := *s.elastic
		if s.partitions < 2 {
			return fmt.Errorf("%w (need at least 2 partitions, got %d)", ErrBadElasticity, s.partitions)
		}
		if e.Interval < 0 || e.SaturationFraction < 0 || e.SaturationFraction > 1 ||
			e.SaturationRatio < 0 || e.Holdoff < 0 || e.MaxMigrations < 0 ||
			e.CopyLatency < 0 || e.CopyBandwidth < 0 {
			return fmt.Errorf("%w (%+v)", ErrBadElasticity, e)
		}
		if _, ok := s.workload.(workload.RouterAware); !ok {
			return fmt.Errorf("%w (workload %T cannot re-target keys after a migration)", ErrBadElasticity, s.workload)
		}
	}
	if s.openLoop != nil {
		ol := s.openLoop.withDefaults()
		if s.openLoop.Rate <= 0 {
			return fmt.Errorf("%w (rate=%g)", ErrBadOpenLoop, s.openLoop.Rate)
		}
		if s.openLoop.Window < 0 || (s.openLoop.Queue < 0 && s.openLoop.Queue != QueueNone) {
			return fmt.Errorf("%w (window=%d queue=%d)", ErrBadOpenLoop, s.openLoop.Window, s.openLoop.Queue)
		}
		if s.measure == 0 {
			return ErrOpenLoopUnbounded
		}
		if len(s.faults) > 0 && ol.Window > 1 {
			return ErrFaultsOpenLoopWindow
		}
	}
	return nil
}

// WithPartitions sets the number of data partitions, each with one
// single-threaded primary. Default 2 (the paper's microbenchmark testbed).
func WithPartitions(n int) Option { return func(s *settings) { s.partitions = n } }

// WithClients sets the number of closed-loop clients. Default 40 (§5.1).
func WithClients(n int) Option { return func(s *settings) { s.clients = n } }

// WithScheme selects the concurrency control scheme. Default Speculation.
func WithScheme(sc Scheme) Option { return func(s *settings) { s.scheme = sc } }

// WithReplicas sets k, the total copies of each partition; k=1 (the default)
// disables replication, as in the paper's model validation (§6.4).
func WithReplicas(k int) Option { return func(s *settings) { s.replicas = k } }

// WithCosts replaces the Table 2 cost calibration.
func WithCosts(cm CostModel) Option { return func(s *settings) { s.costs = cm } }

// WithLockConfig tunes the locking engine (§4.3).
func WithLockConfig(cfg LockConfig) Option { return func(s *settings) { s.lockCfg = cfg } }

// WithSpecConfig tunes the speculative engine (local-only ablation, §4.2.1).
func WithSpecConfig(cfg SpecConfig) Option { return func(s *settings) { s.specCfg = cfg } }

// WithSeed makes the run a pure function of the configuration. Default 0.
func WithSeed(seed int64) Option { return func(s *settings) { s.seed = seed } }

// WithWarmup sets the warm-up period before the measurement window.
func WithWarmup(d Time) Option { return func(s *settings) { s.warmup = d } }

// WithMeasure sets the measurement window length. Zero (the default) runs
// the workload to completion — finite generators only.
func WithMeasure(d Time) Option { return func(s *settings) { s.measure = d } }

// WithRegistry installs the stored procedure registry. Required.
func WithRegistry(reg *Registry) Option { return func(s *settings) { s.registry = reg } }

// WithCatalog describes data distribution; NumPartitions is filled in
// automatically. Optional.
func WithCatalog(cat *Catalog) Option { return func(s *settings) { s.catalog = cat } }

// WithSetup installs schema and loads data on each partition's store (and on
// each backup's).
func WithSetup(fn func(p PartitionID, s *Store)) Option {
	return func(s *settings) { s.setup = fn }
}

// WithWorkload installs the client request generator. Required (or
// WithWorkloadFactory).
func WithWorkload(gen Generator) Option { return func(s *settings) { s.workload = gen } }

// WithWorkloadFactory installs a fresh generator per Open by calling mk at
// option-application time. Sweeps reuse option values across cells and
// repeats, so stateful generators (Script, Limit) must come from a factory
// to avoid leaking consumed state between runs.
func WithWorkloadFactory(mk func() Generator) Option {
	return func(s *settings) { s.workload = mk() }
}

// ArrivalProcess selects how open-loop interarrival gaps are drawn.
type ArrivalProcess = client.Process

// Arrival processes for OpenLoopConfig.
const (
	// PoissonArrivals draws exponential interarrival gaps — the memoryless
	// aggregate of many independent users. The default.
	PoissonArrivals = client.Poisson
	// UniformArrivals spaces arrivals exactly evenly (a paced load
	// generator); clients are phase-staggered so the aggregate stream is
	// even too.
	UniformArrivals = client.Uniform
)

// QueueNone disables the open-loop pending queue: arrivals beyond the
// in-flight window are shed immediately.
const QueueNone = -1

// Default open-loop bounds applied for zero OpenLoopConfig fields.
const (
	// DefaultOpenLoopWindow is the per-client in-flight bound.
	DefaultOpenLoopWindow = 1
	// DefaultOpenLoopQueue is the per-client pending-arrival bound.
	DefaultOpenLoopQueue = 16
)

// OpenLoopConfig configures open-loop load generation (WithOpenLoop).
type OpenLoopConfig struct {
	// Rate is the aggregate offered load in transactions per second of
	// virtual time, divided evenly across the clients. Required.
	Rate float64
	// Process selects Poisson (default) or uniform interarrival gaps.
	Process ArrivalProcess
	// Window bounds each client's simultaneously in-flight transactions
	// (default 1).
	Window int
	// Queue bounds each client's arrivals waiting for a window slot
	// (default 16; QueueNone disables queueing). Arrivals beyond window
	// and queue are shed and counted (Result.Shed) — bounded backpressure,
	// never an unbounded backlog.
	Queue int
}

// withDefaults fills zero fields.
func (c OpenLoopConfig) withDefaults() OpenLoopConfig {
	if c.Window == 0 {
		c.Window = DefaultOpenLoopWindow
	}
	if c.Queue == 0 {
		c.Queue = DefaultOpenLoopQueue
	}
	if c.Queue == QueueNone {
		c.Queue = 0
	}
	return c
}

// WithOpenLoop replaces the paper's closed-loop clients with an open-loop
// arrival process: requests arrive at the configured aggregate rate on a
// deterministic Poisson or uniform stream regardless of how fast the cluster
// responds, each client holding at most Window transactions in flight with a
// bounded pending queue behind it (overload sheds arrivals rather than
// growing memory). Latency is measured from arrival, so queue wait — the
// open-loop overload signal the closed loop cannot express — shows up in the
// percentiles. Interarrival gaps come from each client's seeded RNG, so runs
// stay bit-for-bit reproducible. Requires WithMeasure (arrivals never
// cease); fault schedules require Window 1 (recovery resend dedup remembers
// one reply per client).
func WithOpenLoop(cfg OpenLoopConfig) Option {
	return func(s *settings) { c := cfg; s.openLoop = &c }
}

// WithOnComplete observes every completed transaction (scripted runs).
func WithOnComplete(fn func(clientIdx int, inv *Invocation, reply *Reply)) Option {
	return func(s *settings) { s.onComplete = fn }
}

// WithAdvisor enables online adaptive concurrency control (§5.7): at every
// cfg.Interval of virtual time during Run and RunFor, the DB measures the
// interval's multi-partition fraction, multi-round fraction, abort rate and
// conflict rate, feeds them through the §6 analytical model, and — subject
// to the advisor's hysteresis (sample-size gate, improvement margin, switch
// holdoff) — calls SetScheme with the model's recommendation. Zero Config
// fields take documented defaults; WithScheme still selects the starting
// scheme. Switches appear in SchemeHistory with Auto set. The fine-grained
// drivers RunUntil and Step do not evaluate the advisor.
func WithAdvisor(cfg AdvisorConfig) Option {
	return func(s *settings) { c := cfg; s.advisor = &c }
}

// FaultEvent is one scheduled fail-stop crash; build with CrashPrimary or
// CrashBackup.
type FaultEvent = fault.Event

// CrashPrimary schedules partition p's primary to fail-stop at the given
// virtual time: the process dies mid-whatever-it-was-doing, messages to it
// are dropped, and after the detection timeout the partition's first backup
// promotes itself. Requires WithReplicas(k) with k >= 2.
func CrashPrimary(p PartitionID, at Time) FaultEvent {
	return fault.Event{Kind: fault.KindCrashPrimary, Partition: p, At: at}
}

// CrashRestart schedules partition p's primary to fail-stop at the given
// virtual time and come back from disk: after the restart delay (the failure-
// detection timeout, modeling the supervisor noticing the dead process), the
// restarted process loads the latest durable checkpoint, replays the command-
// log tail, resolves in-flight transactions through the coordinator's decision
// log, and resumes as primary. Requires WithDurability and is mutually
// exclusive with replication (use CrashPrimary for failover).
func CrashRestart(p PartitionID, at Time) FaultEvent {
	return fault.Event{Kind: fault.KindCrashRestart, Partition: p, At: at}
}

// CrashBackup schedules partition p's replica-th backup (1-based) to
// fail-stop at the given virtual time. The primary detects the silence,
// detaches the backup, and releases every vote and reply that was gated on
// its acknowledgments.
func CrashBackup(p PartitionID, replica int, at Time) FaultEvent {
	return fault.Event{Kind: fault.KindCrashBackup, Partition: p, Replica: replica, At: at}
}

// WithFaults installs a deterministic crash-fault schedule: each event kills
// one process at a fixed virtual time, and the failure detector / promotion
// machinery recovers (see docs/ARCHITECTURE.md, "Failures and recovery").
// The same seed and schedule reproduce the same Result bit for bit. Each
// partition may appear in at most one event; primary crashes require
// replication (WithReplicas >= 2); the locking scheme and WithAdvisor are
// not supported with faults.
func WithFaults(events ...FaultEvent) Option {
	return func(s *settings) { s.faults = append([]FaultEvent(nil), events...) }
}

// WithFailureDetection tunes the fault-run failure detector: heartbeat is
// the liveness pulse interval and timeout the silence threshold after which
// a process is declared dead. The timeout must be at least twice the
// heartbeat and comfortably exceed the worst heartbeat delivery delay
// (network latency plus receiver CPU backlog), or a loaded-but-alive
// process gets declared dead. Defaults: 1 ms heartbeat, 10 ms timeout.
func WithFailureDetection(heartbeat, timeout Time) Option {
	return func(s *settings) { s.detect = fault.Detection{Heartbeat: heartbeat, Timeout: timeout} }
}

// Default durability parameters applied for zero DurabilityConfig fields.
const (
	// DefaultGroupCommitBytes seals a group-commit batch at 4 KiB.
	DefaultGroupCommitBytes = 4096
	// DefaultGroupCommitDelay bounds a record's wait for its batch at 50 µs.
	DefaultGroupCommitDelay = 50 * Microsecond
	// DefaultCheckpointInterval spaces fuzzy checkpoints 25 ms apart.
	DefaultCheckpointInterval = 25 * Millisecond
	// DefaultDiskLatency is the simulated log device's per-write latency,
	// 20 µs — a datacenter NVMe flush.
	DefaultDiskLatency = 20 * Microsecond
	// DefaultDiskBandwidth is the simulated log device's throughput,
	// 500 MiB/s.
	DefaultDiskBandwidth = 500 << 20
)

// GroupCommitConfig bounds the command log's write batching: a batch is
// written when it reaches MaxBytes or when its oldest record has waited
// MaxDelay, whichever comes first.
type GroupCommitConfig struct {
	// MaxBytes seals the open batch by size (default 4096).
	MaxBytes int
	// MaxDelay seals a non-empty open batch by age (default 50 µs) — the
	// latency bound a committed transaction's reply can wait on the log.
	MaxDelay Time
}

// DurabilityConfig enables the durability subsystem: each partition appends
// committed transaction invocations to a per-partition command log (group-
// committed to a simulated disk), captures fuzzy checkpoints of its store on
// the configured interval, and can recover from a crash by reloading the
// latest checkpoint and replaying the log tail (see CrashRestart). Zero
// fields take the documented defaults.
type DurabilityConfig struct {
	// GroupCommit bounds write batching.
	GroupCommit GroupCommitConfig
	// CheckpointInterval is the target time between fuzzy checkpoints
	// (default 25 ms). Shorter intervals mean shorter log tails and faster
	// recovery, at the cost of more checkpoint writes.
	CheckpointInterval Time
	// DiskLatency is the simulated log device's fixed per-operation latency
	// (default 20 µs).
	DiskLatency Time
	// DiskBandwidth is the device's throughput in bytes per second of
	// virtual time (default 500 MiB/s), charged on top of DiskLatency.
	DiskBandwidth float64
}

// withDefaults fills zero fields.
func (c DurabilityConfig) withDefaults() DurabilityConfig {
	if c.GroupCommit.MaxBytes == 0 {
		c.GroupCommit.MaxBytes = DefaultGroupCommitBytes
	}
	if c.GroupCommit.MaxDelay == 0 {
		c.GroupCommit.MaxDelay = DefaultGroupCommitDelay
	}
	if c.CheckpointInterval == 0 {
		c.CheckpointInterval = DefaultCheckpointInterval
	}
	if c.DiskLatency == 0 {
		c.DiskLatency = DefaultDiskLatency
	}
	if c.DiskBandwidth == 0 {
		c.DiskBandwidth = DefaultDiskBandwidth
	}
	return c
}

// WithDurability enables command logging and fuzzy checkpointing. Committed
// single-partition replies and multi-partition commit votes are released only
// once their log record's group-commit batch is on the simulated disk — the
// disk edition of forwarding to backups — so durable runs trade a little
// latency for crash-restart recovery (CrashRestart). Runs without faults
// still pay the logging overhead, which is exactly what the durable-overhead
// benchmark measures.
func WithDurability(cfg DurabilityConfig) Option {
	return func(s *settings) { c := cfg; s.durable = &c }
}

// ParallelismConfig configures the sharded parallel runtime.
type ParallelismConfig struct {
	// Shards is the number of event-loop shards (OS threads). Each shard
	// owns a disjoint group of partition/replica/disk actors plus a slice of
	// clients; the coordinator and fault controller live on shard 0. Must be
	// at least 1. Shards == 1 runs the identical windowed algorithm on one
	// goroutine and is the determinism baseline: a run at any width is
	// bit-identical to it.
	Shards int
	// Horizon is the conservative time-window length: all shards advance to
	// a common bound, exchange cross-shard sends, and repeat. It must not
	// exceed the cost model's one-way network latency — the minimum latency
	// of any cross-shard message — or the runtime panics at the first send
	// that would arrive inside its own window. Zero means use the one-way
	// latency, the largest (fewest barriers) safe window. Smaller horizons
	// only add barrier overhead; see docs/ARCHITECTURE.md for tuning.
	Horizon Time
}

// WithParallelism widens the event kernel: one event loop per shard on its
// own goroutine, synchronized by conservative time-window barriers. Every DB
// runs on this kernel; without the option it has a single shard (Horizon
// the one-way latency) and reports no Result.Parallel. Results are
// bit-identical at every shard count (Result.Parallel, which reports runtime
// observability such as cross-shard message counts, is the one
// width-dependent field), except where DB.Stop halts a run: at widths above
// 1 the stop lands on the next window barrier.
//
// Caveats: workload generators must not share mutable state across clients
// (Micro and TPC-C's Mix as wired by Open are safe only for Micro; stateful
// generators like Script, Limit, and Mixed require Shards == 1), and
// OnComplete callbacks may be invoked concurrently from different shards —
// they are serialized by an internal mutex, but their relative order across
// clients on different shards is unspecified.
func WithParallelism(cfg ParallelismConfig) Option {
	return func(s *settings) { c := cfg; s.parallel = &c }
}

// Default elasticity parameters applied for zero ElasticityConfig fields.
const (
	// DefaultElasticInterval spaces saturation evaluations 10 ms apart.
	DefaultElasticInterval = 10 * Millisecond
	// DefaultSaturationFraction is the busy fraction of an interval above
	// which a partition counts as saturated.
	DefaultSaturationFraction = 0.75
	// DefaultSaturationRatio is how many times busier than the mean of the
	// other partitions the hottest one must be before a split pays.
	DefaultSaturationRatio = 2.0
	// DefaultElasticHoldoff is the number of evaluation intervals skipped
	// after a migration.
	DefaultElasticHoldoff = 1
	// DefaultMaxMigrations bounds the migrations per run.
	DefaultMaxMigrations = 4
	// DefaultCopyLatency is the fixed setup cost charged to donor and
	// destination for one migration, 500 µs.
	DefaultCopyLatency = 500 * Microsecond
	// DefaultCopyBandwidth is the row-copy throughput in bytes per second
	// of virtual time, 100 MiB/s.
	DefaultCopyBandwidth = 100 << 20
)

// ElasticityConfig enables elastic repartitioning (WithElasticity).
type ElasticityConfig struct {
	// Interval is the saturation evaluation period (default 10 ms).
	Interval Time
	// SaturationFraction is the busy-time fraction above which the hottest
	// partition counts as saturated (default 0.75).
	SaturationFraction float64
	// SaturationRatio is the skew threshold: the hottest partition must be
	// at least this multiple of the mean busy time of the remaining
	// partitions (default 2.0).
	SaturationRatio float64
	// Holdoff is how many evaluation intervals to skip after a migration
	// (default 1).
	Holdoff int
	// MaxMigrations bounds the migrations per run (default 4), keeping a
	// pathologically skewed workload from thrashing rows between
	// partitions forever.
	MaxMigrations int
	// CopyLatency is the fixed per-migration setup cost charged to the
	// donor and the destination (default 500 µs).
	CopyLatency Time
	// CopyBandwidth is the row-copy throughput in bytes per second of
	// virtual time (default 100 MiB/s), charged on top of CopyLatency for
	// the migrated bytes.
	CopyBandwidth float64
	// Manual disables the saturation trigger: migrations happen only
	// through explicit DB.Migrate calls.
	Manual bool
}

// withDefaults fills zero fields.
func (c ElasticityConfig) withDefaults() ElasticityConfig {
	if c.Interval == 0 {
		c.Interval = DefaultElasticInterval
	}
	if c.SaturationFraction == 0 {
		c.SaturationFraction = DefaultSaturationFraction
	}
	if c.SaturationRatio == 0 {
		c.SaturationRatio = DefaultSaturationRatio
	}
	if c.Holdoff == 0 {
		c.Holdoff = DefaultElasticHoldoff
	}
	if c.MaxMigrations == 0 {
		c.MaxMigrations = DefaultMaxMigrations
	}
	if c.CopyLatency == 0 {
		c.CopyLatency = DefaultCopyLatency
	}
	if c.CopyBandwidth == 0 {
		c.CopyBandwidth = DefaultCopyBandwidth
	}
	return c
}

// WithElasticity enables elastic repartitioning: at every cfg.Interval of
// virtual time during Run and RunFor, the DB compares per-partition busy
// times and — when one partition is saturated while the rest idle — migrates
// the upper half of the hot partition's key range to the idlest partition
// through a freeze–copy–cutover: the cluster drains to a quiescent point,
// the rows move (priced by CopyLatency and CopyBandwidth), the routing epoch
// advances so workload generators re-target the moved keys, and the paused
// clients resume. Each migration appears in Result.Migrations with its
// timeline; the trigger's hysteresis (saturation fraction, skew ratio,
// post-migration holdoff, MaxMigrations cap) keeps a balanced cluster from
// thrashing. Manual mode skips the trigger and exposes DB.Migrate instead.
//
// Requires at least two partitions and a workload whose generator can
// re-target keys after a migration (workload.Micro; range-scan mixes are
// rejected, their rank-interval bounds cannot follow migrated rows). The
// routing table is deterministic, so elastic runs stay bit-identical across
// same-seed runs and shard widths, and compose with durability: migrations
// are logged and replayed by crash-restart recovery. The fine-grained
// drivers RunUntil and Step do not evaluate the trigger.
func WithElasticity(cfg ElasticityConfig) Option {
	return func(s *settings) { c := cfg; s.elastic = &c }
}

// arrivalFor builds client i's arrival process, or nil for closed-loop
// runs. The aggregate rate divides evenly: each client's mean gap is
// clients/Rate seconds. Uniform clients are phase-staggered by 1/Rate so the
// aggregate stream stays evenly spaced.
func (s *settings) arrivalFor(i int) *client.Arrival {
	if s.openLoop == nil {
		return nil
	}
	ol := s.openLoop.withDefaults()
	mean := Time(float64(s.clients) / ol.Rate * float64(Second))
	if mean < 1 {
		mean = 1
	}
	a := &client.Arrival{
		Mean:    mean,
		Process: ol.Process,
		Window:  ol.Window,
		Queue:   ol.Queue,
	}
	if ol.Process == UniformArrivals {
		a.Phase = mean * Time(i) / Time(s.clients)
	}
	return a
}

// withSeedOffset shifts the configured seed; Sweep uses it to derive distinct
// deterministic seeds for repeated cells.
func withSeedOffset(off int64) Option { return func(s *settings) { s.seed += off } }

// withHistory enables serializability-oracle recording (test-only; the
// histories are read back through DB.histories by this package's tests).
func withHistory() Option { return func(s *settings) { s.history = true } }

// withBrokenOCC disables OCC commit validation — the oracle tests' negative
// control (test-only).
func withBrokenOCC() Option { return func(s *settings) { s.brokenOCC = true } }

// catalogOrDefault returns the configured catalog (or an empty one) with
// NumPartitions filled in.
func (s *settings) catalogOrDefault() *Catalog {
	cat := s.catalog
	if cat == nil {
		cat = &txn.Catalog{}
	}
	cat.NumPartitions = s.partitions
	return cat
}
