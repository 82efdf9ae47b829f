// Package specdb is a partitioned, main-memory, H-Store-style transaction
// processing library reproducing "Low Overhead Concurrency Control for
// Partitioned Main Memory Databases" (Jones, Abadi, Madden — SIGMOD 2010).
//
// Open assembles single-threaded partition engines, optional backup
// replicas, a central coordinator, and closed-loop clients on a
// deterministic discrete-event simulation of the paper's testbed. Five
// concurrency control schemes decide what a partition does during the
// network stalls of multi-partition transactions: blocking, speculative
// execution, single-threaded two-phase locking, multiversion timestamp
// ordering (MVCC — declared read-only transactions run from snapshots and
// never block or abort), and optimistic concurrency control (OCC —
// transactions run immediately and validate their read sets at commit).
//
// Quick start:
//
//	reg := specdb.NewRegistry()
//	reg.Register(kvstore.Proc{})
//	db, err := specdb.Open(
//	    specdb.WithPartitions(2),
//	    specdb.WithScheme(specdb.Speculation),
//	    specdb.WithRegistry(reg),
//	    specdb.WithSetup(func(p specdb.PartitionID, s *specdb.Store) { ... }),
//	    specdb.WithWorkload(&workload.Micro{...}),
//	    specdb.WithWarmup(100*specdb.Millisecond),
//	    specdb.WithMeasure(400*specdb.Millisecond),
//	)
//	if err != nil {
//	    log.Fatal(err)
//	}
//	res := db.Run()
//	fmt.Println(res.Throughput)
//
// Beyond one-shot runs, a DB is driven interactively: RunFor and Step advance
// virtual time in increments, RunUntil runs to a predicate, Snapshot observes
// live counters (with interval rates between snapshots), and SetWorkload
// swaps the request generator between phases. The Sweep type runs grids of
// option sets — scheme × workload × repeats — which is how the paper's
// figures are regenerated (internal/bench, cmd/ccbench).
//
// Because no single scheme wins everywhere (§5.7, Figure 10), the scheme is
// not fixed at Open: SetScheme drains a live cluster to a quiescent point
// and swaps every partition's engine mid-run, and WithAdvisor automates the
// choice by feeding measured interval statistics through the §6 analytical
// model with hysteresis. See ExampleDB_SetScheme and examples/advisor.
package specdb

import (
	"fmt"
	"sort"
	"sync"

	"specdb/internal/advisor"
	"specdb/internal/client"
	"specdb/internal/coordinator"
	"specdb/internal/core"
	"specdb/internal/costs"
	"specdb/internal/durable"
	"specdb/internal/elastic"
	"specdb/internal/fault"
	"specdb/internal/locks"
	"specdb/internal/metrics"
	"specdb/internal/model"
	"specdb/internal/msg"
	"specdb/internal/mvcc"
	"specdb/internal/occ"
	"specdb/internal/oracle"
	"specdb/internal/partition"
	"specdb/internal/replication"
	"specdb/internal/sim"
	"specdb/internal/simnet"
	"specdb/internal/storage"
	"specdb/internal/txn"
	"specdb/internal/workload"
)

// Re-exported names so callers assemble clusters from this package alone.
type (
	// Scheme selects a concurrency control scheme.
	Scheme = core.Scheme
	// PartitionID numbers data partitions from 0.
	PartitionID = msg.PartitionID
	// Store is a partition's table collection.
	Store = storage.Store
	// Registry holds stored procedures.
	Registry = txn.Registry
	// Catalog describes data distribution.
	Catalog = txn.Catalog
	// Invocation is one transaction request.
	Invocation = txn.Invocation
	// Reply is a completed transaction's outcome.
	Reply = msg.ClientReply
	// Time is virtual time in nanoseconds.
	Time = sim.Time
	// CostModel prices CPU and network.
	CostModel = costs.Model
	// LockConfig tunes the locking engine.
	LockConfig = core.LockConfig
	// SpecConfig tunes the speculative engine.
	SpecConfig = core.SpecConfig
	// Procedure is a stored procedure implementation.
	Procedure = txn.Procedure
	// Plan is a procedure's fragment layout.
	Plan = txn.Plan
	// TxnView is the data-access handle passed to fragment bodies.
	TxnView = storage.TxnView
	// FragmentResult is a fragment's output, seen by continuations.
	FragmentResult = msg.FragmentResult
	// Generator produces client requests (see internal/workload for the
	// microbenchmark family; any implementation works).
	Generator = workload.Generator
	// AdvisorConfig tunes the online scheme advisor (see WithAdvisor).
	AdvisorConfig = advisor.Config
	// ModelParams are the §6 analytical model's measured variables
	// (AdvisorConfig.Params); the zero value selects PaperModelParams.
	ModelParams = model.Params
	// ModelObserved are measured workload statistics accepted by the §6
	// model's Predict/Recommend entry points.
	ModelObserved = model.Observed
)

// PaperModelParams returns the Table 2 model variables measured on the
// authors' testbed, which the default cost model is calibrated to.
func PaperModelParams() ModelParams { return model.PaperParams() }

// ErrUserAbort aborts the invoking transaction when returned from a
// fragment body.
var ErrUserAbort = txn.ErrUserAbort

// NoAbort disables abort injection on an Invocation.
const NoAbort = txn.NoAbort

// Scheme values.
const (
	Blocking    = core.SchemeBlocking
	Speculation = core.SchemeSpeculative
	Locking     = core.SchemeLocking
	MVCC        = core.SchemeMVCC
	OCC         = core.SchemeOCC
)

// Time units.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// NewRegistry returns an empty procedure registry.
func NewRegistry() *Registry { return txn.NewRegistry() }

// DefaultCosts returns the Table 2 cost calibration.
func DefaultCosts() CostModel { return costs.Default() }

// DB is an assembled cluster: a handle that can be run to completion, driven
// in increments, observed mid-run, and inspected afterwards. A DB is not
// safe for concurrent use; the drive calls are issued from one goroutine
// even when WithParallelism fans the event loop out over shards.
type DB struct {
	cfg       settings
	costModel CostModel
	sch       *sim.ShardedScheduler
	net       *simnet.Net
	parts     []*partition.Partition
	partIDs   []sim.ActorID
	backups   [][]*replication.Backup
	backupIDs [][]sim.ActorID
	coord     *coordinator.Coordinator
	coordID   sim.ActorID
	clients   []*client.Client
	clientIDs []sim.ActorID
	collector *metrics.Collector
	// loggers holds each partition's command log (nil entries — and a nil
	// slice — when durability is off). restarters holds the crash-restart
	// actors, indexed by partition; entries exist only for partitions with a
	// scheduled CrashRestart fault.
	loggers      []*durable.Logger
	restarters   []*replication.Restarter
	restarterIDs []sim.ActorID
	// faultCtlID is the fault-injection controller actor (0 when the run
	// has no fault schedule).
	faultCtlID sim.ActorID
	// histories holds each partition's serializability-oracle trace when
	// the test-only withHistory option is set (nil otherwise).
	histories []*oracle.PartitionHistory

	started bool
	// cursor is the virtual time the simulation has been driven to (the
	// time horizon passed to the scheduler, not merely the last event).
	cursor Time
	// Snapshot interval baseline (counters and latency histograms).
	snapAt     Time
	snapCounts metrics.Counts
	snapLat    metrics.LatencySet

	// Adaptive concurrency control (WithAdvisor).
	adv       *advisor.Advisor
	advNextAt Time               // next evaluation boundary
	advBase   metrics.Counts     // advisor's own interval baseline
	advLat    metrics.LatencySet // advisor's latency baseline
	history   []SchemeChange

	// Elastic repartitioning (WithElasticity). router is the live routing
	// table shared with the workload generator; etrig is nil in Manual
	// mode (migrations only through Migrate).
	router   *elastic.Router
	elCfg    ElasticityConfig
	etrig    *advisor.Elastic
	elNextAt Time   // next saturation evaluation boundary
	elAt     Time   // time baseline of the current evaluation interval
	elBusy   []Time // per-partition busy-time baselines
}

// SchemeChange records one concurrency control switch on a live DB.
type SchemeChange struct {
	// At is the virtual time of the switch — after the drain to a
	// quiescent point completed.
	At Time
	// From and To are the schemes before and after the switch.
	From, To Scheme
	// Auto marks switches decided by the advisor; manual SetScheme calls
	// leave it false.
	Auto bool
}

// engineFactory returns the constructor for the validated scheme.
func (db *DB) engineFactory(scheme Scheme) func(env core.Env) core.Engine {
	switch scheme {
	case Blocking:
		return func(env core.Env) core.Engine { return core.NewBlocking(env) }
	case Speculation:
		specCfg := db.cfg.specCfg
		return func(env core.Env) core.Engine { return core.NewSpeculativeWith(env, specCfg) }
	case Locking:
		lockCfg := db.cfg.lockCfg
		return func(env core.Env) core.Engine { return core.NewLocking(env, lockCfg) }
	case MVCC:
		return func(env core.Env) core.Engine { return mvcc.New(env) }
	case OCC:
		occCfg := occ.Config{DisableValidation: db.cfg.brokenOCC}
		return func(env core.Env) core.Engine { return occ.New(env, occCfg) }
	}
	return nil // unreachable: Open validated the scheme
}

// Open assembles a cluster from the given options and returns a handle to
// drive it. It validates the whole configuration up front — an unknown
// scheme, a missing registry or workload, or non-positive counts are
// reported here as errors rather than surfacing later inside the engine.
func Open(opts ...Option) (*DB, error) {
	cfg := defaultSettings()
	for _, o := range opts {
		o(&cfg)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cat := cfg.catalogOrDefault()

	db := &DB{cfg: cfg, costModel: cfg.costs}
	width, hz := 1, cfg.costs.OneWayLatency
	if p := cfg.parallel; p != nil {
		width = p.Shards
		if p.Horizon != 0 {
			hz = p.Horizon
		}
	}
	db.sch = sim.NewSharded(width, hz)
	db.net = simnet.New(db.costModel.OneWayLatency)

	end := cfg.warmup + cfg.measure
	if cfg.measure == 0 {
		end = Time(1<<62 - 1)
	}
	db.collector = metrics.NewCollector(cfg.warmup, end)

	det := cfg.detect.WithDefaults()

	var durCfg durable.Config
	if cfg.durable != nil {
		d := cfg.durable.withDefaults()
		durCfg = durable.Config{
			GroupCommitBytes: d.GroupCommit.MaxBytes,
			GroupCommitDelay: d.GroupCommit.MaxDelay,
			CheckpointEvery:  d.CheckpointInterval,
			DiskLatency:      d.DiskLatency,
			DiskBandwidth:    d.DiskBandwidth,
		}
		db.loggers = make([]*durable.Logger, cfg.partitions)
	}

	// Partitions (primaries), each with its own log disk when durable.
	for p := 0; p < cfg.partitions; p++ {
		store := storage.NewStore()
		if cfg.setup != nil {
			cfg.setup(PartitionID(p), store)
		}
		var lg *durable.Logger
		if cfg.durable != nil {
			diskID := db.sch.Register(fmt.Sprintf("disk-%d", p),
				&durable.Disk{Latency: durCfg.DiskLatency, Bandwidth: durCfg.DiskBandwidth})
			db.sch.Assign(diskID, db.groupShard(p))
			lg = durable.NewLogger(durCfg, diskID)
			db.loggers[p] = lg
		}
		var hist *oracle.PartitionHistory
		if cfg.history {
			hist = oracle.NewPartitionHistory()
			db.histories = append(db.histories, hist)
		}
		part := partition.New(partition.Config{
			ID:            PartitionID(p),
			Store:         store,
			Registry:      cfg.registry,
			Costs:         &db.costModel,
			Net:           db.net,
			Logger:        lg,
			Heartbeat:     det.Heartbeat,
			DetectTimeout: det.Timeout,
			Rec:           db.collector,
			History:       hist,
		})
		id := db.sch.Register(fmt.Sprintf("partition-%d", p), part)
		db.sch.Assign(id, db.groupShard(p))
		if lg != nil {
			lg.Bind(id)
			lg.InstallInitial(store)
		}
		db.parts = append(db.parts, part)
		db.partIDs = append(db.partIDs, id)
	}
	// Backups.
	db.backups = make([][]*replication.Backup, cfg.partitions)
	db.backupIDs = make([][]sim.ActorID, cfg.partitions)
	for p := 0; p < cfg.partitions; p++ {
		var ids []sim.ActorID
		for r := 1; r < cfg.replicas; r++ {
			store := storage.NewStore()
			if cfg.setup != nil {
				cfg.setup(PartitionID(p), store)
			}
			b := replication.New(store, cfg.registry, &db.costModel, db.net)
			b.Primary = db.partIDs[p]
			b.Partition = PartitionID(p)
			b.Replica = r
			b.Heartbeat = det.Heartbeat
			b.Timeout = det.Timeout
			b.Rec = db.collector
			id := db.sch.Register(fmt.Sprintf("backup-%d-%d", p, r), b)
			db.sch.Assign(id, db.groupShard(p))
			b.Bind(id)
			ids = append(ids, id)
			db.backups[p] = append(db.backups[p], b)
		}
		db.backupIDs[p] = ids
		db.parts[p].SetBackups(ids)
		// Each backup's peers are the partition's other backups.
		for r, b := range db.backups[p] {
			var peers []sim.ActorID
			for q, id := range ids {
				if q != r {
					peers = append(peers, id)
				}
			}
			b.Peers = peers
		}
	}
	// Central coordinator (blocking and speculation schemes). It owns its
	// partition table: failovers re-target entries independently of the
	// clients' copies.
	db.coord = coordinator.New(cfg.registry, cat, &db.costModel, db.net,
		append([]sim.ActorID(nil), db.partIDs...))
	db.coord.Rec = db.collector
	db.coordID = db.sch.Register("coordinator", db.coord) // on shard 0
	db.coord.Bind(db.coordID)
	for p := range db.backups {
		for _, b := range db.backups[p] {
			b.Coordinator = db.coordID
		}
	}
	// Restarters, for partitions with a scheduled crash-restart fault.
	db.restarters = make([]*replication.Restarter, cfg.partitions)
	db.restarterIDs = make([]sim.ActorID, cfg.partitions)
	for _, ev := range cfg.faults {
		if ev.Kind != fault.KindCrashRestart {
			continue
		}
		p := int(ev.Partition)
		r := replication.NewRestarter(db.loggers[p], cfg.registry, &db.costModel, db.net)
		r.Partition = ev.Partition
		r.Coordinator = db.coordID
		r.Rec = db.collector
		id := db.sch.Register(fmt.Sprintf("restarter-%d", p), r)
		db.sch.Assign(id, db.groupShard(p))
		r.Bind(id)
		db.restarters[p] = r
		db.restarterIDs[p] = id
	}

	// Bind partition engines.
	factory := db.engineFactory(cfg.scheme)
	for p := 0; p < cfg.partitions; p++ {
		db.parts[p].Bind(db.partIDs[p], factory)
		for _, b := range db.backups[p] {
			b.EngineFactory = factory
		}
		if r := db.restarters[p]; r != nil {
			r.EngineFactory = factory
		}
	}
	db.shapeWorkload(cfg.workload)
	if cfg.parallel != nil && cfg.onComplete != nil {
		// Clients on different shards complete transactions concurrently
		// inside a time window; serialize the user's callback. Cross-shard
		// invocation order is unspecified (see WithParallelism).
		var mu sync.Mutex
		inner := cfg.onComplete
		cfg.onComplete = func(clientIdx int, inv *Invocation, reply *Reply) {
			mu.Lock()
			defer mu.Unlock()
			inner(clientIdx, inv, reply)
		}
	}
	// Clients.
	for i := 0; i < cfg.clients; i++ {
		cl := &client.Client{
			Registry:    cfg.registry,
			Catalog:     cat,
			Costs:       &db.costModel,
			Net:         db.net,
			Metrics:     db.collector,
			Scheme:      cfg.scheme,
			Coordinator: db.coordID,
			Parts:       append([]sim.ActorID(nil), db.partIDs...),
			Gen:         cfg.workload,
			Index:       i,
			Arrival:     cfg.arrivalFor(i),
		}
		if cfg.onComplete != nil {
			idx := i
			cl.OnComplete = func(inv *Invocation, reply *Reply) {
				cfg.onComplete(idx, inv, reply)
			}
		}
		id := db.sch.Register(fmt.Sprintf("client-%d", i), cl)
		db.sch.Assign(id, db.clientShard(i))
		cl.Bind(id, cfg.seed*1_000_003+int64(i)*7919+1)
		db.clients = append(db.clients, cl)
		db.clientIDs = append(db.clientIDs, id)
	}
	db.coord.Clients = append([]sim.ActorID(nil), db.clientIDs...)
	if len(cfg.faults) > 0 {
		ctl := &fault.Controller{
			Rec:          db.collector,
			Restarters:   db.restarterIDs,
			RestartDelay: det.Timeout,
		}
		db.faultCtlID = db.sch.Register("fault-controller", ctl) // on shard 0
	}
	if cfg.advisor != nil {
		db.adv = advisor.New(*cfg.advisor)
		db.advNextAt = db.adv.Interval()
	}
	if cfg.elastic != nil {
		db.elCfg = cfg.elastic.withDefaults()
		db.router = elastic.New()
		// validate() proved the generator RouterAware; its own modes may
		// still refuse (range scans cannot follow migrated rows).
		if err := cfg.workload.(workload.RouterAware).SetRouter(db.router); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadElasticity, err)
		}
		if !db.elCfg.Manual {
			db.etrig = advisor.NewElastic(advisor.ElasticConfig{
				Interval:           db.elCfg.Interval,
				SaturationFraction: db.elCfg.SaturationFraction,
				SaturationRatio:    db.elCfg.SaturationRatio,
				Holdoff:            db.elCfg.Holdoff,
			})
			db.elNextAt = db.etrig.Interval()
			db.elBusy = make([]Time, cfg.partitions)
		}
	}
	return db, nil
}

// groupShard maps partition p's whole process group — primary, backups, log
// disk, restarter — onto one shard, striping the groups evenly. Co-locating
// the group keeps its zero-latency edges (partition↔disk) and sub-horizon
// timers intra-shard; only network traffic (one-way latency ≥ Horizon)
// crosses shards.
func (db *DB) groupShard(p int) int {
	return p * db.sch.NumShards() / db.cfg.partitions
}

// clientShard stripes clients over shards. Clients talk to partitions and
// the coordinator exclusively through the network, so any placement is
// deterministic; striping balances their virtual CPU.
func (db *DB) clientShard(i int) int {
	return i * db.sch.NumShards() / db.cfg.clients
}

// shapeWorkload tells a shape-aware generator what it is feeding: client
// count for shared keyspaces, window and replication for the buffer-reuse
// contract (see workload.ShapeAware). Open applies it to the configured
// generator and SetWorkload to every replacement — a swapped-in generator
// must not default to closed-loop buffer reuse on an open-loop cluster.
func (db *DB) shapeWorkload(gen Generator) {
	window := 1
	if db.cfg.openLoop != nil {
		window = db.cfg.openLoop.withDefaults().Window
	}
	if sa, ok := gen.(workload.ShapeAware); ok {
		sa.SetShape(workload.Shape{
			Clients:     db.cfg.clients,
			Partitions:  db.cfg.partitions,
			Replicas:    db.cfg.replicas,
			MaxInFlight: window,
		})
	}
}

// ensureStarted schedules every client's first request at t=0. It runs once,
// lazily, so a DB can be reconfigured (SetWorkload) between Open and the
// first drive call.
func (db *DB) ensureStarted() {
	if db.started {
		return
	}
	db.started = true
	for _, id := range db.clientIDs {
		db.sch.SendAt(0, id, client.Start{})
	}
	if db.faultCtlID == 0 {
		return
	}
	// Schedule the crash faults, and arm heartbeats and failure detectors
	// exactly where the schedule needs them (a CrashPrimary partition's
	// primary pulses its monitoring backups; a CrashBackup partition's
	// backups pulse their monitoring primary). Partitions outside the
	// schedule run with zero failover overhead, and every armed loop has a
	// deterministic stop condition, so the event queue still drains.
	for _, ev := range db.cfg.faults {
		db.sch.SendAt(ev.At, db.faultCtlID, ev)
		// The kill must land in the victim's own shard (a kill from the
		// controller's shard inside a window would race). The schedule is
		// static, so pre-register a kill marker at the fault time; the
		// controller records metrics and drives restarts.
		victim := db.partIDs[ev.Partition]
		if ev.Kind == fault.KindCrashBackup {
			victim = db.backupIDs[ev.Partition][ev.Replica-1]
		}
		db.sch.KillAt(ev.At, victim)
		switch ev.Kind {
		case fault.KindCrashPrimary:
			db.sch.SendAt(0, db.partIDs[ev.Partition], msg.StartPulse{})
			for _, bid := range db.backupIDs[ev.Partition] {
				db.sch.SendAt(0, bid, msg.StartMonitor{})
			}
		case fault.KindCrashBackup:
			db.sch.SendAt(0, db.partIDs[ev.Partition], msg.StartMonitor{})
			for _, bid := range db.backupIDs[ev.Partition] {
				db.sch.SendAt(0, bid, msg.StartPulse{})
			}
		case fault.KindCrashRestart:
			// No heartbeats: there is no replica to detect the crash. The
			// controller tells the restarter directly, one restart delay
			// (the detection timeout) after the kill.
		}
	}
}

// livePrimary returns the partition process currently serving p: the
// original primary, or — after a failover or crash-restart — the promoted
// backup's or restarted process's inner partition.
func (db *DB) livePrimary(p int) *partition.Partition {
	for _, b := range db.backups[p] {
		if inner := b.Promoted(); inner != nil {
			return inner
		}
	}
	if r := db.restarters[p]; r != nil {
		if inner := r.Promoted(); inner != nil {
			return inner
		}
	}
	return db.parts[p]
}

// livePrimaryID returns the actor currently serving partition p — the
// original primary's actor, or the promoted backup's / restarter's (their
// Receive delegates normal partition traffic to the inner process).
func (db *DB) livePrimaryID(p int) sim.ActorID {
	for i, b := range db.backups[p] {
		if b.Promoted() != nil {
			return db.backupIDs[p][i]
		}
	}
	if r := db.restarters[p]; r != nil && r.Promoted() != nil {
		return db.restarterIDs[p]
	}
	return db.partIDs[p]
}

// partBusy returns partition p's cumulative virtual CPU time, folding a
// promoted backup's or restarted process's actor on top of the dead
// primary's (the same fold Result's utilization uses).
func (db *DB) partBusy(p int) Time {
	busy := db.sch.BusyTime(db.partIDs[p])
	if db.livePrimary(p) != db.parts[p] {
		for i, b := range db.backups[p] {
			if b.Promoted() != nil {
				busy += db.sch.BusyTime(db.backupIDs[p][i])
			}
		}
		if r := db.restarters[p]; r != nil && r.Promoted() != nil {
			busy += db.sch.BusyTime(db.restarterIDs[p])
		}
	}
	return busy
}

// syncCursor advances the drive cursor to the scheduler clock after stepping
// primitives that do not run toward an explicit horizon.
func (db *DB) syncCursor() {
	if now := db.sch.Now(); now > db.cursor {
		db.cursor = now
	}
}

// Now returns the virtual time the simulation has been driven to.
func (db *DB) Now() Time { return db.cursor }

// Stop halts the drive call in progress (Run, RunFor, RunUntil) after the
// current event completes. It is intended for callbacks running inside a
// drive call — e.g. a WithOnComplete observer stopping the run once a
// scripted condition is met. With WithParallelism at more than one shard,
// other shards are mid-window concurrently, so the run halts instead at the
// next window barrier (the same point at every width above 1). The stop is
// sticky: every drive call returns immediately (reporting the state so far)
// until Resume clears it, after which driving continues from exactly where
// it stopped.
func (db *DB) Stop() { db.sch.Stop() }

// Resume clears a Stop, so subsequent drive calls process events again.
func (db *DB) Resume() { db.sch.Resume() }

// Stopped reports whether the DB is stopped (see Stop).
func (db *DB) Stopped() bool { return db.sch.Stopped() }

// Run drives the cluster to the configured horizon (Warmup+Measure), or to
// quiescence when Measure is zero, and returns the collected Result. It
// composes with the incremental drivers: events already processed by RunFor,
// RunUntil or Step are not reprocessed, so Run completes whatever remains.
func (db *DB) Run() Result {
	db.ensureStarted()
	if db.cfg.measure == 0 {
		db.runToQuiescence()
	} else {
		db.advanceTo(db.cfg.warmup + db.cfg.measure)
	}
	return db.Result()
}

// RunFor advances the simulation by d of virtual time from the current
// cursor, returning the number of events processed. Repeated calls produce
// precise phase boundaries: two RunFor(10ms) calls cover exactly [0,10ms)
// and [10ms,20ms). An adaptive scheme switch during the slice may drain past
// the boundary, in which case the slice ends at the drain point instead.
func (db *DB) RunFor(d Time) int {
	if d <= 0 {
		return 0
	}
	db.ensureStarted()
	return db.advanceTo(db.cursor + d)
}

// nextTick returns the earliest pending evaluation boundary — advisor or
// elastic trigger — and whether one exists.
func (db *DB) nextTick() (Time, bool) {
	var at Time
	ok := false
	if db.adv != nil {
		at, ok = db.advNextAt, true
	}
	if db.etrig != nil && (!ok || db.elNextAt < at) {
		at, ok = db.elNextAt, true
	}
	return at, ok
}

// handleTicks evaluates every boundary at or before the cursor, advisor
// before elastic trigger when they coincide (a fixed order keeps coincident
// boundaries deterministic). Either evaluation may drain the cluster and
// advance the cursor past the other's boundary; the trailing one then
// evaluates at the drain point, exactly as a lone advisor does.
func (db *DB) handleTicks() {
	if db.adv != nil && db.advNextAt <= db.cursor {
		db.advisorTick()
		db.advNextAt = db.cursor + db.adv.Interval()
	}
	if db.etrig != nil && db.elNextAt <= db.cursor {
		db.elasticTick()
		db.elNextAt = db.cursor + db.etrig.Interval()
	}
}

// advanceTo drives the scheduler to horizon, pausing at advisor and elastic
// evaluation boundaries when adaptive concurrency control or elastic
// repartitioning is enabled, and leaves the cursor at horizon (or beyond it,
// when a switch or migration drained past it). It returns the number of
// events processed.
func (db *DB) advanceTo(horizon Time) int {
	n := 0
	for {
		tick, ok := db.nextTick()
		if !ok || tick > horizon {
			break
		}
		if tick > db.cursor {
			n += db.sch.Run(tick)
			if db.sch.Stopped() {
				// Stopped mid-slice: leave the cursor at the last event
				// so a Resume continues from the true stop point.
				db.syncCursor()
				return n
			}
			db.cursor = tick
		}
		before := db.sch.DeliveredCount()
		db.handleTicks()
		n += int(db.sch.DeliveredCount() - before) // events stepped by a drain
	}
	if horizon > db.cursor {
		n += db.sch.Run(horizon)
		if db.sch.Stopped() {
			db.syncCursor()
			return n
		}
		db.cursor = horizon
	}
	return n
}

// runToQuiescence drains the simulation (open-ended runs), evaluating the
// advisor and the elastic trigger at their interval boundaries along the
// way. Like Drain, it leaves the cursor at the last event's time — never
// inflated to an evaluation boundary — so open-ended throughput is computed
// over real elapsed time.
func (db *DB) runToQuiescence() {
	if db.adv == nil && db.etrig == nil {
		db.sch.Drain()
		db.syncCursor()
		return
	}
	for {
		tick, _ := db.nextTick()
		db.sch.Run(tick)
		if db.sch.Empty() || db.sch.Stopped() {
			db.syncCursor()
			return
		}
		db.cursor = tick
		db.handleTicks()
	}
}

// RunUntil processes events one at a time until pred is satisfied, checking
// it before each delivery. It returns true when pred held, or false when the
// simulation went quiescent (or was stopped via Stop) first — which makes it
// double as a quiescence detector:
// RunUntil(func(Metrics) bool { return false }) drains the run.
// The Metrics passed to pred are a read-only peek; they do not consume the
// Snapshot interval.
func (db *DB) RunUntil(pred func(m Metrics) bool) bool {
	db.ensureStarted()
	for {
		if pred(db.snapshot(false)) {
			return true
		}
		if !db.sch.Step() {
			return false
		}
		db.syncCursor()
	}
}

// Step delivers exactly one simulation event. It returns false when the
// simulation is quiescent: nothing further will happen without new input.
func (db *DB) Step() bool {
	db.ensureStarted()
	ok := db.sch.Step()
	db.syncCursor()
	return ok
}

// SetWorkload swaps the request generator for every client, taking effect at
// each client's next issue. Clients that had already gone idle (a previous
// finite generator was exhausted) are restarted. Use between RunFor phases
// to script workload changes over a live cluster.
func (db *DB) SetWorkload(gen Generator) error {
	if gen == nil {
		return ErrNoWorkload
	}
	if db.router != nil {
		// Elastic runs route through a live table; a replacement generator
		// that cannot follow it would issue to pre-migration homes.
		ra, ok := gen.(workload.RouterAware)
		if !ok {
			return fmt.Errorf("%w (workload %T cannot re-target keys after a migration)", ErrBadElasticity, gen)
		}
		if err := ra.SetRouter(db.router); err != nil {
			return fmt.Errorf("%w: %v", ErrBadElasticity, err)
		}
	}
	db.shapeWorkload(gen)
	db.cfg.workload = gen
	for i, cl := range db.clients {
		cl.SetGenerator(gen)
		// Restart at the driven-to cursor, not the last event time: a
		// generator that drained mid-slice must begin the new phase at the
		// phase boundary, keeping Snapshot intervals honest. Open-loop
		// clients are re-kicked even when not idle — a window>1 client
		// whose generator exhausted mid-flight has a dead arrival timer
		// but a non-empty in-flight set, and Start (idempotent in both
		// loop styles) is what re-arms it.
		if db.started && (cl.Idle() || cl.Arrival != nil) {
			db.sch.SendAt(db.cursor, db.clientIDs[i], client.Start{})
		}
	}
	return nil
}

// Scheme returns the concurrency control scheme the cluster is currently
// running. It starts as the WithScheme option and changes with SetScheme and
// advisor-driven switches.
func (db *DB) Scheme() Scheme { return db.cfg.scheme }

// SchemeHistory returns every scheme switch performed on this DB, manual and
// advisor-driven, in order.
func (db *DB) SchemeHistory() []SchemeChange {
	return append([]SchemeChange(nil), db.history...)
}

// SetScheme switches the cluster's concurrency control scheme mid-run. It
// drains the cluster to a quiescent point — clients pause at their next
// issue, in-flight transactions run to completion, partitions and the
// coordinator empty — then retires each partition's engine and hands the
// partition's store, undo ledger and replication gating to a freshly
// constructed engine of the new scheme, updates client routing (locking
// clients coordinate 2PC themselves; the others go through the central
// coordinator), and resumes the clients. The drain advances virtual time by
// however long the in-flight transactions take, so a subsequent RunFor slice
// starts at the drain point. Switching to the current scheme is a no-op.
//
// Everything runs on virtual time, so runs using SetScheme remain exactly
// reproducible. Engine counters survive switches: Result.EngineStats
// accumulates across every engine a partition has run.
//
// Backup replicas are untouched by the swap — they are engine-agnostic and
// may briefly trail the primary by replica messages still in flight when
// the drain completes (as in §3.2, backups always trail by design); the
// FIFO links deliver those before any post-switch forwards, so replicas
// converge to the primary's state.
func (db *DB) SetScheme(sc Scheme) error {
	switch sc {
	case Blocking, Speculation, Locking, MVCC, OCC:
	default:
		return fmt.Errorf("%w (%d)", ErrBadScheme, int(sc))
	}
	return db.setScheme(sc, false)
}

// setScheme implements SetScheme; auto marks advisor-driven switches in the
// history.
func (db *DB) setScheme(sc Scheme, auto bool) error {
	if sc == db.cfg.scheme {
		return nil
	}
	if len(db.cfg.faults) > 0 && sc == Locking {
		return ErrFaultsLocking
	}
	if db.started {
		if err := db.drainQuiesce(); err != nil {
			db.resumeClients() // never leave the cluster paused
			return err
		}
	}
	factory := db.engineFactory(sc)
	for p := range db.backups {
		for _, b := range db.backups[p] {
			b.EngineFactory = factory
		}
		if r := db.restarters[p]; r != nil {
			r.EngineFactory = factory
		}
	}
	for p := range db.parts {
		if err := db.livePrimary(p).SwapEngine(factory); err != nil {
			// Unreachable after a successful drain (drainQuiesce verified
			// every partition quiescent); resume rather than poison the DB.
			db.resumeClients()
			return fmt.Errorf("specdb: %w", err)
		}
	}
	db.history = append(db.history, SchemeChange{At: db.cursor, From: db.cfg.scheme, To: sc, Auto: auto})
	db.cfg.scheme = sc
	for _, cl := range db.clients {
		cl.Scheme = sc
	}
	db.resumeClients()
	if db.adv != nil {
		// Rebase the advisor's interval on the switch point — completions
		// from the drain (and, for manual switches, the partial interval)
		// were measured under the old scheme — and arm its holdoff so a
		// manual choice is not second-guessed from stale statistics.
		db.advBase = db.collector.Totals
		db.advLat = db.collector.TotalLat
		db.adv.NoteSwitch()
	}
	return nil
}

// resumeClients un-pauses every client and, on a started DB, re-kicks them
// at the cursor (Start is idempotent for clients that never went idle).
func (db *DB) resumeClients() {
	for i, cl := range db.clients {
		cl.Resume()
		if db.started {
			db.sch.SendAt(db.cursor, db.clientIDs[i], client.Start{})
		}
	}
}

// drainQuiesce pauses every client and steps the simulation until the
// cluster reaches a quiescent point: all clients idle between transactions,
// the coordinator holding no undecided transactions, and every partition
// free of transaction state. Closed-loop clients guarantee the drain
// terminates — each has at most one transaction in flight.
func (db *DB) drainQuiesce() error {
	for _, cl := range db.clients {
		cl.Pause()
	}
	for !db.quiescent() {
		if !db.sch.Step() {
			break
		}
	}
	db.syncCursor()
	if !db.quiescent() {
		return fmt.Errorf("specdb: scheme switch drain stalled before quiescence")
	}
	return nil
}

// quiescent reports whether no transaction is active or in flight anywhere.
// After a failover the promoted backup's partition stands in for the dead
// primary, whose frozen in-crash state no longer matters.
func (db *DB) quiescent() bool {
	for _, cl := range db.clients {
		if !cl.Idle() {
			return false
		}
	}
	if db.coord.Pending() > 0 {
		return false
	}
	for p := range db.parts {
		for _, b := range db.backups[p] {
			if b.Recovering() {
				return false
			}
		}
		if r := db.restarters[p]; r != nil && r.Recovering() {
			return false
		}
		if !db.livePrimary(p).Quiescent() {
			return false
		}
	}
	return true
}

// Quiescent reports whether the cluster holds no transaction state: every
// client is idle (its generator exhausted or paused), the coordinator has no
// undecided transactions, and every partition's engine is empty. In a run
// with faults the event queue may still hold failure-detector machinery, so
// Quiescent — not an empty queue — is the "workload finished" signal.
func (db *DB) Quiescent() bool { return db.quiescent() }

// advisorTick evaluates one advisor interval over the collector's totals and
// applies the recommended switch, if any.
func (db *DB) advisorTick() {
	tot := db.collector.Totals
	d := tot.Sub(db.advBase)
	db.advBase = tot
	dl := db.collector.TotalLat.Sub(db.advLat)
	db.advLat = db.collector.TotalLat
	lat := dl.Merged()
	s := advisor.Stats{
		Completed: d.Completed(),
		P99:       lat.Quantile(0.99),
		Observed: ModelObserved{
			MPFraction:   d.MPFraction(),
			MultiRound:   d.MultiRoundFraction(),
			AbortRate:    d.AbortRate(),
			ConflictRate: d.ConflictRate(),
			ReadFraction: d.ReadFraction(),
		},
	}
	if sc, switchNow := db.adv.Observe(db.cfg.scheme, s); switchNow {
		if err := db.setScheme(sc, true); err != nil {
			// Only reachable if quiescence invariants are broken.
			panic(err)
		}
	}
}

// elasticTick evaluates one saturation interval over per-partition busy-time
// deltas and performs the triggered migration, if any.
func (db *DB) elasticTick() {
	span := db.cursor - db.elAt
	db.elAt = db.cursor
	busy := make([]Time, len(db.parts))
	for p := range db.parts {
		b := db.partBusy(p)
		busy[p] = b - db.elBusy[p]
		db.elBusy[p] = b
	}
	if len(db.collector.Migrations) >= db.elCfg.MaxMigrations {
		return
	}
	if from, to, ok := db.etrig.Observe(busy, span); ok {
		if err := db.migrate(from, to, true); err != nil {
			// A hot partition that cannot split (too few distinct keys)
			// would re-trigger every interval; the holdoff the failed
			// attempt armed spaces the retries out.
			return
		}
	}
}

// Migrate moves the upper half of partition from's key range to partition to
// through the same freeze–copy–cutover an advisor-triggered migration uses:
// drain to a quiescent point, copy the rows (priced by the elasticity
// config), advance the routing epoch, resume the clients. Requires
// WithElasticity; the migration appears in Result.Migrations with Auto
// false. Virtual time advances by the drain plus the copy, like SetScheme's
// drain.
func (db *DB) Migrate(from, to PartitionID) error {
	if db.router == nil {
		return fmt.Errorf("%w (WithElasticity not configured)", ErrBadElasticity)
	}
	return db.migrate(int(from), int(to), false)
}

// migrate performs one elastic key-range migration: freeze (drain to a
// quiescent point), split plan (median key of the donor's row set), copy
// (the donor's MigrateOut handler deletes, forwards and logs the range and
// ships it to the destination's MigrateIn, both priced by the copy cost),
// cut over (advance the routing epoch so generators re-target the moved
// keys), and resume. Backups and command logs ride the partitions' normal
// forwarding and group-commit paths, so replicas converge and crash-restart
// replays the move.
func (db *DB) migrate(from, to int, auto bool) error {
	if from == to || from < 0 || from >= len(db.parts) || to < 0 || to >= len(db.parts) {
		return fmt.Errorf("%w (migrate %d -> %d of %d partitions)", ErrBadElasticity, from, to, len(db.parts))
	}
	triggered := db.cursor
	if db.started {
		if err := db.drainQuiesce(); err != nil {
			db.resumeClients() // never leave the cluster paused
			return err
		}
	}
	donor := db.livePrimary(from)
	dest := db.livePrimary(to)
	plan, ok := splitUpperHalf(donor.Store())
	if !ok {
		if db.etrig != nil {
			db.etrig.NoteMigration() // space out re-trigger attempts
		}
		db.resumeClients()
		return fmt.Errorf("%w (partition %d has too few distinct keys to split)", ErrBadElasticity, from)
	}
	cost := db.elCfg.CopyLatency
	if db.elCfg.CopyBandwidth > 0 {
		cost += Time(float64(plan.bytes) / db.elCfg.CopyBandwidth * float64(Second))
	}
	wantIn := dest.MigrationsIn + 1
	db.sch.SendAt(db.cursor, db.livePrimaryID(from), &msg.MigrateOut{
		Lo: plan.lo, Hi: plan.hi, Dest: db.livePrimaryID(to), Cost: cost,
	})
	for dest.MigrationsIn < wantIn {
		if !db.sch.Step() {
			db.resumeClients()
			return fmt.Errorf("specdb: migration %d -> %d stalled before the copy completed", from, to)
		}
	}
	db.syncCursor()
	db.router.Add(elastic.Move{From: PartitionID(from), To: PartitionID(to), Lo: plan.lo, Hi: plan.hi})
	db.collector.NoteMigration(metrics.MigrationEvent{
		From: from, To: to,
		TriggeredAt: triggered, CopiedAt: db.cursor, CutoverAt: db.cursor,
		RowsMoved: uint64(plan.rows), BytesMoved: plan.bytes,
		LoKey: plan.lo, HiKey: plan.hi,
		Auto: auto,
	})
	if db.etrig != nil {
		db.etrig.NoteMigration()
	}
	db.resumeClients()
	if db.adv != nil {
		// Rebase the advisor's interval on the cutover: completions from
		// the drain were measured under pre-migration routing.
		db.advBase = db.collector.Totals
		db.advLat = db.collector.TotalLat
	}
	if db.etrig != nil {
		// Rebase the busy baselines too — the copy itself spent donor and
		// destination CPU that is not workload skew.
		db.elAt = db.cursor
		for p := range db.parts {
			db.elBusy[p] = db.partBusy(p)
		}
	}
	return nil
}

// splitPlanned describes the key range a migration moves.
type splitPlanned struct {
	lo, hi string
	rows   int
	bytes  uint64
}

// splitUpperHalf plans a median split of the store's row set: the key range
// [median, ∞) across every table, sized like Store.ApproxBytes prices rows.
// It reports ok=false when fewer than two distinct keys exist — there is no
// boundary that moves some rows and keeps some.
func splitUpperHalf(st *storage.Store) (splitPlanned, bool) {
	var keys []string
	for _, tbl := range st.TableNames() {
		st.Table(tbl).Ascend("", "", func(k string, v any) bool {
			keys = append(keys, k)
			return true
		})
	}
	sort.Strings(keys)
	if len(keys) == 0 || keys[0] == keys[len(keys)-1] {
		return splitPlanned{}, false
	}
	median := keys[len(keys)/2]
	if median == keys[0] {
		// Duplicate-heavy low half: move everything strictly above the
		// smallest key instead, the tightest split that keeps rows behind.
		for _, k := range keys {
			if k > median {
				median = k
				break
			}
		}
	}
	const perRow = 16 // Store.ApproxBytes's per-row value charge
	p := splitPlanned{lo: median, hi: ""}
	for _, k := range keys {
		if k >= median {
			p.rows++
			p.bytes += uint64(len(k)) + perRow
		}
	}
	return p, true
}

// Migrations returns every elastic migration performed on this DB so far,
// in cutover order (see Result.Migrations).
func (db *DB) Migrations() []MigrationEvent {
	return append([]MigrationEvent(nil), db.collector.Migrations...)
}

// Snapshot returns live cumulative counters plus interval rates covering the
// span since the previous Snapshot call (the whole run for the first call).
// Counters are whole-run totals, not measurement-window counters, so they
// move during warm-up too.
func (db *DB) Snapshot() Metrics { return db.snapshot(true) }

// Peek is Snapshot without consuming the interval: the baseline for the next
// Snapshot's interval rates is left untouched.
func (db *DB) Peek() Metrics { return db.snapshot(false) }

func (db *DB) snapshot(advance bool) Metrics {
	now := db.cursor
	tot := db.collector.Totals
	m := Metrics{
		Now:             now,
		Scheme:          db.cfg.scheme,
		Events:          db.sch.DeliveredCount(),
		Completed:       tot.Completed(),
		Committed:       tot.Committed,
		UserAborted:     tot.UserAborted,
		CommittedSP:     tot.CommittedSP,
		CommittedMP:     tot.CommittedMP,
		CommittedMR:     tot.CommittedMR,
		Retries:         tot.Retries,
		Shed:            tot.Shed,
		Failovers:       db.collector.Promotions(),
		FailoverResends: db.collector.FailoverResends,
		Restarts:        db.collector.Restarts(),
	}
	if db.cfg.parallel != nil {
		m.Barriers = db.sch.Barriers()
		m.CrossShardMsgs = db.sch.CrossShardMsgs()
	}
	d := tot.Sub(db.snapCounts)
	dl := db.collector.TotalLat.Sub(db.snapLat)
	lat := dl.Merged()
	iv := Interval{
		Start:              db.snapAt,
		End:                now,
		Completed:          d.Completed(),
		Committed:          d.Committed,
		UserAborted:        d.UserAborted,
		CommittedMP:        d.CommittedMP,
		Retries:            d.Retries,
		Shed:               d.Shed,
		MPFraction:         d.MPFraction(),
		MultiRoundFraction: d.MultiRoundFraction(),
		AbortRate:          d.AbortRate(),
		ConflictRate:       d.ConflictRate(),
		P50:                lat.Quantile(0.50),
		P95:                lat.Quantile(0.95),
		P99:                lat.Quantile(0.99),
	}
	if span := now - db.snapAt; span > 0 {
		iv.Throughput = float64(d.Completed()) / (float64(span) / float64(Second))
	}
	m.Interval = iv
	if advance {
		db.snapAt, db.snapCounts, db.snapLat = now, tot, db.collector.TotalLat
	}
	return m
}

// PartitionStore returns partition p's live primary store (inspection).
// After a failover this is the promoted backup's store; the dead primary's
// frozen store is no longer reachable.
func (db *DB) PartitionStore(p PartitionID) *Store { return db.livePrimary(int(p)).Store() }

// BackupStores returns partition p's backup stores. A backup promoted to
// primary by a failover is excluded — its store is the partition's primary
// store (PartitionStore), not a replica of it, and including it would turn
// replica-equivalence checks into self-comparisons.
func (db *DB) BackupStores(p PartitionID) []*Store {
	var out []*Store
	for _, b := range db.backups[p] {
		if b.Promoted() != nil {
			continue
		}
		out = append(out, b.Store)
	}
	return out
}

// LogBytes returns a copy of partition p's command-log byte image — the
// deterministic durable transcript of its committed transaction invocations.
// It is the bit-identity surface the durability determinism tests compare:
// same seed, same schedule, same bytes. Nil when durability is off.
func (db *DB) LogBytes(p PartitionID) []byte {
	if db.loggers == nil {
		return nil
	}
	return append([]byte(nil), db.loggers[p].Image()...)
}

// Coordinator exposes coordinator counters (inspection).
func (db *DB) Coordinator() *coordinator.Coordinator { return db.coord }

// Clients exposes the client actors (inspection).
func (db *DB) Clients() []*client.Client { return db.clients }

// lockStats collects per-partition lock manager statistics, accumulated
// across every locking engine each partition has run — a locking era's
// counters survive switching away. Nil when locking never ran.
func (db *DB) lockStats() []locks.Stats {
	out := make([]locks.Stats, 0, len(db.parts))
	ran := false
	for p := range db.parts {
		st, r := db.parts[p].LockTotals()
		out = append(out, st)
		ran = ran || r
	}
	if !ran {
		return nil
	}
	return out
}
