// Package bench regenerates every table and figure of the paper's
// evaluation (§5–§6). Each experiment produces named series that
// cmd/ccbench renders as text, CSV or JSON and EXPERIMENTS.md records
// against the paper's curves. Absolute numbers come from the simulator's
// cost model; the comparisons (who wins, by what factor, where the
// crossovers fall) are the reproduction targets.
//
// Experiments are built on the public specdb.Sweep layer: each figure is a
// grid of option sets (scheme × x-axis value) rather than a hand-rolled
// loop, so the bench harness exercises the same experiment machinery the
// library exposes to users.
package bench

import (
	"fmt"
	"sort"

	"specdb"
	"specdb/internal/kvstore"
	"specdb/internal/sim"
	"specdb/internal/tpcc"
	"specdb/internal/workload"
)

// Opts trades precision for runtime.
type Opts struct {
	Warmup  sim.Time
	Measure sim.Time
	// Coarse reduces the number of x-axis points.
	Coarse bool
	Seed   int64
	// Shards >= 1 runs every microbenchmark-family cell with
	// specdb.WithParallelism at that width; zero omits the option, which
	// runs the same kernel at width 1 without reporting Result.Parallel.
	// Results are identical at every width. TPC-C cells ignore the knob:
	// tpcc.Mix keeps state across clients and needs a single shard.
	Shards int
	// Tally, when non-nil, accumulates every cell's events and completed
	// transactions as the experiment runs — the simulator-side half of the
	// host perf measurements (see MeasurePerf).
	Tally *Tally
}

// DefaultOpts is the full-fidelity configuration used for EXPERIMENTS.md.
func DefaultOpts() Opts {
	return Opts{Warmup: 50 * sim.Millisecond, Measure: 400 * sim.Millisecond, Seed: 42}
}

// QuickOpts is used by the Go benchmarks for fast regeneration.
func QuickOpts() Opts {
	return Opts{Warmup: 20 * sim.Millisecond, Measure: 100 * sim.Millisecond, Coarse: true, Seed: 42}
}

// Point is one measurement: the series' Y value at X, plus the cell's
// completion-latency percentiles in microseconds (zero when the experiment
// has no simulated cell behind the point, e.g. model curves). Cells of the
// recovery experiments also carry the durability counters: recovery latency,
// log bytes replayed, and transactions re-executed (zero elsewhere), and
// cells of the elasticity experiment the migration counters: total dip and
// rows moved (zero when no migration fired).
type Point struct {
	X, Y          float64
	P50, P95, P99 float64
	RecoveryMs    float64
	LogBytes      uint64
	ReplayTxns    uint64
	DipMs         float64
	RowsMoved     uint64
	// Shards is the runtime width behind the cell (1 without
	// WithParallelism) and Barriers the runtime's window count (reported
	// only under WithParallelism, zero otherwise). Zero Shards marks
	// model-curve points with no simulated cell behind them.
	Shards   int
	Barriers uint64
}

// pointFor builds a measured point from a sweep cell: throughput as Y and
// the window latency percentiles alongside.
func pointFor(x float64, r specdb.Result) Point {
	p := Point{
		X:      x,
		Y:      r.Throughput,
		P50:    r.P50.Micros(),
		P95:    r.P95.Micros(),
		P99:    r.P99.Micros(),
		DipMs:  r.MigrationDip.Micros() / 1000,
		Shards: 1,
	}
	for _, m := range r.Migrations {
		p.RowsMoved += m.RowsMoved
	}
	if r.Parallel != nil {
		p.Shards = r.Parallel.Shards
		p.Barriers = r.Parallel.Barriers
	}
	return p
}

// Series is one labelled curve.
type Series struct {
	Name   string
	Points []Point
}

// Experiment regenerates one table or figure.
type Experiment struct {
	ID    string
	Title string
	Ref   string
	XAxis string
	YAxis string
	Run   func(o Opts) []Series
}

// All returns every experiment: the paper's figures and tables in paper
// order, the ablations, then the beyond-the-paper load experiments
// (open-loop tail latency, Zipfian skew).
func All() []Experiment {
	return []Experiment{
		Figure4(), Figure5(), Figure6(), Figure7(),
		Figure8(), Figure9(), Figure10(),
		Table1(), Table2(),
		AblationAlwaysLock(), AblationLocalSpec(), AblationReplication(),
		LatencyOpenLoop(), ZipfSkew(), YCSBScan(),
		RecoveryCheckpoint(), DurableOverhead(),
		MVCCCrossover(), OCCRetry(),
		ParallelSpeedup(), ElasticSplit(),
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// mpFractions returns the x-axis grid for the microbenchmark figures.
func mpFractions(o Opts) []float64 {
	step := 5
	if o.Coarse {
		step = 20
	}
	var out []float64
	for pct := 0; pct <= 100; pct += step {
		out = append(out, float64(pct)/100)
	}
	return out
}

// microCfg is a parameterized §5.1-§5.4 microbenchmark run.
type microCfg struct {
	scheme     specdb.Scheme
	mpFrac     float64
	conflict   float64
	pinned     bool
	abortProb  float64
	twoRound   bool
	alwaysLock bool
	localOnly  bool
	replicas   int
	keySkew    float64
	partSkew   float64
	readFrac   float64
	scanFrac   float64
	scanLen    int
	// ordered loads the kv table as a B-tree even when scanFrac is zero —
	// set on sweeps whose axis varies the scan fraction, so every cell of
	// the series runs the same storage layout.
	ordered bool
	// parts overrides the partition count; zero keeps the figures'
	// two-partition cluster.
	parts int
}

// partitions returns the cell's partition count.
func (c microCfg) partitions() int {
	if c.parts > 0 {
		return c.parts
	}
	return 2
}

const (
	microClients = 40
	microKeys    = 12
)

// microGen builds the §5.1 workload generator for one configuration. Micro
// keeps per-client issue buffers, so every cell needs its own instance —
// cells install it via WithWorkloadFactory, never by sharing one value.
func microGen(c microCfg) specdb.Generator {
	return &workload.Micro{
		Partitions:    c.partitions(),
		KeysPerTxn:    microKeys,
		MPFraction:    c.mpFrac,
		ConflictProb:  c.conflict,
		Pinned:        c.pinned,
		AbortProb:     c.abortProb,
		TwoRound:      c.twoRound,
		KeySkew:       c.keySkew,
		PartitionSkew: c.partSkew,
		ReadFraction:  c.readFrac,
		ScanFraction:  c.scanFrac,
		ScanLength:    c.scanLen,
	}
}

// microWorkload is the WithWorkloadFactory option for one micro config.
func microWorkload(c microCfg) specdb.Option {
	return specdb.WithWorkloadFactory(func() specdb.Generator { return microGen(c) })
}

// microOpts builds the full option set for one microbenchmark cell.
func microOpts(o Opts, c microCfg) []specdb.Option {
	reg := specdb.NewRegistry()
	reg.Register(kvstore.Proc{})
	opts := []specdb.Option{
		specdb.WithPartitions(c.partitions()),
		specdb.WithClients(microClients),
		specdb.WithScheme(c.scheme),
		specdb.WithSeed(o.Seed),
		specdb.WithWarmup(o.Warmup),
		specdb.WithMeasure(o.Measure),
		specdb.WithRegistry(reg),
		specdb.WithLockConfig(specdb.LockConfig{AlwaysLock: c.alwaysLock}),
		specdb.WithSpecConfig(specdb.SpecConfig{LocalOnly: c.localOnly}),
		specdb.WithSetup(func(p specdb.PartitionID, s *specdb.Store) {
			// Scan-bearing cells get the ordered layout; pure point cells
			// keep the hash layout (and its baseline numbers).
			if c.ordered || c.scanFrac > 0 {
				kvstore.AddOrderedSchema(s)
			} else {
				kvstore.AddSchema(s)
			}
			kvstore.Load(s, p, microClients, microKeys)
		}),
		microWorkload(c),
	}
	if c.replicas > 0 {
		opts = append(opts, specdb.WithReplicas(c.replicas))
	}
	if o.Shards > 0 {
		opts = append(opts, specdb.WithParallelism(specdb.ParallelismConfig{Shards: o.Shards}))
	}
	return opts
}

// runMicro executes one microbenchmark cell (Table 2 calibration and tests).
func runMicro(o Opts, c microCfg) specdb.Result {
	db, err := specdb.Open(microOpts(o, c)...)
	if err != nil {
		panic(fmt.Sprintf("bench: invalid micro config: %v", err))
	}
	r := db.Run()
	o.tally(r)
	return r
}

// mpAxis sweeps the multi-partition fraction for one base configuration.
func mpAxis(base microCfg, grid []float64) specdb.Axis {
	return specdb.NumAxis("mp-fraction", grid, func(f float64) []specdb.Option {
		c := base
		c.mpFrac = f
		return []specdb.Option{microWorkload(c)}
	})
}

// sweep runs one scheme across the multi-partition fractions.
func sweep(o Opts, name string, base microCfg) Series {
	return sweepGrid(o, name, base, mpFractions(o))
}

// sweepGrid is sweep over an explicit fraction grid.
func sweepGrid(o Opts, name string, base microCfg, grid []float64) Series {
	cells, err := specdb.Sweep{
		Name: name,
		Base: microOpts(o, base),
		Axes: []specdb.Axis{mpAxis(base, grid)},
	}.Run()
	if err != nil {
		panic(fmt.Sprintf("bench: sweep %s: %v", name, err))
	}
	o.tallyCells(cells)
	s := Series{Name: name}
	for _, cell := range cells {
		s.Points = append(s.Points, pointFor(cell.Xs[0]*100, cell.Result))
	}
	return s
}

// Figure4 is the microbenchmark without conflicts (§5.1).
func Figure4() Experiment {
	return Experiment{
		ID:    "fig4",
		Title: "Microbenchmark Without Conflicts",
		Ref:   "§5.1, Figure 4",
		XAxis: "multi-partition transactions (%)",
		YAxis: "transactions/second",
		Run: func(o Opts) []Series {
			return []Series{
				sweep(o, "Speculation", microCfg{scheme: specdb.Speculation}),
				sweep(o, "Locking", microCfg{scheme: specdb.Locking}),
				sweep(o, "Blocking", microCfg{scheme: specdb.Blocking}),
			}
		},
	}
}

// Figure5 is the conflict microbenchmark (§5.2).
func Figure5() Experiment {
	return Experiment{
		ID:    "fig5",
		Title: "Microbenchmark With Conflicts",
		Ref:   "§5.2, Figure 5",
		XAxis: "multi-partition transactions (%)",
		YAxis: "transactions/second",
		Run: func(o Opts) []Series {
			out := []Series{}
			for _, p := range []float64{0, 0.2, 0.6, 1.0} {
				out = append(out, sweep(o, fmt.Sprintf("Locking %d%% conflict", int(p*100)),
					microCfg{scheme: specdb.Locking, conflict: p, pinned: true}))
			}
			out = append(out,
				sweep(o, "Speculation", microCfg{scheme: specdb.Speculation, conflict: 1.0, pinned: true}),
				sweep(o, "Blocking", microCfg{scheme: specdb.Blocking, conflict: 1.0, pinned: true}),
			)
			return out
		},
	}
}

// Figure6 is the abort microbenchmark (§5.3).
func Figure6() Experiment {
	return Experiment{
		ID:    "fig6",
		Title: "Microbenchmark With Aborts",
		Ref:   "§5.3, Figure 6",
		XAxis: "multi-partition transactions (%)",
		YAxis: "transactions/second",
		Run: func(o Opts) []Series {
			out := []Series{}
			for _, p := range []float64{0, 0.03, 0.05, 0.10} {
				out = append(out, sweep(o, fmt.Sprintf("Speculation %g%% aborts", p*100),
					microCfg{scheme: specdb.Speculation, abortProb: p}))
			}
			out = append(out,
				sweep(o, "Blocking 10% aborts", microCfg{scheme: specdb.Blocking, abortProb: 0.10}),
				sweep(o, "Locking 10% aborts", microCfg{scheme: specdb.Locking, abortProb: 0.10}),
			)
			return out
		},
	}
}

// Figure7 is the general (two-round) transaction microbenchmark (§5.4).
func Figure7() Experiment {
	return Experiment{
		ID:    "fig7",
		Title: "General Transaction Microbenchmark",
		Ref:   "§5.4, Figure 7",
		XAxis: "multi-partition transactions (%)",
		YAxis: "transactions/second",
		Run: func(o Opts) []Series {
			return []Series{
				sweep(o, "Speculation", microCfg{scheme: specdb.Speculation, twoRound: true}),
				sweep(o, "Blocking", microCfg{scheme: specdb.Blocking, twoRound: true}),
				sweep(o, "Locking", microCfg{scheme: specdb.Locking, twoRound: true}),
			}
		},
	}
}

// tpccCellOpts builds the layout-dependent options for one TPC-C cell:
// registry, catalog, loader and workload all derive from the warehouse count.
func tpccCellOpts(o Opts, warehouses int, newOrderOnly bool, remoteItem float64) []specdb.Option {
	layout := tpcc.Layout{Warehouses: warehouses, Partitions: 2}
	scale := tpcc.DefaultScale()
	reg := specdb.NewRegistry()
	tpcc.RegisterAll(reg)
	loader := tpcc.Loader{Layout: layout, Scale: scale, Seed: o.Seed}
	return []specdb.Option{
		specdb.WithRegistry(reg),
		specdb.WithCatalog(&specdb.Catalog{Meta: layout}),
		specdb.WithSetup(loader.Load),
		// Mix is stateful (it advances a clock), so every cell run needs
		// a fresh instance.
		specdb.WithWorkloadFactory(func() specdb.Generator {
			return &tpcc.Mix{
				Layout: layout, Scale: scale,
				RemoteItemProb:    remoteItem,
				RemotePaymentProb: 0.15,
				NewOrderOnly:      newOrderOnly,
			}
		}),
	}
}

// tpccBase is the shared TPC-C cluster configuration.
func tpccBase(o Opts) []specdb.Option {
	return []specdb.Option{
		specdb.WithPartitions(2),
		specdb.WithClients(40),
		specdb.WithSeed(o.Seed),
		specdb.WithWarmup(o.Warmup),
		specdb.WithMeasure(o.Measure),
	}
}

// Figure8 is TPC-C throughput while varying warehouses (§5.5).
func Figure8() Experiment {
	return Experiment{
		ID:    "fig8",
		Title: "TPC-C Throughput Varying Warehouses",
		Ref:   "§5.5, Figure 8",
		XAxis: "warehouses",
		YAxis: "transactions/second",
		Run: func(o Opts) []Series {
			ws := []float64{2, 4, 6, 8, 10, 12, 14, 16, 18, 20}
			if o.Coarse {
				ws = []float64{2, 6, 12, 20}
			}
			schemes := []specdb.Scheme{specdb.Speculation, specdb.Blocking, specdb.Locking}
			cells, err := specdb.Sweep{
				Name: "fig8",
				Base: tpccBase(o),
				Axes: []specdb.Axis{
					specdb.SchemeAxis(schemes...),
					specdb.NumAxis("warehouses", ws, func(w float64) []specdb.Option {
						return tpccCellOpts(o, int(w), false, 0.01)
					}),
				},
			}.Run()
			if err != nil {
				panic(fmt.Sprintf("bench: fig8: %v", err))
			}
			o.tallyCells(cells)
			return schemeSeries(cells, schemes)
		},
	}
}

// Figure9 is TPC-C 100% NewOrder with the remote-item probability swept so
// the multi-partition fraction covers the full range (§5.6).
func Figure9() Experiment {
	return Experiment{
		ID:    "fig9",
		Title: "TPC-C 100% New Order",
		Ref:   "§5.6, Figure 9",
		XAxis: "multi-partition transactions (%)",
		YAxis: "transactions/second",
		Run: func(o Opts) []Series {
			probs := []float64{0, 0.002, 0.005, 0.01, 0.02, 0.04, 0.07, 0.12, 0.2, 0.35, 0.6, 1.0}
			if o.Coarse {
				probs = []float64{0, 0.01, 0.07, 0.35, 1.0}
			}
			schemes := []specdb.Scheme{specdb.Speculation, specdb.Blocking, specdb.Locking}
			cells, err := specdb.Sweep{
				Name: "fig9",
				Base: tpccBase(o),
				Axes: []specdb.Axis{
					specdb.SchemeAxis(schemes...),
					specdb.NumAxis("remote-item-prob", probs, func(q float64) []specdb.Option {
						return tpccCellOpts(o, 6, true, q)
					}),
				},
			}.Run()
			if err != nil {
				panic(fmt.Sprintf("bench: fig9: %v", err))
			}
			o.tallyCells(cells)
			series := schemeSeries(cells, schemes)
			// Re-express the x-axis as the expected MP fraction.
			for si := range series {
				for pi := range series[si].Points {
					q := series[si].Points[pi].X
					series[si].Points[pi].X = 100 * expectedMPFraction(q, 6, 2)
				}
			}
			return series
		},
	}
}

// schemeSeries groups sweep cells (scheme-major order) into one series per
// scheme, carrying the inner axis value as X.
func schemeSeries(cells []specdb.Cell, schemes []specdb.Scheme) []Series {
	per := len(cells) / len(schemes)
	var out []Series
	for i, scheme := range schemes {
		s := Series{Name: schemeName(scheme)}
		for _, cell := range cells[i*per : (i+1)*per] {
			s.Points = append(s.Points, pointFor(cell.Xs[1], cell.Result))
		}
		out = append(out, s)
	}
	return out
}

// Figure10 overlays the §6 analytical model on measured (replication-free)
// runs.
func Figure10() Experiment {
	return Experiment{
		ID:    "fig10",
		Title: "Model Throughput vs Measured",
		Ref:   "§6.4, Figure 10",
		XAxis: "multi-partition transactions (%)",
		YAxis: "transactions/second",
		Run: func(o Opts) []Series {
			p := measuredParams(o)
			mSpec := Series{Name: "Model Spec."}
			mLocal := Series{Name: "Model Local Spec."}
			mBlock := Series{Name: "Model Blocking"}
			mLock := Series{Name: "Model Locking"}
			for _, f := range mpFractions(o) {
				mSpec.Points = append(mSpec.Points, Point{X: f * 100, Y: p.Speculation(f)})
				mLocal.Points = append(mLocal.Points, Point{X: f * 100, Y: p.LocalSpeculation(f)})
				mBlock.Points = append(mBlock.Points, Point{X: f * 100, Y: p.Blocking(f)})
				mLock.Points = append(mLock.Points, Point{X: f * 100, Y: p.Locking(f)})
			}
			return []Series{
				mSpec, mLocal, mBlock, mLock,
				sweep(o, "Measured Spec.", microCfg{scheme: specdb.Speculation}),
				sweep(o, "Measured Local Spec.", microCfg{scheme: specdb.Speculation, localOnly: true}),
				sweep(o, "Measured Blocking", microCfg{scheme: specdb.Blocking}),
				sweep(o, "Measured Locking", microCfg{scheme: specdb.Locking}),
			}
		},
	}
}

// expectedMPFraction computes the probability that a NewOrder with per-item
// remote probability q is multi-partition: at least one of its 5–15 items is
// supplied by a warehouse on another partition. A remote warehouse lands on
// another partition with probability (W − W/P)/(W − 1).
func expectedMPFraction(q float64, warehouses, partitions int) float64 {
	rho := float64(warehouses-warehouses/partitions) / float64(warehouses-1)
	p := rho * q
	sum := 0.0
	for k := 5; k <= 15; k++ {
		term := 1.0
		for i := 0; i < k; i++ {
			term *= 1 - p
		}
		sum += term
	}
	return 1 - sum/11
}

func schemeName(s specdb.Scheme) string {
	switch s {
	case specdb.Speculation:
		return "Speculation"
	case specdb.Blocking:
		return "Blocking"
	case specdb.MVCC:
		return "MVCC"
	case specdb.OCC:
		return "OCC"
	default:
		return "Locking"
	}
}

// AblationAlwaysLock reproduces the Figure 4 discussion: "If we force locks
// to always be acquired, blocking does outperform locking from 0% to 6%
// multi-partition transactions."
func AblationAlwaysLock() Experiment {
	return Experiment{
		ID:    "ablation-alwayslock",
		Title: "Locking fast path ablation (always acquire locks)",
		Ref:   "§5.1, Figure 4 discussion",
		XAxis: "multi-partition transactions (%)",
		YAxis: "transactions/second",
		Run: func(o Opts) []Series {
			grid := []float64{0, 0.02, 0.04, 0.06, 0.08, 0.10, 0.16}
			return []Series{
				sweepGrid(o, "Blocking", microCfg{scheme: specdb.Blocking}, grid),
				sweepGrid(o, "Locking (fast path)", microCfg{scheme: specdb.Locking}, grid),
				sweepGrid(o, "Locking (always lock)", microCfg{scheme: specdb.Locking, alwaysLock: true}, grid),
			}
		},
	}
}

// AblationLocalSpec compares full speculation against local-only (§4.2.1 vs
// §4.2.2).
func AblationLocalSpec() Experiment {
	return Experiment{
		ID:    "ablation-localspec",
		Title: "Local-only vs multi-partition speculation",
		Ref:   "§4.2.2, §6.2.1",
		XAxis: "multi-partition transactions (%)",
		YAxis: "transactions/second",
		Run: func(o Opts) []Series {
			return []Series{
				sweep(o, "Speculation (MP)", microCfg{scheme: specdb.Speculation}),
				sweep(o, "Speculation (local only)", microCfg{scheme: specdb.Speculation, localOnly: true}),
			}
		},
	}
}

// AblationReplication measures the cost of k-replication (§2.2/§3.2).
func AblationReplication() Experiment {
	return Experiment{
		ID:    "ablation-replication",
		Title: "Replication factor sweep",
		Ref:   "§3.2",
		XAxis: "replicas (k)",
		YAxis: "transactions/second",
		Run: func(o Opts) []Series {
			var out []Series
			for _, scheme := range []specdb.Scheme{specdb.Speculation, specdb.Blocking} {
				base := microCfg{scheme: scheme, mpFrac: 0.1}
				cells, err := specdb.Sweep{
					Name: "ablation-replication",
					Base: microOpts(o, base),
					Axes: []specdb.Axis{
						specdb.NumAxis("replicas", []float64{1, 2, 3}, func(k float64) []specdb.Option {
							return []specdb.Option{specdb.WithReplicas(int(k))}
						}),
					},
				}.Run()
				if err != nil {
					panic(fmt.Sprintf("bench: replication sweep: %v", err))
				}
				o.tallyCells(cells)
				s := Series{Name: schemeName(scheme)}
				for _, cell := range cells {
					s.Points = append(s.Points, pointFor(cell.Xs[0], cell.Result))
				}
				out = append(out, s)
			}
			return out
		},
	}
}

// winner returns the scheme index with the highest throughput.
func winner(vals map[string]float64) string {
	type kv struct {
		k string
		v float64
	}
	var list []kv
	for k, v := range vals {
		list = append(list, kv{k, v})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].v != list[j].v {
			return list[i].v > list[j].v
		}
		return list[i].k < list[j].k
	})
	// Report ties within 5% like the paper's "Blocking or Locking".
	best := list[0]
	if len(list) > 1 && list[1].v > 0.95*best.v {
		return best.k + " or " + list[1].k
	}
	return best.k
}
