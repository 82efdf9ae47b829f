package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"syscall"
	"time"

	"specdb"
)

// slice is the host cost of one part of the measured window. slow is how
// much slower than the reference the host's memory system ran around it:
// the geometric mean of the memory probes just before and just after it,
// over probeRefNs (see probe.go).
type slice struct {
	wall   time.Duration
	cpu    time.Duration
	txns   uint64
	allocs uint64
	bytes  uint64
	slow   float64
}

// roundOut is everything one round measured.
type roundOut struct {
	setupS    []float64 // wall seconds of each timed Open
	setupSlow float64   // the memory probes around the Opens, as for a slice
	heapMB    float64   // live heap after the round's Open
	slices    []slice
	// base is the Result at the end of warm-up, res at the end of the
	// measured window; their difference is the window's work.
	base, res specdb.Result
	// completed counts completions inside the measured window.
	completed uint64
	wall      time.Duration
	// Window latency quantiles in µs (see latencyQuantile) and the sample
	// count behind them.
	p50, p99, mpP99 float64
	latN            uint64
	// logBytes is the command-log growth over the window, all partitions.
	logBytes int
	checkErr error
	// probes are the round's memory-probe readings, in ns per access.
	probes []float64
}

// open assembles one cluster for w. tr may be nil (untraced). committed
// counts committed transactions over the DB's whole life.
func open(w *workloadSpec, seed int64, tr *tracer, committed *uint64) (*specdb.DB, error) {
	reg := specdb.NewRegistry()
	for _, p := range w.procs {
		reg.Register(tr.proc(p))
	}
	opts := []specdb.Option{
		specdb.WithPartitions(partitions),
		specdb.WithClients(clients),
		specdb.WithSeed(seed),
		specdb.WithWarmup(w.warmup),
		specdb.WithMeasure(w.window),
		specdb.WithRegistry(reg),
		specdb.WithSetup(tr.setup(w.setup(seed))),
		specdb.WithWorkload(tr.gen(w.gen())),
		specdb.WithOnComplete(func(_ int, _ *specdb.Invocation, r *specdb.Reply) {
			if r.Committed {
				*committed++
			}
		}),
	}
	return specdb.Open(append(opts, w.opts...)...)
}

// slicesPerRound is how many parts a round's measured window is timed in.
const slicesPerRound = 4

// runRound runs one round: setupReps timed Opens (the last DB is kept), the
// warm-up, the measured window in slicesPerRound parts, then a drain and the
// output checks, which sit outside every timed span. Every round of a seed
// does the same work, so rounds repeat the host measurement exactly. The
// memory probe runs before the Opens, after the warm-up and after every
// slice, never inside a timed span.
func runRound(w *workloadSpec, seed int64, setupReps int, tr *tracer, pr *memProbe) (*roundOut, error) {
	out := &roundOut{}
	probe := func() float64 {
		ns := pr.sample()
		out.probes = append(out.probes, ns)
		return ns
	}
	probeBefore := probe()
	var db *specdb.DB
	var committed uint64
	for i := 0; i < setupReps; i++ {
		db, committed = nil, 0
		runtime.GC()
		tr.beginOpen()
		t0 := time.Now()
		var err error
		db, err = open(w, seed, tr, &committed)
		d := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("open %s: %w", w.name, err)
		}
		tr.endOpen(d)
		out.setupS = append(out.setupS, d.Seconds())
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	out.heapMB = float64(ms.HeapAlloc) / 1e6

	db.RunFor(w.warmup)
	probeAfter := probe()
	out.setupSlow = math.Sqrt(probeBefore*probeAfter) / probeRefNs
	probeBefore = probeAfter
	out.base = db.Result()
	c0 := db.Peek().Completed
	log0 := tr.logLen(db)
	tr.beginWindow(db)
	runtime.GC()
	for i := 0; i < slicesPerRound; i++ {
		var m0, m1 runtime.MemStats
		before := db.Peek().Completed
		runtime.ReadMemStats(&m0)
		cpu0 := cpuTime()
		t0 := time.Now()
		if i == slicesPerRound-1 {
			db.Run()
		} else {
			db.RunFor(w.window / slicesPerRound)
		}
		wall := time.Since(t0)
		cpu1 := cpuTime()
		runtime.ReadMemStats(&m1)
		probeAfter := probe()
		out.slices = append(out.slices, slice{
			slow:   math.Sqrt(probeBefore*probeAfter) / probeRefNs,
			wall:   wall,
			cpu:    cpu1 - cpu0,
			txns:   db.Peek().Completed - before,
			allocs: m1.Mallocs - m0.Mallocs,
			bytes:  m1.TotalAlloc - m0.TotalAlloc,
		})
		out.wall += wall
		probeBefore = probeAfter
	}
	tr.endWindow(out.wall)
	out.res = db.Result()
	out.completed = db.Peek().Completed - c0
	out.logBytes = tr.logLen(db) - log0

	lat := &db.Clients()[0].Metrics.WindowLat
	all := lat.Merged()
	out.p50 = latencyQuantile(&all, 0.50)
	out.p99 = latencyQuantile(&all, 0.99)
	out.latN = all.N()
	out.mpP99 = latencyQuantile(lat.Hist(true, false), 0.99)

	// Drain: stop issuing, let every in-flight transaction finish, then
	// check the quiescent stores.
	if err := db.SetWorkload(stopGen{}); err != nil {
		return nil, fmt.Errorf("drain %s: %w", w.name, err)
	}
	db.RunUntil(func(specdb.Metrics) bool { return false })
	out.checkErr = w.check(db, committed)
	return out, nil
}

// stopGen ends every client's stream.
type stopGen struct{}

func (stopGen) Next(int, *rand.Rand) *specdb.Invocation { return nil }

// logLen is the command log's size over all partitions. Only the traced
// rounds need it; LogBytes copies the whole log.
func (t *tracer) logLen(db *specdb.DB) int {
	if t == nil {
		return 0
	}
	n := 0
	for p := 0; p < partitions; p++ {
		n += len(db.LogBytes(specdb.PartitionID(p)))
	}
	return n
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
