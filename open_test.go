package specdb

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"specdb/internal/workload"
)

// minimalOpts is the smallest valid option set: everything else defaults.
func minimalOpts() []Option {
	return []Option{
		WithRegistry(kvRegistry()),
		WithSetup(kvSetup(40)),
		WithWorkload(&workload.Micro{Partitions: 2, KeysPerTxn: testKeys}),
	}
}

func TestOptionDefaults(t *testing.T) {
	db := mustOpen(t, minimalOpts()...)
	if db.cfg.partitions != 2 {
		t.Errorf("default partitions = %d, want 2", db.cfg.partitions)
	}
	if db.cfg.clients != 40 {
		t.Errorf("default clients = %d, want 40", db.cfg.clients)
	}
	if db.cfg.scheme != Speculation {
		t.Errorf("default scheme = %v, want speculation", db.cfg.scheme)
	}
	if db.cfg.replicas != 1 {
		t.Errorf("default replicas = %d, want 1", db.cfg.replicas)
	}
	if db.cfg.seed != 0 || db.cfg.warmup != 0 || db.cfg.measure != 0 {
		t.Errorf("default seed/warmup/measure = %d/%v/%v, want zero",
			db.cfg.seed, db.cfg.warmup, db.cfg.measure)
	}
	if !reflect.DeepEqual(db.cfg.costs, DefaultCosts()) {
		t.Errorf("default costs differ from DefaultCosts")
	}
	if len(db.clients) != 40 || len(db.parts) != 2 {
		t.Errorf("assembled %d clients / %d partitions", len(db.clients), len(db.parts))
	}
	if got := len(db.BackupStores(0)); got != 0 {
		t.Errorf("default run has %d backups, want 0", got)
	}
}

func TestOptionsOverrideInOrder(t *testing.T) {
	opts := append(minimalOpts(),
		WithPartitions(3), WithPartitions(4),
		WithScheme(Blocking), WithScheme(Locking),
	)
	db := mustOpen(t, opts...)
	if db.cfg.partitions != 4 {
		t.Errorf("partitions = %d, want 4 (later option wins)", db.cfg.partitions)
	}
	if db.cfg.scheme != Locking {
		t.Errorf("scheme = %v, want locking (later option wins)", db.cfg.scheme)
	}
}

func TestOpenErrors(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
		want error
	}{
		{"no registry", []Option{WithWorkload(&workload.Micro{Partitions: 2, KeysPerTxn: 1})}, ErrNoRegistry},
		{"no workload", []Option{WithRegistry(kvRegistry())}, ErrNoWorkload},
		{"bad scheme", append(minimalOpts(), WithScheme(Scheme(42))), ErrBadScheme},
		{"zero partitions", append(minimalOpts(), WithPartitions(0)), ErrBadPartitions},
		{"negative partitions", append(minimalOpts(), WithPartitions(-1)), ErrBadPartitions},
		{"zero clients", append(minimalOpts(), WithClients(0)), ErrBadClients},
		{"negative clients", append(minimalOpts(), WithClients(-3)), ErrBadClients},
		{"zero replicas", append(minimalOpts(), WithReplicas(0)), ErrBadReplicas},
		{"negative warmup", append(minimalOpts(), WithWarmup(-Millisecond)), ErrBadWindow},
		{"negative measure", append(minimalOpts(), WithMeasure(-Millisecond)), ErrBadWindow},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db, err := Open(tc.opts...)
			if db != nil || err == nil {
				t.Fatalf("Open = (%v, %v), want error", db, err)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error = %v, want errors.Is(%v)", err, tc.want)
			}
		})
	}
}

// TestBadSchemeFailsAtOpen is the regression for the late-failure bug: an
// unknown scheme used to panic deep inside the engine-factory closure on
// first message delivery; it must be rejected before any event runs.
func TestBadSchemeFailsAtOpen(t *testing.T) {
	_, err := Open(append(minimalOpts(), WithScheme(Scheme(99)))...)
	if !errors.Is(err, ErrBadScheme) {
		t.Fatalf("unknown scheme: error = %v, want ErrBadScheme", err)
	}
}

// TestBadSchemeErrorEnumeratesSchemes pins the error text to the full scheme
// list: it is the first thing a user sees after a typo, and it silently went
// stale once when new schemes were added.
func TestBadSchemeErrorEnumeratesSchemes(t *testing.T) {
	for _, want := range []string{"Blocking", "Speculation", "Locking", "MVCC", "OCC"} {
		if !strings.Contains(ErrBadScheme.Error(), want) {
			t.Errorf("ErrBadScheme = %q: missing %q", ErrBadScheme, want)
		}
	}
}

// TestDeterministicByteIdenticalResult: the same seed and options produce a
// byte-identical Result, including slices and quantiles.
func TestDeterministicByteIdenticalResult(t *testing.T) {
	for _, scheme := range []Scheme{Blocking, Speculation, Locking} {
		a := mustOpen(t, timedOpts(scheme, 0.3)...).Run()
		b := mustOpen(t, timedOpts(scheme, 0.3)...).Run()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%v: results differ:\n%+v\n%+v", scheme, a, b)
		}
		if fmt.Sprintf("%#v", a) != fmt.Sprintf("%#v", b) {
			t.Fatalf("%v: results not byte-identical", scheme)
		}
	}
}

// TestDeterministicAcrossEngineWarmup: the allocation overhaul added
// process-level warm state — interned key tables, pooled undo buffers and
// lock entries, reused generator and view buffers. None of it may leak into
// results: the first (cold) run of a configuration and every later (warm)
// run, including runs interleaved with *different* configurations that churn
// the shared intern tables and pools, must produce bit-identical Results.
func TestDeterministicAcrossEngineWarmup(t *testing.T) {
	for _, scheme := range []Scheme{Blocking, Speculation, Locking} {
		cold := mustOpen(t, timedOpts(scheme, 0.3)...).Run()
		// Churn the shared warm state with unrelated configurations.
		mustOpen(t, timedOpts(scheme, 0.7)...).Run()
		mustOpen(t, append(timedOpts(scheme, 0.5), WithClients(7), WithSeed(99))...).Run()
		warm := mustOpen(t, timedOpts(scheme, 0.3)...).Run()
		if !reflect.DeepEqual(cold, warm) {
			t.Fatalf("%v: cold and warm results differ:\ncold: %+v\nwarm: %+v", scheme, cold, warm)
		}
	}
}
