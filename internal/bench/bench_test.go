package bench

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestAllExperimentsHaveUniqueIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.Ref == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %q", e.ID)
		}
		seen[e.ID] = true
	}
	for _, want := range []string{"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "table1", "table2"} {
		if !seen[want] {
			t.Fatalf("missing paper experiment %q", want)
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("fig4"); !ok {
		t.Fatal("fig4 missing")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("found nonexistent experiment")
	}
}

func TestExpectedMPFraction(t *testing.T) {
	// q=0: never multi-partition.
	if got := expectedMPFraction(0, 6, 2); got != 0 {
		t.Fatalf("q=0 → %f", got)
	}
	// TPC-C default q=0.01 with 6 warehouses: ~5.8% (§5.6 reports 9.5%
	// for their parameterization at W=6; ours uses rho=3/5).
	got := expectedMPFraction(0.01, 6, 2)
	if got < 0.04 || got > 0.08 {
		t.Fatalf("q=0.01 → %f", got)
	}
	// Monotonic in q.
	prev := -1.0
	for q := 0.0; q <= 1.0; q += 0.1 {
		v := expectedMPFraction(q, 6, 2)
		if v < prev {
			t.Fatalf("not monotonic at q=%.1f", q)
		}
		prev = v
	}
	// W=2: every remote item is on the other partition.
	if got := expectedMPFraction(1, 2, 2); math.Abs(got-1) > 1e-9 {
		t.Fatalf("W=2 q=1 → %f", got)
	}
}

func TestWinnerTieReporting(t *testing.T) {
	if w := winner(map[string]float64{"A": 100, "B": 50}); w != "A" {
		t.Fatalf("winner = %q", w)
	}
	if w := winner(map[string]float64{"A": 100, "B": 97}); w != "A or B" {
		t.Fatalf("tie = %q", w)
	}
}

func TestFormatColumnar(t *testing.T) {
	e := Experiment{ID: "x", Title: "T", Ref: "§0", XAxis: "x", YAxis: "y"}
	series := []Series{
		{Name: "s1", Points: []Point{{X: 0, Y: 10}, {X: 1, Y: 20}}},
		{Name: "s2", Points: []Point{{X: 0, Y: 30}, {X: 1, Y: 40}}},
	}
	var sb strings.Builder
	Format(&sb, e, series)
	out := sb.String()
	for _, want := range []string{"s1", "s2", "10", "40"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFormatCSV(t *testing.T) {
	e := Experiment{ID: "x"}
	series := []Series{{Name: "a,b", Points: []Point{{X: 1, Y: 2}}}}
	var sb strings.Builder
	FormatCSV(&sb, e, series)
	if !strings.Contains(sb.String(), "x,a;b,1,2") {
		t.Fatalf("csv = %q", sb.String())
	}
}

// TestQuickFigure4Shape runs the flagship experiment end to end at reduced
// fidelity and validates the headline claims of §5.1.
func TestQuickFigure4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	o := QuickOpts()
	o.Measure = 60 * 1000 * 1000 // 60ms
	series := Figure4().Run(o)
	byName := map[string][]Point{}
	for _, s := range series {
		byName[s.Name] = s.Points
	}
	spec, lock, block := byName["Speculation"], byName["Locking"], byName["Blocking"]
	if spec == nil || lock == nil || block == nil {
		t.Fatalf("missing series: %v", byName)
	}
	// At 0% everything is close.
	if math.Abs(spec[0].Y-block[0].Y) > 0.05*block[0].Y {
		t.Errorf("schemes differ at 0%%: %f vs %f", spec[0].Y, block[0].Y)
	}
	last := len(spec) - 1
	// At 100% locking wins (coordinator saturation), blocking loses.
	if !(lock[last].Y > spec[last].Y && spec[last].Y > block[last].Y) {
		t.Errorf("100%% ordering wrong: lock=%f spec=%f block=%f",
			lock[last].Y, spec[last].Y, block[last].Y)
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	e := Experiment{ID: "x"}
	series := []Series{{Name: "s", Points: []Point{{X: 0, Y: 100}, {X: 20, Y: 80}}}}
	var sb strings.Builder
	if err := FormatJSON(&sb, e, series); err != nil {
		t.Fatal(err)
	}
	FormatPerfJSON(&sb, Perf{Experiment: "x", Perf: true, Allocs: 5})
	cells, err := ReadBaseline(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("got %d cells (perf record must be skipped), want 2", len(cells))
	}
	if cells[1] != (BaselineCell{Experiment: "x", Series: "s", X: 20, Y: 80}) {
		t.Fatalf("cell = %+v", cells[1])
	}
}

func TestCompareBaseline(t *testing.T) {
	base := []BaselineCell{
		{"fig4", "Speculation", 0, 1000, 0},
		{"fig4", "Speculation", 50, 500, 0},
		{"fig9", "Locking", 0, 800, 0},
	}
	// Within tolerance, above baseline, and a baseline-only cell from an
	// experiment that was not re-run: all pass.
	// Fresh cells carry Shards 1 (a width-1 run): they must fold onto the
	// baseline's zero-valued cells.
	fresh := []BaselineCell{
		{"fig4", "Speculation", 0, 800, 1},
		{"fig4", "Speculation", 50, 700, 1},
		{"fig4", "NewSeries", 0, 1, 1}, // not in baseline: ignored
	}
	if bad, _ := CompareBaseline(base, fresh, 0.25); len(bad) != 0 {
		t.Fatalf("unexpected regressions: %v", bad)
	}
	// A drop beyond tolerance fails.
	fresh[0].Y = 700
	bad, _ := CompareBaseline(base, fresh, 0.25)
	if len(bad) != 1 || !strings.Contains(bad[0], "fig4/Speculation/x=0") {
		t.Fatalf("regressions = %v, want one for fig4/Speculation/x=0", bad)
	}
	// A baseline cell that vanished from a re-run experiment fails.
	fresh[0].Y = 1000
	bad, _ = CompareBaseline(base, fresh[:1], 0.25)
	if len(bad) != 1 || !strings.Contains(bad[0], "missing from fresh run") {
		t.Fatalf("regressions = %v, want one missing-cell failure", bad)
	}
}

// TestCompareBaselineCountsComparedCells: when the baseline and the fresh
// run only partly overlap, the compared count covers exactly the fresh cells
// with a baseline counterpart — not every fresh cell, and not every baseline
// cell — so a summary built on it cannot overstate what the gate checked.
func TestCompareBaselineCountsComparedCells(t *testing.T) {
	base := []BaselineCell{
		{"fig4", "Speculation", 0, 1000, 0},
		{"fig4", "Speculation", 50, 500, 0},
		{"fig9", "Locking", 0, 800, 0}, // experiment not re-run
	}
	fresh := []BaselineCell{
		{"fig4", "Speculation", 0, 1000, 1},
		{"fig4", "Speculation", 50, 500, 1},
		{"fig4", "Blocking", 0, 900, 1},     // series not in the baseline
		{"fig5", "Locking", 10, 700, 1},     // experiment not in the baseline
		{"fig4", "Speculation", 0, 1000, 2}, // other width: a new cell
	}
	bad, compared := CompareBaseline(base, fresh, 0.25)
	if len(bad) != 0 {
		t.Fatalf("unexpected regressions: %v", bad)
	}
	if compared != 2 {
		t.Fatalf("compared = %d, want 2 of %d fresh cells", compared, len(fresh))
	}
	if _, compared := CompareBaseline(base, fresh[2:], 0.25); compared != 0 {
		t.Fatalf("disjoint cells: compared = %d, want 0", compared)
	}
}

// TestBaselineKeyStabilityElasticCells pins the cell-key contract for the
// elasticity experiment: dip_ms and rows_moved are payload, not identity, so
// a cell re-measured with a different migration outcome still compares
// against the same baseline cell, and elastic cells never collide with other
// experiments' cells of the same series and x.
func TestBaselineKeyStabilityElasticCells(t *testing.T) {
	e := Experiment{ID: "elastic-split"}
	withMig := []Series{{Name: "Speculation", Points: []Point{
		{X: 0.9, Y: 50000, DipMs: 3.2, RowsMoved: 240, Shards: 1}}}}
	noMig := []Series{{Name: "Speculation", Points: []Point{
		{X: 0.9, Y: 50000, Shards: 1}}}}
	parse := func(series []Series) BaselineCell {
		var sb strings.Builder
		if err := FormatJSON(&sb, e, series); err != nil {
			t.Fatal(err)
		}
		cells, err := ReadBaseline(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatal(err)
		}
		if len(cells) != 1 {
			t.Fatalf("got %d cells", len(cells))
		}
		return cells[0]
	}
	a, b := parse(withMig), parse(noMig)
	if a.key() != b.key() {
		t.Fatalf("migration payload leaked into the cell key: %q vs %q", a.key(), b.key())
	}
	if bad, _ := CompareBaseline([]BaselineCell{a}, []BaselineCell{b}, 0.01); len(bad) != 0 {
		t.Fatalf("same-throughput cells flagged: %v", bad)
	}
	other := a
	other.Experiment = "zipf-skew"
	if a.key() == other.key() {
		t.Fatal("elastic cell key collides with another experiment")
	}
}

// TestCommittedBaselinesRoundTrip re-encodes the repository's committed
// BENCH_*.json baselines through the NDJSON cell format and compares the
// round trip against the original at zero tolerance: the format changes that
// added migration columns must not disturb a single committed cell.
func TestCommittedBaselinesRoundTrip(t *testing.T) {
	for _, name := range []string{"BENCH_4.json", "BENCH_8.json"} {
		t.Run(name, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join("..", "..", name))
			if err != nil {
				t.Skipf("no committed baseline: %v", err)
			}
			orig, err := ReadBaseline(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			if len(orig) == 0 {
				t.Fatal("baseline parsed to zero cells")
			}
			var sb strings.Builder
			enc := json.NewEncoder(&sb)
			for _, c := range orig {
				if err := enc.Encode(c); err != nil {
					t.Fatal(err)
				}
			}
			again, err := ReadBaseline(strings.NewReader(sb.String()))
			if err != nil {
				t.Fatal(err)
			}
			if bad, _ := CompareBaseline(orig, again, 0); len(bad) != 0 {
				t.Fatalf("round trip vs original: %v", bad)
			}
			if bad, _ := CompareBaseline(again, orig, 0); len(bad) != 0 {
				t.Fatalf("original vs round trip: %v", bad)
			}
		})
	}
}
