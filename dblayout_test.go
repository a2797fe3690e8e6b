package dblayout_test

import (
	"bytes"
	"strings"
	"testing"

	"dblayout"
	"dblayout/internal/layouttest"
)

// testProblem builds a small public-API problem using the shared test
// models.
func testProblem() dblayout.Problem {
	inst := layouttest.Instance(4)
	return dblayout.Problem{
		Objects:   inst.Objects,
		Targets:   inst.Targets,
		Workloads: inst.Workloads,
	}
}

func TestRecommendEndToEnd(t *testing.T) {
	p := testProblem()
	rec, err := dblayout.Recommend(p, dblayout.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Final == nil || !rec.Final.IsRegular() {
		t.Fatal("expected a regular final layout")
	}
	// The recommendation must beat SEE on this interference-heavy
	// problem, by the model's own metric.
	seeUtils, err := dblayout.Utilizations(p, dblayout.SEE(len(p.Objects), len(p.Targets)))
	if err != nil {
		t.Fatal(err)
	}
	maxSee := 0.0
	for _, u := range seeUtils {
		if u > maxSee {
			maxSee = u
		}
	}
	if rec.FinalObjective >= maxSee {
		t.Fatalf("recommendation %.4f did not beat SEE %.4f", rec.FinalObjective, maxSee)
	}
}

func TestRecommendSkipRegularization(t *testing.T) {
	p := testProblem()
	rec, err := dblayout.Recommend(p, dblayout.Options{Seed: 1, SkipRegularization: true})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Final != rec.Solver {
		t.Fatal("expected the solver layout when regularization is skipped")
	}
}

func TestRecommendValidatesProblem(t *testing.T) {
	p := testProblem()
	p.Workloads = nil
	if _, err := dblayout.Recommend(p); err == nil {
		t.Fatal("problem without workloads accepted")
	}
}

func TestUtilizationsValidatesLayout(t *testing.T) {
	p := testProblem()
	bad := dblayout.SEE(len(p.Objects), len(p.Targets))
	bad.Set(0, 0, 0.9) // break integrity
	if _, err := dblayout.Utilizations(p, bad); err == nil {
		t.Fatal("invalid layout accepted")
	}
}

func TestFitWorkloadsFromTrace(t *testing.T) {
	tr := &dblayout.Trace{}
	for i := 0; i < 200; i++ {
		tr.Record(dblayout.TraceRecord{
			Time: float64(i) * 0.01, Object: 0, Target: "d",
			Offset: int64(i) * 8192, Size: 8192,
		})
	}
	set, err := dblayout.FitWorkloads(tr, []string{"A", "B"}, dblayout.FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if set.Workloads[0].ReadRate <= 0 || set.Workloads[0].RunCount < 10 {
		t.Fatalf("fit lost the sequential stream: %v", set.Workloads[0])
	}
	if !set.Workloads[1].Idle() {
		t.Fatal("untouched object should fit as idle")
	}
}

func TestModelRoundTrip(t *testing.T) {
	m := layouttest.DiskModel()
	var buf bytes.Buffer
	if err := dblayout.SaveModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	m2, err := dblayout.LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Target != m.Target {
		t.Fatalf("round trip changed target: %q", m2.Target)
	}
}

func TestFormatLayout(t *testing.T) {
	p := testProblem()
	s := dblayout.FormatLayout(p, dblayout.SEE(len(p.Objects), len(p.Targets)))
	if !strings.Contains(s, "T1") || !strings.Contains(s, "25.0%") {
		t.Fatalf("unexpected format:\n%s", s)
	}
}

func TestPublicMigrationAndIncremental(t *testing.T) {
	p := testProblem()
	see := dblayout.SEE(len(p.Objects), len(p.Targets))
	rec, err := dblayout.Recommend(p, dblayout.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := dblayout.MigrationPlan(p, see, rec.Final)
	if err != nil {
		t.Fatal(err)
	}
	if dblayout.PlanBytes(plan) <= 0 {
		t.Fatal("migration from SEE to the recommendation should move data")
	}
	// Incremental placement of the cold object into the recommendation.
	inc, err := dblayout.PlaceIncremental(p, rec.Final, []int{3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < len(p.Targets); j++ {
			if inc.At(i, j) != rec.Final.At(i, j) {
				t.Fatalf("incremental placement moved existing object %d", i)
			}
		}
	}
}

func TestPublicConstraints(t *testing.T) {
	p := testProblem()
	p.Constraints = &dblayout.Constraints{
		Deny:     map[int][]int{0: {0, 1}},
		Separate: [][2]int{{0, 1}},
	}
	rec, err := dblayout.Recommend(p, dblayout.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Final.At(0, 0) > 1e-9 || rec.Final.At(0, 1) > 1e-9 {
		t.Fatalf("denied placement used: %v", rec.Final.Row(0))
	}
	for j := 0; j < len(p.Targets); j++ {
		if rec.Final.At(0, j) > 1e-9 && rec.Final.At(1, j) > 1e-9 {
			t.Fatalf("separated objects share target %d", j)
		}
	}
}

// TestParseObjectKindAndDeviceFactory pins the shared problem-document
// vocabulary: object kinds and built-in device types.
func TestParseObjectKindAndDeviceFactory(t *testing.T) {
	for in, want := range map[string]dblayout.ObjectKind{
		"": dblayout.KindTable, "Table": dblayout.KindTable, "index": dblayout.KindIndex,
		"LOG": dblayout.KindLog, "temp": dblayout.KindTemp,
	} {
		if got, err := dblayout.ParseObjectKind(in); err != nil || got != want {
			t.Errorf("ParseObjectKind(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := dblayout.ParseObjectKind("view"); err == nil {
		t.Error("unknown object kind accepted")
	}
	for _, name := range []string{"disk15k", "disk7200", "ssd"} {
		if f, err := dblayout.DeviceFactory(name); err != nil || f == nil {
			t.Errorf("DeviceFactory(%q): %v", name, err)
		}
	}
	for _, name := range []string{"", "@model.json", "raid0x4"} {
		if _, err := dblayout.DeviceFactory(name); err == nil {
			t.Errorf("DeviceFactory(%q) accepted", name)
		}
	}
}
