package drift

import (
	"math"
	"testing"
	"time"
)

func TestParseFaults(t *testing.T) {
	faults, err := ParseFaults("stuck:3,drop:0.01,offset:2:+5,drift:web->compute@30s")
	if err != nil {
		t.Fatal(err)
	}
	if len(faults) != 4 {
		t.Fatalf("parsed %d faults", len(faults))
	}
	if f := faults[0]; f.Kind != FaultStuck || f.Sensor != 3 || !math.IsNaN(f.Value) {
		t.Fatalf("stuck entry %+v", f)
	}
	if f := faults[1]; f.Kind != FaultDrop || f.Rate != 0.01 {
		t.Fatalf("drop entry %+v", f)
	}
	if f := faults[2]; f.Kind != FaultOffset || f.Sensor != 2 || f.Offset != 5 {
		t.Fatalf("offset entry %+v", f)
	}
	if f := faults[3]; f.Kind != FaultDrift || f.From != "web" || f.To != "compute" || f.At != 30*time.Second {
		t.Fatalf("drift entry %+v", f)
	}

	// Unicode arrow and pinned stuck value.
	faults, err = ParseFaults("drift:web→compute@1m, stuck:0:85.5")
	if err != nil {
		t.Fatal(err)
	}
	if faults[0].To != "compute" || faults[0].At != time.Minute {
		t.Fatalf("unicode-arrow drift %+v", faults[0])
	}
	if faults[1].Value != 85.5 {
		t.Fatalf("pinned stuck %+v", faults[1])
	}

	if fs, err := ParseFaults("  "); err != nil || fs != nil {
		t.Fatalf("empty spec: %v, %v", fs, err)
	}
	for _, bad := range []string{
		"stuck", "stuck:x", "stuck:-1", "drop:0", "drop:1.5", "drop:x",
		"offset:1", "offset:x:5", "offset:1:y", "drift:web@30s",
		"drift:web->@30s", "drift:web->compute", "drift:web->compute@x",
		"wobble:3",
	} {
		if _, err := ParseFaults(bad); err == nil {
			t.Fatalf("spec %q should fail", bad)
		}
	}
}

func TestInjectorStuckFreezesFirstValue(t *testing.T) {
	faults, err := ParseFaults("stuck:1")
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(faults, 1)
	a := []float64{70, 75, 80}
	in.Apply(a)
	if a[1] != 75 {
		t.Fatalf("first apply changed the frozen sensor: %v", a[1])
	}
	b := []float64{71, 90, 81}
	in.Apply(b)
	if b[1] != 75 {
		t.Fatalf("stuck sensor read %v, want first-seen 75", b[1])
	}
	if b[0] != 71 || b[2] != 81 {
		t.Fatal("healthy sensors must pass through")
	}
}

func TestInjectorPinnedStuckAndOffset(t *testing.T) {
	faults, err := ParseFaults("stuck:0:85,offset:2:-3")
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(faults, 1)
	r := []float64{70, 75, 80}
	in.Apply(r)
	if r[0] != 85 || r[1] != 75 || r[2] != 77 {
		t.Fatalf("corrupted readings %v", r)
	}
	// Out-of-range indices are ignored, not a panic.
	short := []float64{70}
	in.Apply(short)
	if short[0] != 85 {
		t.Fatalf("short vector %v", short)
	}
}

func TestInjectorDropDeterministicUnderSeed(t *testing.T) {
	faults, err := ParseFaults("drop:0.3")
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed int64) []float64 {
		in := NewInjector(faults, seed)
		out := make([]float64, 0, 200)
		for step := 0; step < 20; step++ {
			r := make([]float64, 10)
			for i := range r {
				r[i] = 70 + float64(i)
			}
			in.Apply(r)
			out = append(out, r...)
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
	var drops int
	for _, v := range a {
		if v == 0 {
			drops++
		}
	}
	if drops == 0 || drops == len(a) {
		t.Fatalf("drop rate 0.3 produced %d/%d drops", drops, len(a))
	}
}

func TestInjectorWorkloadSwitch(t *testing.T) {
	faults, err := ParseFaults("drift:web->compute@30s")
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(faults, 1)
	if w, ok := in.Workload(0); !ok || w != "web" {
		t.Fatalf("t=0 workload %q ok=%v", w, ok)
	}
	if w, ok := in.Workload(29 * time.Second); !ok || w != "web" {
		t.Fatalf("t=29s workload %q ok=%v", w, ok)
	}
	if w, ok := in.Workload(30 * time.Second); !ok || w != "compute" {
		t.Fatalf("t=30s workload %q ok=%v", w, ok)
	}
	none := NewInjector(nil, 1)
	if _, ok := none.Workload(0); ok {
		t.Fatal("no drift entry should report ok=false")
	}
}
