package eigenmaps_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	eigenmaps "repro"
)

// A saved model reloads bit-identically: the same sensors are placed and the
// same estimates come out.
func TestModelSaveLoadRoundTrip(t *testing.T) {
	ens, m := fixture(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := eigenmaps.LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Grid() != m.Grid() || got.KMax() != m.KMax() {
		t.Fatal("metadata changed")
	}
	s1, err := m.PlaceSensors(6, eigenmaps.PlaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := got.PlaceSensors(6, eigenmaps.PlaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("placement differs: %v vs %v", s1, s2)
		}
	}
	// The energy map survives too: the energy-center allocator reads it.
	e1, err := m.PlaceSensors(6, eigenmaps.PlaceOptions{Strategy: eigenmaps.EnergyAllocation})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := got.PlaceSensors(6, eigenmaps.PlaceOptions{Strategy: eigenmaps.EnergyAllocation})
	if err != nil {
		t.Fatal(err)
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("energy placement differs: %v vs %v", e1, e2)
		}
	}
	mon1, err := m.NewMonitor(6, s1)
	if err != nil {
		t.Fatal(err)
	}
	mon2, err := got.NewMonitor(6, s2)
	if err != nil {
		t.Fatal(err)
	}
	x := ens.Map(5)
	a, err := mon1.Estimate(mon1.Sample(x))
	if err != nil {
		t.Fatal(err)
	}
	b, err := mon2.Estimate(mon2.Sample(x))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("loaded model reconstructs differently")
		}
	}
}

// SaveFile goes through the store's atomic write: the file reloads, an
// overwrite replaces it, and no temporary file is left behind.
func TestModelSaveLoadFile(t *testing.T) {
	_, m := fixture(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "model.emod")
	for i := 0; i < 2; i++ {
		if err := m.SaveFile(path); err != nil {
			t.Fatal(err)
		}
	}
	got, err := eigenmaps.LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.KMax() != m.KMax() {
		t.Fatal("file round trip mismatch")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "model.emod" {
		t.Fatalf("directory holds %v, want only model.emod", entries)
	}
}

// Garbage and monitor files are typed store errors, not models.
func TestLoadModelRejectsGarbage(t *testing.T) {
	if _, err := eigenmaps.LoadModel(bytes.NewReader([]byte("nope"))); !errors.Is(err, eigenmaps.ErrStoreBadMagic) {
		t.Fatalf("err = %v, want ErrStoreBadMagic", err)
	}
	_, m := fixture(t)
	sensors, err := m.PlaceSensors(6, eigenmaps.PlaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mon, err := m.NewMonitor(6, sensors)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mon.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := eigenmaps.LoadModel(&buf); !errors.Is(err, eigenmaps.ErrStoreInvalid) {
		t.Fatalf("monitor file as model: err = %v, want ErrStoreInvalid", err)
	}
}
