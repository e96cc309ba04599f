package main

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/wire"
)

var smallSpec = trainSpec{Floorplan: "athlon", GridW: 12, GridH: 10, Snapshots: 40, Seed: 5, KMax: 6}

// TestHeldOutTraceBitIdentical pins the property every run relies on: the
// same seed yields bit-identical held-out maps, readings and request
// bodies; another seed, the verification set's simulation and the training
// ensemble all differ from it.
func TestHeldOutTraceBitIdentical(t *testing.T) {
	a, err := smallSpec.simulate(traceOffset(7), 48)
	if err != nil {
		t.Fatal(err)
	}
	b, err := smallSpec.simulate(traceOffset(7), 48)
	if err != nil {
		t.Fatal(err)
	}
	if a.T() != 48 || a.N() != 120 {
		t.Fatalf("trace is %d×%d, want 48×120", a.T(), a.N())
	}
	for i := 0; i < a.T(); i++ {
		ra, rb := a.Map(i), b.Map(i)
		for c := range ra {
			if math.Float64bits(ra[c]) != math.Float64bits(rb[c]) {
				t.Fatalf("snapshot %d cell %d: %v vs %v", i, c, ra[c], rb[c])
			}
		}
	}
	sensors := []int{3, 17, 64, 119}
	ba, bb := jsonReadingsBody(sampleAll(a, sensors), false), jsonReadingsBody(sampleAll(b, sensors), false)
	if string(ba) != string(bb) {
		t.Fatal("request bodies differ for one seed")
	}
	for _, offset := range []int64{0, heldOutOffset, traceOffset(8)} {
		other, err := smallSpec.simulate(offset, 48)
		if err != nil {
			t.Fatal(err)
		}
		same := true
		for c, v := range other.Map(10) {
			same = same && v == a.Map(10)[c]
		}
		if same {
			t.Fatalf("trace of seed 7 equals the simulation at offset %d", offset)
		}
	}
}

func TestRequestBodiesRoundTrip(t *testing.T) {
	rows := [][]float64{{1.5, -0.1, 1e-300}, {math.Pi, 2, 3}}
	var got struct {
		Readings    [][]float64 `json:"readings"`
		IncludeMaps bool        `json:"include_maps"`
	}
	if err := json.Unmarshal(jsonReadingsBody(rows, true), &got); err != nil {
		t.Fatal(err)
	}
	if !got.IncludeMaps || len(got.Readings) != 2 {
		t.Fatalf("decoded %+v", got)
	}
	for i := range rows {
		for j := range rows[i] {
			if math.Float64bits(got.Readings[i][j]) != math.Float64bits(rows[i][j]) {
				t.Fatalf("reading %d,%d: %v vs %v", i, j, got.Readings[i][j], rows[i][j])
			}
		}
	}
	body, err := binaryGovernBody(rows, &wire.GovernConfig{Policy: "pi", CeilingC: 80})
	if err != nil {
		t.Fatal(err)
	}
	req, err := wire.DecodeGovernRequest(body, nil)
	if err != nil || req.Config == nil || req.Config.CeilingC != 80 || len(req.Readings) != 2 {
		t.Fatalf("govern body decodes to %+v, %v", req, err)
	}
	if c := chunk(rows, 1, 3); c[0][0] != math.Pi || c[1][0] != 1.5 || c[2][0] != math.Pi {
		t.Fatalf("chunk does not wrap: %v", c)
	}
}

// TestVerifySetAgainstReference builds a small die end to end and checks
// that the verification set accepts the reference's own estimates and
// rejects a perturbed map.
func TestVerifySetAgainstReference(t *testing.T) {
	var lt layerTimes
	d, err := buildDie(smallSpec, 4, 6, 8, 64, 3, &lt)
	if err != nil {
		t.Fatal(err)
	}
	if lt.generate <= 0 || lt.train <= 0 || lt.place <= 0 || lt.fold != 0 {
		t.Fatalf("layer spans %+v: want generate, train and place timed, and the reference fold (not a daemon create) not", lt)
	}
	vs := d.verify
	maps, err := d.ref.EstimateBatch(vs.readings, 1)
	if err != nil {
		t.Fatal(err)
	}
	maxDiff, sq, cells, err := vs.check(maps)
	if err != nil || maxDiff != 0 || cells != 8*120 || !(sq > 0) {
		t.Fatalf("check(reference) = %v, %v, %d, %v", maxDiff, sq, cells, err)
	}
	maps[3][7] += 1e-6
	if maxDiff, _, _, _ := vs.check(maps); maxDiff <= verifyTol {
		t.Fatalf("perturbed map passes: max diff %v", maxDiff)
	}
	maps[2] = maps[2][:5]
	if _, _, _, err := vs.check(maps); err == nil {
		t.Fatal("short map accepted")
	}
	if err := calibrate(d.ref, d.train); err != nil {
		t.Fatal(err)
	}
}
