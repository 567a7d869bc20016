package explorer

// FuzzParsePoint pins the spec round-trip contract the HTTP cache keys
// rely on: for any spec ParsePoint accepts,
//
//  1. its Canonical form parses to an identical point (canonicalization
//     never changes meaning),
//  2. Canonical is idempotent, and
//  3. DesignPoint.Spec is a fixed point of parsing — parsing the recovered
//     spec yields the same point, and recovering again yields the same
//     spec.
//
// Invalid specs must be rejected by ParsePoint with an error, never a
// panic. Seeds cover the points the study's golden artifacts cache-key:
// the cryogenic volatiles and the eNVM tentpole corners across the
// stacking sweep.

import (
	"testing"
)

func FuzzParsePoint(f *testing.F) {
	// Golden cache-key seeds: (cell, corner, style, dies, temperature_k,
	// capacity_bytes, frequency_hz).
	seeds := []struct {
		cell, corner, style string
		dies                int
		tempK               float64
		capacity            int64
		freqHz              float64
	}{
		{"SRAM", "", "", 0, 0, 0, 0},                       // the baseline, all defaults
		{"SRAM", "optimistic", "tsv", 1, 77, 0, 0},         // Fig. 1 cryogenic endpoint
		{"3T-eDRAM", "", "tsv", 1, 77, 0, 0},               // Fig. 3/4 cold volatile
		{"1T1C-eDRAM", "", "", 1, 350, 0, 0},               // builtin with ignored corner
		{"PCM", "optimistic", "tsv", 8, 350, 0, 0},         // Fig. 6/7 tentpole
		{"PCM", "pessimistic", "tsv", 4, 350, 0, 0},        //
		{"STT-RAM", "optimistic", "tsv", 2, 350, 0, 0},     //
		{"STT-RAM", "pessimistic", "tsv", 1, 350, 0, 0},    //
		{"RRAM", "optimistic", "monolithic", 4, 350, 0, 0}, //
		{"RRAM", "pessimistic", "face-to-face", 2, 350, 0, 0},
		{"SOT-RAM", "optimistic", "tsv", 1, 350, 32 << 20, 0}, // capacity override
		{"OS-GC", "optimistic", "monolithic", 4, 77, 0, 0},    // gain-cell sweep point
		{"OS-GC", "pessimistic", "monolithic", 2, 4, 0, 0},    // deep-cryo gain cell
		{"SRAM", "", "tsv", 1, 4, 0, 0},                       // 4 K characterization
		{"SRAM", "", "tsv", 1, 350, 0, 2.5e9},                 // frequency override
		{"3T-eDRAM", "", "tsv", 1, 77, 0, 1e10},               // cryo-boosted clock
		{"SRAM", "", "tsv", 1, 350, 0, 5e9},                   // explicit default clock
		{"FeRAM", "typical", "bga", 3, -40, -1, -5},           // invalid on every axis
	}
	for _, s := range seeds {
		f.Add(s.cell, s.corner, s.style, s.dies, s.tempK, s.capacity, s.freqHz)
	}
	f.Fuzz(func(t *testing.T, cellName, corner, style string, dies int, tempK float64, capacity int64, freqHz float64) {
		spec := PointSpec{
			Cell: cellName, Corner: corner, Style: style,
			Dies: dies, TemperatureK: tempK, CapacityBytes: capacity,
			FrequencyHz: freqHz,
		}
		p, err := ParsePoint(spec)
		if err != nil {
			return // rejected specs only need to not panic
		}
		if p.Label == "" || p.Key() == "" {
			t.Fatalf("accepted point has empty identity: %+v", p)
		}

		canon := spec.withDefaults()
		if again := canon.withDefaults(); again != canon {
			t.Errorf("withDefaults not idempotent: %+v -> %+v", canon, again)
		}
		p2, err := ParsePoint(canon)
		if err != nil {
			t.Fatalf("canonical form of an accepted spec rejected: %+v: %v", canon, err)
		}
		if p2.Key() != p.Key() || p2.Label != p.Label {
			t.Errorf("canonicalization changed the point:\nspec:  %+v -> %s (%s)\ncanon: %+v -> %s (%s)",
				spec, p.Key(), p.Label, canon, p2.Key(), p2.Label)
		}

		recovered := p.Spec()
		p3, err := ParsePoint(recovered)
		if err != nil {
			t.Fatalf("recovered spec of an accepted point rejected: %+v: %v", recovered, err)
		}
		if p3.Key() != p.Key() || p3.Label != p.Label {
			t.Errorf("Spec round trip changed the point: %+v -> %+v -> %s, want %s",
				spec, recovered, p3.Key(), p.Key())
		}
		if fixed := p3.Spec(); fixed != recovered {
			t.Errorf("Spec is not a parse fixed point: %+v -> %+v", recovered, fixed)
		}
	})
}
