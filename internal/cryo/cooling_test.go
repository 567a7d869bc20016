package cryo

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestOverheadValuesMatchPaper(t *testing.T) {
	want := map[CoolerClass]float64{
		Cooler100kW: 9.65,
		Cooler1kW:   14.3,
		Cooler100W:  21.8,
		Cooler10W:   39.6,
	}
	for c, w := range want {
		if got := c.Overhead(); got != w {
			t.Errorf("%v overhead = %g, want %g", c, got, w)
		}
	}
}

func TestOverheadAmortizesWithCapacity(t *testing.T) {
	curve := overheadCurve()
	if len(curve) != 4 {
		t.Fatalf("curve has %d points, want 4", len(curve))
	}
	for i := 1; i < len(curve); i++ {
		if curve[i][0] <= curve[i-1][0] {
			t.Error("curve not sorted by capacity")
		}
		if curve[i][1] >= curve[i-1][1] {
			t.Error("overhead should fall as capacity grows")
		}
	}
}

func TestTotalPowerChargesOnlyWhenCold(t *testing.T) {
	c := DefaultCooling()
	if got := c.TotalPower(1.0, 350); got != 1.0 {
		t.Errorf("350 K should not pay cooling, got %g", got)
	}
	if got := c.TotalPower(1.0, 77); math.Abs(got-10.65) > 1e-12 {
		t.Errorf("77 K total power = %g, want 10.65 (paper: 10.65x less needed to break even)", got)
	}
	if got := c.TotalPower(2.0, 77) - 2.0; math.Abs(got-2.0*9.65) > 1e-12 {
		t.Errorf("cooling power = %g, want %g", got, 2.0*9.65)
	}
	if got := c.TotalPower(2.0, 300) - 2.0; got != 0 {
		t.Errorf("warm cooling power = %g, want 0", got)
	}
}

// TestBreakEvenReduction pins the paper's break-even factor: 77 K
// operation must cut device power by the total power one cooled watt
// costs — "77K systems should consume 10.65 times less power than 300K
// systems" for the 100 kW class.
func TestBreakEvenReduction(t *testing.T) {
	if got := DefaultCooling().TotalPower(1, 77); math.Abs(got-10.65) > 1e-12 {
		t.Errorf("break-even = %g, want 10.65", got)
	}
	small := Cooling{Class: Cooler10W, ThresholdK: 200}
	if got := small.TotalPower(1, 77); math.Abs(got-40.6) > 1e-12 {
		t.Errorf("10W break-even = %g, want 40.6", got)
	}
}

func TestValidate(t *testing.T) {
	if err := DefaultCooling().Validate(); err != nil {
		t.Errorf("default cooling invalid: %v", err)
	}
	if err := (Cooling{Class: Cooler1kW, ThresholdK: 0}).Validate(); err == nil {
		t.Error("zero threshold should be rejected")
	}
	if err := (Cooling{Class: CoolerClass(9), ThresholdK: 200}).Validate(); err == nil {
		t.Error("unknown class should be rejected")
	}
}

func TestAppliesThreshold(t *testing.T) {
	c := DefaultCooling()
	for temp, want := range map[float64]bool{77: true, 200: true, 201: false, 300: false, 387: false} {
		if got := c.Applies(temp); got != want {
			t.Errorf("Applies(%g) = %v, want %v", temp, got, want)
		}
	}
}

func TestWithinCapacity(t *testing.T) {
	c := Cooling{Class: Cooler100W, ThresholdK: 200}
	if !withinCapacity(c, 99) || withinCapacity(c, 101) {
		t.Error("capacity check wrong for 100W cooler")
	}
}

func TestThermalBudget(t *testing.T) {
	// LN bath removes 2.41x what air cooling does (paper Section V-A).
	if r := LNBathCapacityW / AirCoolingCapacityW; math.Abs(r-2.415) > 0.02 {
		t.Errorf("LN/air capacity ratio = %.3f, want ~2.41", r)
	}
	if LNBathCapacityW < 150 {
		t.Error("150 W chip should fit the LN bath budget")
	}
	if LNBathCapacityW >= 200 {
		t.Error("200 W chip should exceed the LN bath budget")
	}
}

func TestEffectiveTemperaturesSpanPaperRange(t *testing.T) {
	ts := EffectiveTemperatures()
	if ts[0] != 77 || ts[len(ts)-1] != 387 {
		t.Errorf("temperature sweep should span 77-387 K, got %v", ts)
	}
	has350 := false
	for i := 1; i < len(ts); i++ {
		if ts[i] <= ts[i-1] {
			t.Error("temperatures not ascending")
		}
		if ts[i] == 350 {
			has350 = true
		}
	}
	if !has350 {
		t.Error("sweep must include the 350 K normalization anchor")
	}
}

func TestTotalPowerLinearityProperty(t *testing.T) {
	f := func(p uint16, cls uint8) bool {
		c := Cooling{Class: Classes()[int(cls)%4], ThresholdK: 200}
		dev := float64(p) / 100
		tot := c.TotalPower(dev, 77)
		// Linear in device power and always >= device power.
		return tot >= dev && math.Abs(c.TotalPower(2*dev, 77)-2*tot) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClassStrings(t *testing.T) {
	want := map[CoolerClass]string{
		Cooler100kW: "100kW", Cooler1kW: "1kW", Cooler100W: "100W", Cooler10W: "10W",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d String = %q, want %q", int(c), c.String(), s)
		}
	}
}

// capacityWatts is each cooler class's nameplate heat-removal capacity:
// the axis the overhead amortizes along.
func capacityWatts(c CoolerClass) float64 {
	switch c {
	case Cooler100kW:
		return 100e3
	case Cooler1kW:
		return 1e3
	case Cooler100W:
		return 100
	default:
		return 10
	}
}

// overheadCurve returns (capacityWatts, overhead) pairs sorted by capacity.
func overheadCurve() [][2]float64 {
	cls := Classes()
	out := make([][2]float64, len(cls))
	for i, c := range cls {
		out[i] = [2]float64{capacityWatts(c), c.Overhead()}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// withinCapacity reports whether the device heat load fits the cooler.
func withinCapacity(c Cooling, devicePowerW float64) bool {
	return devicePowerW <= capacityWatts(c.Class)
}
