package tech

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewWireKnownLayers(t *testing.T) {
	for _, l := range []WireLayer{WireLocal, WireIntermediate, WireGlobal} {
		w, err := NewWire(l, 300)
		if err != nil {
			t.Fatalf("NewWire(%v): %v", l, err)
		}
		if w.ResistancePerMeter() <= 0 || w.capPerMeter <= 0 {
			t.Errorf("layer %v has non-positive RC", l)
		}
	}
}

func TestNewWireUnknownLayer(t *testing.T) {
	if _, err := NewWire(WireLayer(99), 300); err == nil {
		t.Error("expected error for unknown layer")
	}
}

func TestNewWireBadTemperature(t *testing.T) {
	if _, err := NewWire(WireGlobal, 2); err == nil {
		t.Error("expected error for 2 K (below the 4 K model floor)")
	}
}

func TestWiderLayersHaveLowerResistance(t *testing.T) {
	local, _ := NewWire(WireLocal, 300)
	mid, _ := NewWire(WireIntermediate, 300)
	global, _ := NewWire(WireGlobal, 300)
	if !(local.ResistancePerMeter() > mid.ResistancePerMeter() &&
		mid.ResistancePerMeter() > global.ResistancePerMeter()) {
		t.Error("resistance should fall from local to global layers")
	}
}

func TestWireColdIsFaster(t *testing.T) {
	n := Node22HP()
	cold, _ := NewWire(WireGlobal, 77)
	hot, _ := NewWire(WireGlobal, 350)
	l := 5e-3 // 5 mm H-tree arm
	dCold := cold.RepeatedDelay(l, n.MustAt(77))
	dHot := hot.RepeatedDelay(l, n.MustAt(350))
	if dCold >= dHot {
		t.Fatalf("repeated wire at 77 K (%.3e) should beat 350 K (%.3e)", dCold, dHot)
	}
	// Repeated delay scales as sqrt(R), so ~6x lower rho gives ~2.4x-3x
	// lower delay once the faster repeaters are included.
	if r := dHot / dCold; r < 1.8 || r > 5 {
		t.Errorf("77 K repeated-wire speedup %.2fx, want 1.8-5x", r)
	}
}

func TestElmoreDelayIncreasesWithLength(t *testing.T) {
	w, _ := NewWire(WireLocal, 350)
	d1 := w.ElmoreDelay(100e-6, 1000, 10e-15)
	d2 := w.ElmoreDelay(200e-6, 1000, 10e-15)
	if d2 <= d1 {
		t.Error("Elmore delay must grow with length")
	}
}

func TestElmoreDelaySuperlinearInLength(t *testing.T) {
	// Unrepeated RC delay grows quadratically; doubling length with a
	// weak driver should much more than double delay.
	w, _ := NewWire(WireLocal, 350)
	d1 := w.ElmoreDelay(500e-6, 100, 1e-15)
	d2 := w.ElmoreDelay(1000e-6, 100, 1e-15)
	if d2 < 2.5*d1 {
		t.Errorf("expected superlinear growth, got %.3e -> %.3e", d1, d2)
	}
}

func TestRepeatedEnergyScalesWithLength(t *testing.T) {
	w, _ := NewWire(WireGlobal, 300)
	c := Node22HP().MustAt(300)
	e1 := w.RepeatedEnergy(1e-3, c)
	e2 := w.RepeatedEnergy(2e-3, c)
	if ratio := e2 / e1; ratio < 1.99 || ratio > 2.01 {
		t.Errorf("repeated energy should be linear in length, ratio %.3f", ratio)
	}
}

func TestSwitchEnergyQuadraticInVdd(t *testing.T) {
	w, _ := NewWire(WireGlobal, 300)
	e1 := w.SwitchEnergy(1e-3, 0.4)
	e2 := w.SwitchEnergy(1e-3, 0.8)
	if ratio := e2 / e1; ratio < 3.99 || ratio > 4.01 {
		t.Errorf("CV^2: doubling Vdd should 4x energy, got %.3f", ratio)
	}
}

func TestWireLayerString(t *testing.T) {
	cases := map[WireLayer]string{
		WireLocal:        "local",
		WireIntermediate: "intermediate",
		WireGlobal:       "global",
		WireLayer(7):     "WireLayer(7)",
	}
	for l, want := range cases {
		if got := l.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(l), got, want)
		}
	}
}

func TestWireDelayPropertyMonotonicTemperature(t *testing.T) {
	n := Node22HP()
	f := func(a, b uint8) bool {
		t1 := 77 + float64(a)*(310.0/255)
		t2 := 77 + float64(b)*(310.0/255)
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		w1, err1 := NewWire(WireGlobal, t1)
		w2, err2 := NewWire(WireGlobal, t2)
		if err1 != nil || err2 != nil {
			return false
		}
		return w1.RepeatedDelay(1e-3, n.MustAt(t1)) <= w2.RepeatedDelay(1e-3, n.MustAt(t2))+1e-18
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewWireScaled(t *testing.T) {
	ref, err := NewWireScaled(WireGlobal, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if base, _ := NewWire(WireGlobal, 300); base != ref {
		t.Error("scale 1 should equal the reference stack")
	}
	half, err := NewWireScaled(WireGlobal, 300, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-section shrinks quadratically: resistance per metre x4.
	if r := half.ResistancePerMeter() / ref.ResistancePerMeter(); r < 3.99 || r > 4.01 {
		t.Errorf("half-scale resistance ratio %.3f, want 4", r)
	}
	if half.capPerMeter != ref.capPerMeter {
		t.Error("capacitance per metre is scale-invariant")
	}
	if _, err := NewWireScaled(WireGlobal, 300, 0); err == nil {
		t.Error("zero scale should fail")
	}
}

// SwitchEnergy returns the CV^2 energy of one full-swing transition on an
// unrepeated wire of the given length at supply vdd.
func (w Wire) SwitchEnergy(length, vdd float64) float64 {
	return w.Capacitance(length) * vdd * vdd
}

// RepeatedEnergy returns the switching energy of driving the repeated wire
// once: the wire capacitance plus a repeater-capacitance overhead (about 40%
// of wire cap at the optimal sizing) charged to Vdd.
func (w Wire) RepeatedEnergy(length float64, corner DeviceCorner) float64 {
	c := w.Capacitance(length) * 1.4
	return c * corner.Vdd * corner.Vdd
}

// RepeatedDelay returns the delay of the wire when broken into optimally
// sized and spaced repeaters built from the supplied device corner. The
// classic result is delay/length = 2 sqrt(0.38 Rw/m * Cw/m * tau_buf) with
// tau_buf the intrinsic buffer time constant; we approximate tau_buf with
// the corner's FO4 delay divided by 5 (one inverter stage).
func (w Wire) RepeatedDelay(length float64, corner DeviceCorner) float64 {
	tauBuf := corner.FO4Delay / 5
	perMeter := 2 * math.Sqrt(0.38*w.resPerMeter*w.capPerMeter*tauBuf)
	return perMeter * length
}

// ElmoreDelay returns the distributed-RC (Elmore) delay of an unrepeated
// wire of the given length driven by a source with resistance rDrive into a
// load capacitance cLoad:
//
//	d = 0.69 (rDrive (Cw + cLoad)) + 0.38 Rw Cw + 0.69 Rw cLoad
func (w Wire) ElmoreDelay(length, rDrive, cLoad float64) float64 {
	rw := w.Resistance(length)
	cw := w.Capacitance(length)
	return 0.69*rDrive*(cw+cLoad) + 0.38*rw*cw + 0.69*rw*cLoad
}
