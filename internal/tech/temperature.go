package tech

import (
	"fmt"
	"math"

	"coldtall/internal/parallel"
)

// Copper lattice parameters for the Bloch–Grüneisen resistivity model.
const (
	// copperDebyeK is the Debye temperature of copper in kelvin.
	copperDebyeK = 343.0
	// copperBulkRho300 is the phonon-limited bulk resistivity of copper at
	// 300 K in ohm-metres (1.68e-8 total minus residual).
	copperBulkRho300 = 1.60e-8
	// wireResidualRho is the temperature-independent residual resistivity
	// of scaled on-chip interconnect (grain-boundary and surface
	// scattering). It is chosen so that rho(300 K)/rho(77 K) ~= 6, matching
	// the on-chip wire improvement reported by CryoMEM and used in the
	// paper ("Copper bulk resistivity is reduced by six times").
	wireResidualRho = 0.164e-8
	// wireSizeEffect scales bulk resistivity up to account for the
	// dimensions of 22 nm-class interconnect (Fuchs-Sondheimer /
	// Mayadas-Shatzkes effects folded into one multiplier).
	wireSizeEffect = 2.0
)

// blochGruneisen returns the phonon contribution to copper resistivity at
// temperature t (kelvin), in ohm-metres, normalized so that the value at
// 300 K equals copperBulkRho300.
//
// The value is a pure function of t, and every wire construction and
// device-corner evaluation asks for it again at the same few temperatures,
// so it is memoized on the exact bits of t: a repeat is a table lookup
// returning the same float64 the integral produced on first use.
func blochGruneisen(t float64) float64 {
	if t <= 0 {
		return 0
	}
	key := math.Float64bits(t)
	if v, ok := bgMemo.Get(key); ok {
		return v
	}
	v := blochGruneisenDirect(t)
	bgMemo.Put(key, v)
	return v
}

// blochGruneisenDirect evaluates the integral without the memo.
func blochGruneisenDirect(t float64) float64 {
	return copperBulkRho300 * bgIntegralRatio(t) / bgRatio300
}

// bgMemoSize bounds each generation of the resistivity memo. A study
// touches a few dozen temperatures; the serve API accepts any float in
// [4, 400] K, so the bound is what keeps request-supplied temperatures from
// growing the table.
const bgMemoSize = 1024

var bgMemo = parallel.NewMemo[uint64, float64](bgMemoSize)

// bgIntegralRatio computes (T/ThetaD)^5 * integral_0^{ThetaD/T} x^5 /
// ((e^x - 1)(1 - e^-x)) dx, the dimensionless Bloch–Grüneisen shape.
func bgIntegralRatio(t float64) float64 {
	upper := copperDebyeK / t
	n := 2000
	// Simpson's rule. The integrand -> x^3 as x -> 0, so the origin is
	// benign; evaluate with the small-x limit to avoid 0/0.
	f := func(x float64) float64 {
		if x < 1e-9 {
			return x * x * x
		}
		return math.Pow(x, 5) / ((math.Exp(x) - 1) * (1 - math.Exp(-x)))
	}
	h := upper / float64(n)
	sum := f(0) + f(upper)
	for i := 1; i < n; i++ {
		x := float64(i) * h
		if i%2 == 1 {
			sum += 4 * f(x)
		} else {
			sum += 2 * f(x)
		}
	}
	integral := sum * h / 3
	return math.Pow(t/copperDebyeK, 5) * integral
}

// bgRatio300 caches the Bloch–Grüneisen shape at the 300 K calibration point.
var bgRatio300 = bgIntegralRatio(TempRoom)

// WireResistivity returns the resistivity of on-chip copper interconnect at
// temperature t (kelvin), in ohm-metres, including size effects and the
// residual term that limits the cryogenic improvement to ~6x at 77 K.
func WireResistivity(t float64) float64 {
	return wireSizeEffect * (wireResidualRho + blochGruneisen(t))
}

// WireResistivityRatio returns rho(t)/rho(ref): the factor by which wire
// resistance changes when moving from temperature ref to t.
func WireResistivityRatio(t, ref float64) float64 {
	return WireResistivity(t) / WireResistivity(ref)
}

// Threshold-voltage temperature behaviour. Vth rises as the device cools;
// dVthdT is kept moderate (0.4 mV/K) to reflect the cryogenic-tuned HP
// devices (Vdd 0.8 V / Vth 0.5 V at 300 K per PTM/ITRS) assumed by the
// paper, which preserve overdrive at 77 K.
const (
	dVthdT = 0.0001 // V per kelvin of cooling
	// subthresholdSwingIdeality is the MOSFET ideality factor n in
	// Isub ~ exp(-Vth / (n kT/q)).
	subthresholdSwingIdeality = 1.3
	// leakageFloorFraction is the fraction of 350 K subthreshold leakage
	// contributed by temperature-insensitive mechanisms (gate and
	// band-to-band tunneling). It sets the ~1e6x floor on total leakage
	// reduction observed at 77 K.
	leakageFloorFraction = 1.0e-6
	// mobilityExponent governs phonon-limited mobility improvement,
	// mu(T) ~ (300/T)^mobilityExponent, moderated below the bulk value of
	// 1.5 to reflect velocity saturation in short-channel devices.
	mobilityExponent = 0.7
	// alphaPower is the exponent of the alpha-power law drain current
	// model, Ion ~ mu * (Vdd - Vth)^alpha.
	alphaPower = 1.3
	// mobilityPlateauK is the regime boundary between the paper's 77 K
	// calibration and the deep-cryogenic extension. Above it, carrier
	// mobility is phonon-limited and keeps improving as the lattice cools.
	// Below ~77 K phonon scattering is largely frozen out and transport
	// becomes limited by temperature-insensitive mechanisms — ionized
	// impurity and surface-roughness scattering in the heavily-doped
	// short-channel devices modeled here — while dopant freeze-out claws
	// back some of the carrier density. Net: the measured on-current of
	// FETs is roughly flat from 77 K down to 4 K (cryo-CMOS
	// characterization literature, e.g. the high-frequency core studies
	// this extension is calibrated against), so the model clamps the
	// mobility term at its 77 K value. Vth continues its linear shift and
	// subthreshold leakage continues to collapse onto the tunneling floor;
	// both behave smoothly through the boundary.
	mobilityPlateauK = 77.0
)

// ThresholdVoltage returns the device threshold voltage at temperature t for
// a device with threshold vth300 at 300 K. The linear band-gap-driven shift
// saturates at the 77 K regime boundary along with the mobility gain (see
// mobilityPlateauK): below it the shift mechanisms are largely exhausted,
// so the 4 K device corner matches the 77 K one except for leakage, which
// keeps collapsing onto its tunneling floor.
func ThresholdVoltage(vth300, t float64) float64 {
	eff := math.Max(t, mobilityPlateauK)
	return vth300 + dVthdT*(TempRoom-eff)
}

// SubthresholdLeakageScale returns the ratio of subthreshold-plus-floor
// leakage current at temperature t to that at reference temperature ref, for
// a device with threshold vth300 (at 300 K). The model is
//
//	Isub(T) = I0 (T/300)^2 exp(-Vth(T) / (n kT/q)) + Ifloor
//
// with Ifloor pinned to leakageFloorFraction of the 350 K value, which
// produces the ~1e6x total leakage reduction at 77 K reported in the paper.
func SubthresholdLeakageScale(vth300, t, ref float64) float64 {
	floor := leakageFloorFraction * rawSubthreshold(vth300, TempHot350)
	num := rawSubthreshold(vth300, t) + floor
	den := rawSubthreshold(vth300, ref) + floor
	return num / den
}

// rawSubthreshold evaluates the unnormalized subthreshold current magnitude
// at temperature t.
func rawSubthreshold(vth300, t float64) float64 {
	vth := ThresholdVoltage(vth300, t)
	vT := ThermalVoltage(t)
	return (t / TempRoom) * (t / TempRoom) *
		math.Exp(-vth/(subthresholdSwingIdeality*vT))
}

// OnCurrentScale returns Ion(t)/Ion(ref) for a device operating at supply
// vdd with 300 K threshold vth300, combining mobility improvement with the
// loss of gate overdrive from the rising threshold (alpha-power law).
func OnCurrentScale(vdd, vth300, t, ref float64) float64 {
	on := func(temp float64) float64 {
		vth := ThresholdVoltage(vth300, temp)
		od := vdd - vth
		if od <= 0.01 {
			od = 0.01 // overdrive guard: almost no drive left
		}
		// Below the plateau boundary the mobility gain saturates (see
		// mobilityPlateauK): the temperature in the phonon term is clamped
		// while the threshold shift above keeps tracking the true
		// temperature.
		phononT := math.Max(temp, mobilityPlateauK)
		mu := math.Pow(TempRoom/phononT, mobilityExponent)
		return mu * math.Pow(od, alphaPower)
	}
	return on(t) / on(ref)
}

// GateDelayScale returns the intrinsic CMOS gate-delay multiplier at
// temperature t relative to ref: delay ~ C Vdd / Ion, with C and Vdd held
// constant, so the scale is simply the inverse on-current ratio.
func GateDelayScale(vdd, vth300, t, ref float64) float64 {
	return 1.0 / OnCurrentScale(vdd, vth300, t, ref)
}

// ValidateTemperature reports an error when t is outside the range the
// models are calibrated for: 4 K (the deep-cryogenic helium point) up to
// 400 K (above the studied TDP point). The window splits into two regimes
// at mobilityPlateauK = 77 K: above it every model follows the paper's
// phonon-limited calibration; below it carrier freeze-out is handled by
// clamping the mobility gain at its 77 K value while wire resistivity
// (Bloch–Grüneisen + residual), the Vth shift and the subthreshold/floor
// leakage mix continue smoothly — see the mobilityPlateauK comment.
func ValidateTemperature(t float64) error {
	if t < 4 || t > 400 {
		return fmt.Errorf("tech: temperature %.1f K outside supported range [4, 400]", t)
	}
	return nil
}
