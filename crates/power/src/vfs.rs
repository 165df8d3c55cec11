//! Voltage-and-frequency scaling.
//!
//! The paper approximates each voltage/frequency pair with the
//! short-channel MOSFET alpha-power law (§3.1):
//!
//! ```text
//! Tdelay ∝ C·V / (V − Vth)^α        (α = 1.3)
//! ```
//!
//! so the achievable frequency at supply voltage `V` is
//! `f(V) ∝ (V − Vth)^α / V`. Given a chip's maximum operating point
//! `(f_max, V_max)`, [`VfsCurve::voltage_for`] inverts this relation by
//! bisection to find the minimum stable voltage_v for any lower frequency
//! step. The bisection stops at its fixed point, the first halving that
//! moves neither bound: every later halving would repeat it, so the
//! answer has the same bits as a fixed 200 halvings, after 52–55 for
//! the paper's four chips.
//! The power model scales
//!
//! * dynamic_factor power as `P_dyn ∝ V²·f` (switched-capacitance energy), and
//! * static power as `P_stat ∝ V²` (supply times DIBL-amplified leakage
//!   current, both roughly linear in `V`),
//!
//! which reproduces the convex power/frequency curves of Figure 6.

use serde::{Deserialize, Serialize};

/// One voltage/frequency operating point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VfsStep {
    /// Clock frequency, GHz.
    pub freq_ghz: f64,
    /// Supply voltage, volts.
    pub voltage_v: f64,
}

/// The alpha-power-law frequency/voltage relation of one chip.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VfsCurve {
    /// Frequency at `v_max_v`, GHz.
    pub f_max_ghz: f64,
    /// Supply voltage at `f_max_ghz`, volts.
    pub v_max_v: f64,
    /// Threshold voltage, volts (from the McPAT technology file).
    pub v_th_v: f64,
    /// Velocity-saturation index (the paper sets α = 1.3).
    pub alpha: f64,
}

impl VfsCurve {
    /// A curve with the paper's α = 1.3.
    pub fn new(f_max_ghz: f64, v_max_v: f64, v_th_v: f64) -> Self {
        assert!(f_max_ghz > 0.0 && v_max_v > v_th_v && v_th_v > 0.0);
        VfsCurve {
            f_max_ghz,
            v_max_v,
            v_th_v,
            alpha: 1.3,
        }
    }

    /// Relative drive strength `(V − Vth)^α / V`, before normalisation.
    fn drive(&self, supply_v: f64) -> f64 {
        (supply_v - self.v_th_v).max(0.0).powf(self.alpha) / supply_v
    }

    /// The frequency (GHz) achievable at supply voltage `supply_v`.
    pub fn freq_at(&self, supply_v: f64) -> f64 {
        self.freq_normalised(supply_v, self.drive(self.v_max_v))
    }

    /// [`freq_at`](Self::freq_at) with the normaliser `drive(v_max_v)`
    /// already computed.
    fn freq_normalised(&self, supply_v: f64, drive_at_max: f64) -> f64 {
        self.f_max_ghz * self.drive(supply_v) / drive_at_max
    }

    /// The minimum supply voltage for frequency `f_ghz`, by bisection.
    ///
    /// Frequencies above `f_max_ghz` (overclocking headroom is not
    /// modelled), non-positive frequencies and non-finite ones return
    /// `None`.
    pub fn voltage_for(&self, f_ghz: f64) -> Option<f64> {
        if !f_ghz.is_finite() || f_ghz <= 0.0 || f_ghz > self.f_max_ghz * (1.0 + 1e-9) {
            return None;
        }
        let drive_at_max = self.drive(self.v_max_v);
        let (mut lo, mut hi) = (self.v_th_v + 1e-6, self.v_max_v);
        // freq_at is monotonically increasing in V on (v_th_v, v_max_v].
        // Once a halving moves neither bound, `mid` and the comparison
        // repeat forever, so stopping there gives the same bits.
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            let (next_lo, next_hi) = if self.freq_normalised(mid, drive_at_max) < f_ghz {
                (mid, hi)
            } else {
                (lo, mid)
            };
            if next_lo == lo && next_hi == hi {
                break;
            }
            (lo, hi) = (next_lo, next_hi);
        }
        Some(hi)
    }

    /// The `(freq, voltage)` step for frequency `f_ghz`.
    pub fn step_for(&self, f_ghz: f64) -> Option<VfsStep> {
        self.voltage_for(f_ghz).map(|voltage_v| VfsStep {
            freq_ghz: f_ghz,
            voltage_v,
        })
    }
}

/// A chip's discrete VFS table: the sorted list of supported steps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VfsTable {
    curve: VfsCurve,
    steps: Vec<VfsStep>,
}

impl VfsTable {
    /// Build a table of evenly spaced frequency steps
    /// `f_min, f_min+Δ, …, f_max` on the given curve (inclusive ends;
    /// the paper's low-power CMP is `linear(curve, 1.0, 2.0, 0.1)` → 11
    /// steps and the high-frequency CMP `linear(curve, 1.2, 3.6, 0.2)`
    /// → 13 steps).
    pub fn linear(curve: VfsCurve, f_min_ghz: f64, f_max_ghz: f64, delta_ghz: f64) -> Self {
        assert!(f_min_ghz > 0.0 && f_max_ghz >= f_min_ghz && delta_ghz > 0.0);
        let n = ((f_max_ghz - f_min_ghz) / delta_ghz).round() as usize + 1;
        let steps = (0..n)
            .map(|i| {
                let f = f_min_ghz + i as f64 * delta_ghz;
                // `f.min(f_max)` is always in (0, f_max], so `step_for`
                // returns `Some`; fall back to the top step regardless.
                curve.step_for(f.min(curve.f_max_ghz)).unwrap_or(VfsStep {
                    freq_ghz: curve.f_max_ghz,
                    voltage_v: curve.v_max_v,
                })
            })
            .collect();
        VfsTable { curve, steps }
    }

    /// The continuous curve behind the table.
    pub fn curve(&self) -> &VfsCurve {
        &self.curve
    }

    /// All steps, ascending in frequency.
    pub fn steps(&self) -> &[VfsStep] {
        &self.steps
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True if the table has no steps (never the case for the paper's
    /// chips).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The lowest step.
    pub fn min_step(&self) -> VfsStep {
        self.steps[0]
    }

    /// The highest step.
    pub fn max_step(&self) -> VfsStep {
        self.steps[self.steps.len() - 1]
    }

    /// The highest step with frequency ≤ `f_ghz`, if any.
    pub fn step_at_or_below(&self, f_ghz: f64) -> Option<VfsStep> {
        self.steps
            .iter()
            .rev()
            .find(|s| s.freq_ghz <= f_ghz + 1e-12)
            .copied()
    }

    /// The step at index `i` (ascending frequency).
    pub fn step(&self, i: usize) -> VfsStep {
        assert!(i < self.steps.len());
        self.steps[i]
    }
}

/// Relative power scaling between two operating points.
///
/// `dynamic_factor`: `V²·f` ratio; `static_factor`: `V²` ratio — both relative to the
/// reference step (normally the chip's maximum).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerScale {
    /// Dynamic-power multiplier relative to the reference.
    pub dynamic_factor: f64,
    /// Static-power multiplier relative to the reference.
    pub static_factor: f64,
}

/// Power scaling of `step` relative to `reference`.
pub fn power_scale(step: VfsStep, reference: VfsStep) -> PowerScale {
    let v = step.voltage_v / reference.voltage_v;
    let f = step.freq_ghz / reference.freq_ghz;
    PowerScale {
        dynamic_factor: v * v * f,
        static_factor: v * v,
    }
}

/// Leakage multiplier at junction temperature `t_celsius` relative to
/// the reference temperature: subthreshold leakage grows roughly
/// exponentially, ~2× per 30 K around typical operating points.
pub fn leakage_temperature_factor(t_celsius: f64, t_ref_celsius: f64) -> f64 {
    const DOUBLING_KELVIN: f64 = 30.0;
    2f64.powf((t_celsius - t_ref_celsius) / DOUBLING_KELVIN)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve() -> VfsCurve {
        VfsCurve::new(3.6, 1.1, 0.3)
    }

    #[test]
    fn voltage_for_max_freq_is_v_max() {
        let c = curve();
        let v = c.voltage_for(3.6).unwrap();
        assert!((v - 1.1).abs() < 1e-6, "v = {v}");
    }

    #[test]
    fn voltage_for_is_inverse_of_freq_at() {
        let c = curve();
        for f in [1.0, 1.8, 2.4, 3.0, 3.5] {
            let v = c.voltage_for(f).unwrap();
            assert!((c.freq_at(v) - f).abs() < 1e-6, "f = {f}");
        }
    }

    #[test]
    fn voltage_is_monotone_in_frequency() {
        let c = curve();
        let mut last = 0.0;
        for i in 1..=36 {
            let v = c.voltage_for(i as f64 * 0.1).unwrap();
            assert!(v > last);
            last = v;
        }
    }

    #[test]
    fn out_of_range_frequencies_rejected() {
        let c = curve();
        assert!(c.voltage_for(0.0).is_none());
        assert!(c.voltage_for(-1.0).is_none());
        assert!(c.voltage_for(4.0).is_none());
    }

    #[test]
    fn non_finite_frequencies_rejected() {
        let c = curve();
        assert!(c.voltage_for(f64::NAN).is_none());
        assert!(c.voltage_for(-f64::NAN).is_none());
        assert!(c.voltage_for(f64::INFINITY).is_none());
        assert!(c.voltage_for(f64::NEG_INFINITY).is_none());
        assert!(c.step_for(f64::NAN).is_none());
    }

    #[test]
    fn table_step_counts_match_paper() {
        // Low-power CMP: 11 steps from 1.0 to 2.0 GHz in 0.1 increments.
        let lp = VfsTable::linear(VfsCurve::new(2.0, 0.9, 0.3), 1.0, 2.0, 0.1);
        assert_eq!(lp.len(), 11);
        // High-frequency CMP: 13 steps from 1.2 to 3.6 GHz in 0.2 increments.
        let hf = VfsTable::linear(VfsCurve::new(3.6, 1.1, 0.3), 1.2, 3.6, 0.2);
        assert_eq!(hf.len(), 13);
        assert_eq!(hf.min_step().freq_ghz, 1.2);
        assert_eq!(hf.max_step().freq_ghz, 3.6);
    }

    #[test]
    fn step_at_or_below() {
        let t = VfsTable::linear(VfsCurve::new(2.0, 0.9, 0.3), 1.0, 2.0, 0.1);
        assert_eq!(t.step_at_or_below(1.55).unwrap().freq_ghz, 1.5);
        assert_eq!(t.step_at_or_below(2.5).unwrap().freq_ghz, 2.0);
        assert!(t.step_at_or_below(0.5).is_none());
        // Exact boundary.
        assert!((t.step_at_or_below(1.3).unwrap().freq_ghz - 1.3).abs() < 1e-9);
    }

    #[test]
    fn power_scale_at_reference_is_unity() {
        let c = curve();
        let top = c.step_for(3.6).unwrap();
        let s = power_scale(top, top);
        assert!((s.dynamic_factor - 1.0).abs() < 1e-12);
        assert!((s.static_factor - 1.0).abs() < 1e-12);
    }

    #[test]
    fn power_scale_is_superlinear_in_frequency() {
        // Halving frequency must save more than half the dynamic_factor power,
        // because voltage drops too (the Figure 6 convexity).
        let c = curve();
        let top = c.step_for(3.6).unwrap();
        let half = c.step_for(1.8).unwrap();
        let s = power_scale(half, top);
        assert!(s.dynamic_factor < 0.5, "dyn = {}", s.dynamic_factor);
        assert!(s.static_factor < 1.0 && s.static_factor > s.dynamic_factor);
    }

    #[test]
    fn leakage_doubles_per_30k() {
        assert!((leakage_temperature_factor(85.0, 55.0) - 2.0).abs() < 1e-12);
        assert!((leakage_temperature_factor(55.0, 55.0) - 1.0).abs() < 1e-12);
        assert!(leakage_temperature_factor(25.0, 55.0) < 1.0);
    }
}
