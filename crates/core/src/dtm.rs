//! Dynamic thermal management (extension).
//!
//! The paper's analysis is worst-case steady state; §5.2 points out
//! that the natural companion is DTM — throttling DVFS at runtime when
//! a thermal sensor approaches the limit — and that evaluating DTM
//! requires transient temperature distributions. This module provides
//! exactly that on top of [`immersion_thermal::transient`]:
//!
//! * a [`PowerPhases`] workload model (alternating compute-intensity
//!   phases, the transient behaviour the steady-state analysis
//!   deliberately ignores);
//! * a [`DtmController`]: a thermostat with hysteresis stepping the VFS
//!   table down when the hottest sensor crosses the trip point and back
//!   up when it cools;
//! * [`simulate`]: closed-loop co-simulation of controller + thermal RC
//!   network, reporting achieved average frequency and throttling
//!   residency.
//!
//! The headline result (see `tests` and the `dtm` experiment): the same
//! chip under the same DTM policy sustains a much higher average
//! frequency under water immersion than under air, because the cooler
//! operating point simply never trips the thermostat.

use crate::design::CmpDesign;
use crate::explorer::power_at;
use immersion_thermal::transient::TransientSolver;
use immersion_thermal::{Result, ThermalError};
use serde::{Deserialize, Serialize};

/// A periodic two-phase activity pattern: `busy_fraction` of each
/// period at full activity, the rest at `idle_activity` (clock-gated
/// cores still leak).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PowerPhases {
    /// Period of the pattern, seconds.
    pub period_s: f64,
    /// Fraction of the period spent at full activity.
    pub busy_fraction: f64,
    /// Power multiplier during the idle phase (leakage + background).
    pub idle_activity: f64,
}

impl PowerPhases {
    /// A steady full-power workload (the paper's worst case).
    pub fn worst_case() -> Self {
        PowerPhases {
            period_s: 1.0,
            busy_fraction: 1.0,
            idle_activity: 1.0,
        }
    }

    /// A bursty compute pattern: 60 % busy in 2-second periods, 35 %
    /// residual power when idle.
    pub fn bursty() -> Self {
        PowerPhases {
            period_s: 2.0,
            busy_fraction: 0.6,
            idle_activity: 0.35,
        }
    }

    /// Activity multiplier at absolute time `t`.
    pub fn activity_at(&self, t: f64) -> f64 {
        let phase = (t / self.period_s).fract();
        if phase < self.busy_fraction {
            1.0
        } else {
            self.idle_activity
        }
    }
}

/// A thermostat-with-hysteresis DVFS controller.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DtmController {
    /// Throttle (step down) when the sensor exceeds this, °C.
    pub trip_celsius: f64,
    /// Un-throttle (step up) when the sensor falls below this, °C.
    pub release_celsius: f64,
}

impl DtmController {
    /// A controller tripping at `threshold` with `hysteresis` kelvin of
    /// slack before stepping back up.
    pub fn new(threshold: f64, hysteresis: f64) -> Self {
        assert!(hysteresis > 0.0);
        DtmController {
            trip_celsius: threshold,
            release_celsius: threshold - hysteresis,
        }
    }

    /// Decide the next VFS index given the current one and the sensor.
    pub fn next_index(&self, current: usize, max_index: usize, sensor: f64) -> usize {
        if sensor > self.trip_celsius {
            current.saturating_sub(1)
        } else if sensor < self.release_celsius && current < max_index {
            current + 1
        } else {
            current
        }
    }
}

/// Outcome of a closed-loop DTM run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DtmOutcome {
    /// Time-average of the running frequency, GHz.
    pub avg_freq_ghz: f64,
    /// Fraction of time spent below the top VFS step.
    pub throttled_fraction: f64,
    /// Peak sensor temperature seen, °C.
    pub peak_temp: f64,
    /// Number of controller step-downs.
    pub step_downs: usize,
    /// The frequency trajectory, one sample per control interval.
    pub freq_trace: Vec<f64>,
}

/// Co-simulate `design` under `phases` with `controller` for
/// `duration_s` seconds, `control_interval_s` between sensor reads.
///
/// The core starts at the top VFS step (DTM's optimism: run fast, react
/// when hot) with the stack at coolant temperature.
///
/// # Errors
/// [`ThermalError::BadParameter`] unless `control_interval_s` is positive
/// and finite and `duration_s` is finite and at least one interval;
/// otherwise the thermal model's and solver's errors.
pub fn simulate(
    design: &CmpDesign,
    phases: PowerPhases,
    controller: DtmController,
    duration_s: f64,
    control_interval_s: f64,
) -> Result<DtmOutcome> {
    // Written so that NaN fails every comparison and is rejected.
    if !(control_interval_s > 0.0
        && control_interval_s.is_finite()
        && duration_s >= control_interval_s
        && duration_s.is_finite())
    {
        return Err(ThermalError::BadParameter(format!(
            "DTM needs a positive, finite control interval and a finite duration of at least \
             one interval; got interval {control_interval_s} s, duration {duration_s} s"
        )));
    }
    let model = design.thermal_model()?;
    let steps = design.chip.vfs.steps();
    let max_index = steps.len() - 1;
    let mut index = max_index;

    // Pre-compute the power assignment of each step once.
    let step_powers: Vec<_> = steps
        .iter()
        .map(|&s| power_at(design, &model, s, None))
        .collect::<Result<Vec<_>>>()?;

    let mut solver = TransientSolver::new(&model, control_interval_s);
    let n_intervals = (duration_s / control_interval_s).round() as usize;
    let mut freq_trace = Vec::with_capacity(n_intervals);
    let mut peak: f64 = 0.0;
    let mut throttled = 0usize;
    let mut step_downs = 0usize;

    for k in 0..n_intervals {
        let t = k as f64 * control_interval_s;
        let activity = phases.activity_at(t);
        // Scale the step's power by the activity phase (dynamic power
        // follows activity; we conservatively scale the whole map).
        let mut p = step_powers[index].clone();
        if activity < 1.0 {
            let scale = activity;
            let base = step_powers[index].clone();
            p.fill_with(|die, block| base.get(die, block).unwrap_or(0.0) * scale);
        }
        solver.step(&p)?;
        let sensor = solver.max_temp();
        peak = peak.max(sensor);
        freq_trace.push(steps[index].freq_ghz);
        if index < max_index {
            throttled += 1;
        }
        let next = controller.next_index(index, max_index, sensor);
        if next < index {
            step_downs += 1;
        }
        index = next;
    }

    let avg = freq_trace.iter().sum::<f64>() / freq_trace.len() as f64;
    Ok(DtmOutcome {
        avg_freq_ghz: avg,
        throttled_fraction: throttled as f64 / n_intervals as f64,
        peak_temp: peak,
        step_downs,
        freq_trace,
    })
}

/// Compare the DTM-achieved average frequency across cooling options —
/// DTM's verdict agrees with the steady-state explorer's: water wins.
pub fn compare_coolings(
    base: &CmpDesign,
    coolings: &[immersion_thermal::stack3d::CoolingParams],
    phases: PowerPhases,
    controller: DtmController,
    duration_s: f64,
) -> Vec<(String, Result<DtmOutcome>)> {
    coolings
        .iter()
        .map(|&c| {
            let mut d = base.clone();
            d.cooling = c;
            (
                c.name.to_string(),
                simulate(&d, phases, controller, duration_s, 0.5),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use immersion_power::chips::high_frequency_cmp;
    use immersion_thermal::stack3d::CoolingParams;

    fn design(c: CoolingParams) -> CmpDesign {
        CmpDesign::new(high_frequency_cmp(), 4, c).with_grid(8, 8)
    }

    #[test]
    fn controller_hysteresis() {
        let c = DtmController::new(80.0, 3.0);
        assert_eq!(c.next_index(5, 12, 85.0), 4, "trip steps down");
        assert_eq!(c.next_index(0, 12, 85.0), 0, "cannot go below floor");
        assert_eq!(c.next_index(5, 12, 78.5), 5, "inside band: hold");
        assert_eq!(c.next_index(5, 12, 76.0), 6, "cool: step up");
        assert_eq!(c.next_index(12, 12, 20.0), 12, "cannot exceed ceiling");
    }

    #[test]
    fn phases_pattern() {
        let p = PowerPhases::bursty();
        assert_eq!(p.activity_at(0.0), 1.0);
        assert_eq!(p.activity_at(1.1), 1.0); // 55% of the 2s period
        assert_eq!(p.activity_at(1.5), 0.35); // 75%: idle phase
        assert_eq!(p.activity_at(2.0), 1.0); // periodic
    }

    #[test]
    fn bad_interval_or_duration_is_an_error_not_a_panic() {
        let d = design(CoolingParams::air());
        let run = |duration_s: f64, interval_s: f64| {
            let ctl = DtmController::new(80.0, 4.0);
            simulate(&d, PowerPhases::worst_case(), ctl, duration_s, interval_s)
        };
        for (duration_s, interval_s) in [
            (10.0, 0.0),
            (10.0, -1.0),
            (10.0, f64::NAN),
            (f64::NAN, 0.5),
            (0.2, 0.5),
            (f64::INFINITY, 0.5),
        ] {
            assert!(
                matches!(
                    run(duration_s, interval_s),
                    Err(ThermalError::BadParameter(_))
                ),
                "duration {duration_s}, interval {interval_s}"
            );
        }
    }

    #[test]
    fn dtm_keeps_temperature_bounded() {
        // Under air at full power the uncontrolled stack would blow far
        // past 80 C (Figure 15: 143 C at 3.6 GHz); DTM must hold it
        // within the trip point plus one interval's overshoot.
        let d = design(CoolingParams::air());
        let out = simulate(
            &d,
            PowerPhases::worst_case(),
            DtmController::new(80.0, 4.0),
            120.0,
            0.5,
        )
        .unwrap();
        assert!(
            out.peak_temp < 88.0,
            "overshoot too large: {}",
            out.peak_temp
        );
        assert!(out.step_downs > 0, "air at 3.6 GHz must throttle");
        assert!(out.throttled_fraction > 0.2);
        // And it still runs well above the floor.
        assert!(out.avg_freq_ghz > 1.2);
    }

    #[test]
    fn water_throttles_less_than_air() {
        // The air heatsink's thermal time constant is minutes; run long
        // enough for both options to reach their settled regimes.
        let phases = PowerPhases::worst_case();
        let ctrl = DtmController::new(80.0, 4.0);
        let air = simulate(&design(CoolingParams::air()), phases, ctrl, 700.0, 2.0).unwrap();
        let water = simulate(
            &design(CoolingParams::water_immersion()),
            phases,
            ctrl,
            700.0,
            2.0,
        )
        .unwrap();
        // Compare the settled second half.
        let tail_avg = |o: &DtmOutcome| {
            let h = o.freq_trace.len() / 2;
            o.freq_trace[h..].iter().sum::<f64>() / (o.freq_trace.len() - h) as f64
        };
        let (a, w) = (tail_avg(&air), tail_avg(&water));
        assert!(w > a + 0.2, "water {w} GHz vs air {a} GHz (settled)");
        // Both settle below the 3.6 GHz ceiling (it exceeds even
        // water's steady-state limit for this stack), but water's
        // settled point is several steps higher.
        assert!(water.peak_temp < air.peak_temp + 1e-9 || w > a);
    }

    #[test]
    fn bursty_workload_throttles_less_than_worst_case() {
        let ctrl = DtmController::new(80.0, 4.0);
        let d = design(CoolingParams::air());
        let worst = simulate(&d, PowerPhases::worst_case(), ctrl, 90.0, 0.5).unwrap();
        let bursty = simulate(&d, PowerPhases::bursty(), ctrl, 90.0, 0.5).unwrap();
        assert!(
            bursty.avg_freq_ghz >= worst.avg_freq_ghz,
            "idle phases must help: bursty {} vs worst {}",
            bursty.avg_freq_ghz,
            worst.avg_freq_ghz
        );
    }

    #[test]
    fn dtm_agrees_with_steady_state_explorer() {
        // The long-run DTM frequency under sustained load should settle
        // near the steady-state explorer's answer (within one step).
        use crate::explorer::max_frequency;
        let d = design(CoolingParams::mineral_oil());
        let steady = max_frequency(&d).unwrap().freq_ghz;
        let out = simulate(
            &d,
            PowerPhases::worst_case(),
            DtmController::new(80.0, 3.0),
            240.0,
            1.0,
        )
        .unwrap();
        // Average over the second half (settled regime).
        let half = out.freq_trace.len() / 2;
        let settled: f64 =
            out.freq_trace[half..].iter().sum::<f64>() / (out.freq_trace.len() - half) as f64;
        assert!(
            (settled - steady).abs() <= 0.3,
            "DTM settles at {settled} GHz, steady-state says {steady} GHz"
        );
    }
}
