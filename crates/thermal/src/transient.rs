//! Transient thermal integration (backward Euler).
//!
//! The paper's analysis is deliberately worst-case steady state (§3.2),
//! but §5 points at dynamic thermal management (DTM) as the natural
//! companion, and DTM evaluation needs transient temperature
//! distributions. This module provides them: implicit (unconditionally
//! stable) time stepping of `C·dT/dt = q − G·T`.
//!
//! Each backward-Euler step solves `(C/Δt + G)·T' = C/Δt·T + q`, an SPD
//! system handled by the same CG solver as the steady state.

use crate::grid::{PowerAssignment, ThermalModel};
use crate::sparse::{solve_cg, CgOptions, CsrMatrix, TripletMatrix};
use crate::{Result, ThermalError};

/// A transient integrator bound to one model and one step size.
///
/// Construction never fails: a non-positive or non-finite step, or an
/// initial field of the wrong length, is recorded and every
/// [`step`](TransientSolver::step) then returns
/// [`ThermalError::BadParameter`].
pub struct TransientSolver<'m> {
    model: &'m ThermalModel,
    /// `C/Δt + G`, or why the parameters were rejected.
    system: Result<CsrMatrix>,
    /// `C/Δt` per node.
    c_over_dt: Vec<f64>,
    dt: f64,
    temps: Vec<f64>,
    time: f64,
    cg: CgOptions,
}

impl<'m> TransientSolver<'m> {
    /// Create an integrator with step `dt_secs` seconds, starting from
    /// a uniform ambient-temperature field.
    pub fn new(model: &'m ThermalModel, dt_secs: f64) -> Self {
        Self::with_initial(model, dt_secs, vec![model.mean_ambient(); model.n_nodes()])
    }

    /// Create an integrator starting from an explicit temperature field
    /// (e.g. a previous steady state).
    pub fn with_initial(model: &'m ThermalModel, dt_secs: f64, initial: Vec<f64>) -> Self {
        let dt = dt_secs;
        let n = model.n_nodes();
        let problem = if !dt.is_finite() || dt <= 0.0 {
            Some(format!("time step must be positive and finite, got {dt}"))
        } else if initial.len() != n {
            Some(format!(
                "initial field has {} nodes, model has {n}",
                initial.len()
            ))
        } else {
            None
        };
        let c_over_dt: Vec<f64> = model.capacities().iter().map(|&c| c / dt).collect();
        let system = match problem {
            Some(msg) => Err(ThermalError::BadParameter(msg)),
            None => {
                // system = G + diag(C/dt): G's rows re-added on top of the
                // capacity diagonal.
                let g = model.matrix();
                let mut trip = TripletMatrix::new(n);
                for (i, &c) in c_over_dt.iter().enumerate() {
                    trip.add(i, i, c);
                }
                for i in 0..n {
                    for (j, v) in g.row(i) {
                        trip.add(i, j, v);
                    }
                }
                Ok(trip.to_csr())
            }
        };
        TransientSolver {
            model,
            system,
            c_over_dt,
            dt,
            temps: initial,
            time: 0.0,
            cg: CgOptions::default(),
        }
    }

    /// The simulated time, seconds.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// The step size, seconds.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Current temperature field.
    pub fn temps(&self) -> &[f64] {
        &self.temps
    }

    /// Hottest node right now.
    pub fn max_temp(&self) -> f64 {
        self.temps.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Advance one step under the given power assignment.
    pub fn step(&mut self, power: &PowerAssignment) -> Result<()> {
        let system = self.system.as_ref().map_err(Clone::clone)?;
        let mut rhs = self.model.rhs(power)?;
        for ((r, &c), &t) in rhs.iter_mut().zip(&self.c_over_dt).zip(&self.temps) {
            *r += c * t;
        }
        let (t, _) = solve_cg(system, &rhs, &self.temps, self.cg)?;
        self.temps = t;
        self.time += self.dt;
        Ok(())
    }

    /// Advance `n` steps under constant power; returns the max-temp
    /// trajectory (one sample per step).
    pub fn run(&mut self, power: &PowerAssignment, n: usize) -> Result<Vec<f64>> {
        let mut traj = Vec::with_capacity(n);
        for _ in 0..n {
            self.step(power)?;
            traj.push(self.max_temp());
        }
        Ok(traj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::{Floorplan, Rect};
    use crate::grid::{Convection, LayerSpec, ModelBuilder, Surface};
    use crate::materials::SILICON;
    use immersion_units::{Celsius, HeatTransferCoeff};

    fn slab() -> ThermalModel {
        let mut fp = Floorplan::new(0.01, 0.01);
        fp.add_block("ALL", Rect::new(0.0, 0.0, 0.01, 0.01))
            .unwrap();
        let mut mb = ModelBuilder::new();
        let l = mb.add_layer(LayerSpec::new(
            "die",
            SILICON,
            0.5e-3,
            Rect::new(0.0, 0.0, 0.01, 0.01),
            6,
            6,
        ));
        mb.add_convection(Convection::simple(
            l,
            Surface::Top,
            HeatTransferCoeff::new(300.0),
            Celsius::new(25.0),
        ));
        mb.add_power_floorplan(l, fp);
        mb.build().unwrap()
    }

    #[test]
    fn warms_monotonically_towards_steady_state() {
        let m = slab();
        let mut p = m.zero_power();
        p.set(0, "ALL", 10.0).unwrap();
        let steady = m.solve_steady(&p).unwrap().max_temp();

        // Slab time constant ~3 s; run ~30 constants to settle.
        let mut ts = TransientSolver::new(&m, 0.5);
        let traj = ts.run(&p, 200).unwrap();
        for w in traj.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "heating must be monotone");
        }
        // Never overshoots and converges to the steady state.
        assert!(traj.iter().all(|&t| t <= steady + 1e-6));
        let last = *traj.last().unwrap();
        assert!(
            (steady - last).abs() < 0.05,
            "final {last} vs steady {steady}"
        );
    }

    #[test]
    fn cools_back_to_ambient_when_power_removed() {
        let m = slab();
        let mut p = m.zero_power();
        p.set(0, "ALL", 10.0).unwrap();
        let hot = m.solve_steady(&p).unwrap().into_temps();
        let zero = m.zero_power();
        let mut ts = TransientSolver::with_initial(&m, 0.5, hot);
        let traj = ts.run(&zero, 200).unwrap();
        assert!(*traj.last().unwrap() < 25.5, "should cool to ~25: {traj:?}");
    }

    #[test]
    fn time_advances() {
        let m = slab();
        let p = m.zero_power();
        let mut ts = TransientSolver::new(&m, 0.01);
        ts.step(&p).unwrap();
        ts.step(&p).unwrap();
        assert!((ts.time() - 0.02).abs() < 1e-12);
        assert_eq!(ts.dt(), 0.01);
    }

    #[test]
    fn bad_time_steps_are_errors_not_panics() {
        let m = slab();
        let p = m.zero_power();
        for dt in [0.0, -1.0, f64::NAN] {
            let mut ts = TransientSolver::new(&m, dt);
            assert!(
                matches!(ts.step(&p), Err(ThermalError::BadParameter(_))),
                "dt = {dt} must be rejected"
            );
            assert!(matches!(ts.run(&p, 3), Err(ThermalError::BadParameter(_))));
            assert_eq!(ts.time(), 0.0, "a rejected step does not advance time");
        }
    }

    #[test]
    fn short_initial_field_is_an_error_not_a_panic() {
        let m = slab();
        let p = m.zero_power();
        let short = vec![25.0; m.n_nodes() - 1];
        let mut ts = TransientSolver::with_initial(&m, 0.5, short);
        let err = ts.step(&p).unwrap_err();
        assert!(
            matches!(&err, ThermalError::BadParameter(msg) if msg.contains("initial field")),
            "{err}"
        );
        assert!(ts.run(&p, 2).is_err());
    }

    #[test]
    fn large_step_equals_steady_state() {
        // With an enormous dt, one backward-Euler step lands on steady state.
        let m = slab();
        let mut p = m.zero_power();
        p.set(0, "ALL", 10.0).unwrap();
        let steady = m.solve_steady(&p).unwrap().max_temp();
        let mut ts = TransientSolver::new(&m, 1e9);
        ts.step(&p).unwrap();
        assert!((ts.max_temp() - steady).abs() < 1e-3);
    }
}
