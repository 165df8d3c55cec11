//! # immersion-thermal
//!
//! A HotSpot-like 3-D finite-volume thermal solver, written from scratch
//! for the water-immersion reproduction.
//!
//! The original paper uses HotSpot v6.0 (plus the authors' 3-D extension)
//! to compute the steady-state temperature field of 1–15-chip 3-D stacked
//! CMPs under five cooling options. This crate reimplements the parts of
//! that pipeline the paper exercises:
//!
//! * **Floorplans** ([`floorplan`]): named rectangular blocks with per-block
//!   power, rasterised onto a regular grid; 180° rotation ("flip") for the
//!   thermal-aware layout study of §4.2.
//! * **Layer stacks** ([`grid`], [`materials`]): silicon dies, TIM/glue
//!   bonds (with a TSV/TCI metal fraction), heat spreader, finned heatsink,
//!   parylene film, package substrate and PCB — each layer with its own
//!   lateral extent and resolution, coupled through overlap conductances.
//! * **Boundary conditions**: convective (Robin) surfaces with a
//!   per-coolant heat-transfer coefficient `h` — air 14, mineral oil 160,
//!   fluorinert 180, water 800 W/(m²K) — and effective-area multipliers for
//!   finned sinks.
//! * **Solvers** ([`sparse`], [`steady`], [`transient`]): a
//!   Jacobi-preconditioned conjugate-gradient solve of the symmetric
//!   positive-definite conductance system for steady state (the paper's
//!   worst-case analysis), with CSR matvecs, and a backward-Euler
//!   integrator for transients.
//! * **Stack builder** ([`stack3d`]): assembles the whole N-chip 3-D CMP
//!   thermal model for a given cooling configuration, including the
//!   dual-path topology (primary path through the sink, secondary path
//!   through the board into the coolant) that full immersion enables.
//!
//! ## Quick example
//!
//! ```
//! use immersion_thermal::floorplan::{Floorplan, Rect};
//! use immersion_thermal::stack3d::{CoolingParams, StackBuilder};
//!
//! // A 10x10 mm die that is one single block...
//! let mut fp = Floorplan::new(0.01, 0.01);
//! fp.add_block("DIE", Rect::new(0.0, 0.0, 0.01, 0.01)).unwrap();
//!
//! // ...stacked two high, immersed in water.
//! let model = StackBuilder::new(fp)
//!     .chips(2)
//!     .grid(16, 16)
//!     .cooling(CoolingParams::water_immersion())
//!     .build()
//!     .unwrap();
//!
//! // 30 W per die, uniformly.
//! let mut power = model.zero_power();
//! power.set(0, "DIE", 30.0).unwrap();
//! power.set(1, "DIE", 30.0).unwrap();
//!
//! let sol = model.solve_steady(&power).unwrap();
//! assert!(sol.max_temp() > 25.0); // warmer than ambient
//! assert!(sol.max_temp() < 80.0); // water keeps 60 W easily in check
//! ```

pub use immersion_units as units;

pub mod floorplan;
pub mod grid;
pub mod hotspot_compat;
pub mod materials;
pub mod mg;
pub mod sparse;
pub mod stack3d;
pub mod steady;
pub mod transient;

pub use floorplan::{Floorplan, Rect};
pub use grid::{LayerSpec, ThermalModel};
pub use stack3d::{CoolingParams, StackBuilder};
pub use steady::Solution;

/// Errors produced by model construction and solving.
#[derive(Debug, Clone, PartialEq)]
pub enum ThermalError {
    /// A floorplan block falls outside the die outline or has zero area.
    BadBlock(String),
    /// The model references an unknown chip index or block name.
    UnknownBlock(String),
    /// Invalid construction parameter (dimension, resolution, ...).
    BadParameter(String),
    /// The linear solver failed to converge.
    SolverDiverged { iterations: usize, residual: f64 },
}

impl std::fmt::Display for ThermalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ThermalError::BadBlock(s) => write!(f, "bad floorplan block: {s}"),
            ThermalError::UnknownBlock(s) => write!(f, "unknown block: {s}"),
            ThermalError::BadParameter(s) => write!(f, "bad parameter: {s}"),
            ThermalError::SolverDiverged {
                iterations,
                residual,
            } => write!(
                f,
                "linear solver failed to converge after {iterations} iterations \
                 (residual {residual:.3e})"
            ),
        }
    }
}

impl std::error::Error for ThermalError {}

/// Convenient result alias.
pub type Result<T> = std::result::Result<T, ThermalError>;
