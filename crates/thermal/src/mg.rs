//! Inert placeholder for the removed multigrid preconditioner.
//!
//! Steady solves use Jacobi-preconditioned CG only. The end-to-end
//! benchmark's layer pass still times `MgHierarchy::build`; this stub
//! keeps that call compiling and makes the timed step cost nothing, so
//! `thermal.mg_setup_s` reads zero where no multigrid runs. The next
//! change to the benchmark harness deletes the call, and then this
//! module.

use crate::sparse::CsrMatrix;

/// No options: there is no hierarchy to tune.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MgOptions;

/// Never constructed: [`MgHierarchy::build`] always declines.
#[derive(Debug)]
pub struct MgHierarchy;

impl MgHierarchy {
    /// Always `None`: there is no hierarchy to build.
    pub fn build(
        _a: &CsrMatrix,
        _opts: MgOptions,
        _unused: Option<std::convert::Infallible>,
    ) -> Option<MgHierarchy> {
        None
    }
}
