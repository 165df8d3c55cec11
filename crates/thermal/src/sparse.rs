//! Minimal sparse linear algebra: CSR matrices and a Jacobi-preconditioned
//! conjugate-gradient solver.
//!
//! The steady-state heat equation discretised by finite volumes yields a
//! symmetric positive-definite conductance matrix `G` (diagonal = sum of
//! incident conductances + convective conductance; off-diagonals =
//! −conductance between neighbouring cells). CG with a Jacobi
//! preconditioner is the textbook solver for such M-matrices and needs
//! only matrix-vector products, which we parallelise with rayon per the
//! hpc-parallel guides.

use crate::{Result, ThermalError};
use rayon::prelude::*;

/// A triplet-form builder for assembling a sparse matrix.
#[derive(Debug, Default, Clone)]
pub struct TripletMatrix {
    n: usize,
    entries: Vec<(u32, u32, f64)>,
}

impl TripletMatrix {
    /// An empty `n × n` builder.
    pub fn new(n: usize) -> Self {
        assert!(n < u32::MAX as usize, "matrix too large for u32 indices");
        TripletMatrix {
            n,
            entries: Vec::new(),
        }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Accumulate a value (a conductance contribution, W/K) into
    /// entry `(i, j)`. Duplicates are summed on conversion to CSR.
    #[inline]
    pub fn add(&mut self, i: usize, j: usize, value_w_per_k: f64) {
        debug_assert!(i < self.n && j < self.n, "index out of range");
        if value_w_per_k.abs() > 0.0 {
            self.entries.push((i as u32, j as u32, value_w_per_k));
        }
    }

    /// Add a symmetric conductance `g` between nodes `i` and `j`:
    /// `+g` on both diagonals, `−g` on both off-diagonals.
    #[inline]
    pub fn add_conductance(&mut self, i: usize, j: usize, g_w_per_k: f64) {
        debug_assert!(i != j, "self-conductance is meaningless");
        self.add(i, i, g_w_per_k);
        self.add(j, j, g_w_per_k);
        self.add(i, j, -g_w_per_k);
        self.add(j, i, -g_w_per_k);
    }

    /// Add a grounded conductance at node `i` (e.g. a convective tie to
    /// the ambient node, which is eliminated onto the right-hand side).
    #[inline]
    pub fn add_grounded(&mut self, i: usize, g_w_per_k: f64) {
        self.add(i, i, g_w_per_k);
    }

    /// Finish assembly: sort, merge duplicates, and build CSR.
    pub fn to_csr(mut self) -> CsrMatrix {
        self.entries
            .sort_unstable_by_key(|&(i, j, _)| ((i as u64) << 32) | j as u64);
        let mut merged: Vec<(u32, u32, f64)> = Vec::with_capacity(self.entries.len());
        for &(i, j, v) in &self.entries {
            match merged.last_mut() {
                Some(last) if last.0 == i && last.1 == j => last.2 += v,
                _ => merged.push((i, j, v)),
            }
        }
        let mut row_ptr = vec![0usize; self.n + 1];
        for &(i, _, _) in &merged {
            row_ptr[i as usize + 1] += 1;
        }
        for r in 0..self.n {
            row_ptr[r + 1] += row_ptr[r];
        }
        CsrMatrix {
            n: self.n,
            row_ptr,
            col_idx: merged.iter().map(|e| e.1).collect(),
            values: merged.iter().map(|e| e.2).collect(),
        }
    }
}

/// A compressed-sparse-row matrix.
#[derive(Debug, Clone)]
pub struct CsrMatrix {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Read entry `(i, j)` (zero if not stored).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i + 1 < self.row_ptr.len());
        let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
        match self.col_idx[lo..hi].binary_search(&(j as u32)) {
            Ok(k) => self.values[lo + k],
            Err(_) => 0.0,
        }
    }

    /// Iterate over the stored `(column, value)` pairs of row `i`.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        assert!(i + 1 < self.row_ptr.len());
        let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
        self.col_idx[lo..hi]
            .iter()
            .zip(&self.values[lo..hi])
            .map(|(&j, &v)| (j as usize, v))
    }

    /// The diagonal of the matrix.
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.n).map(|i| self.get(i, i)).collect()
    }

    /// `y = A·x`, partitioned by rows across the current thread pool
    /// (each output row is owned by exactly one chunk, so no writes
    /// conflict; the gather from `x` is read-only).
    pub fn mul_vec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        y.par_iter_mut().enumerate().for_each(|(i, yi)| {
            let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
            let mut acc = 0.0;
            for k in lo..hi {
                acc += self.values[k] * x[self.col_idx[k] as usize];
            }
            *yi = acc;
        });
    }

    /// Sequential reference for [`CsrMatrix::mul_vec`]; the equivalence
    /// tests pin the parallel path against it.
    pub fn mul_vec_seq(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        for (i, yi) in y.iter_mut().enumerate() {
            let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
            let mut acc = 0.0;
            for k in lo..hi {
                acc += self.values[k] * x[self.col_idx[k] as usize];
            }
            *yi = acc;
        }
    }

    /// Check structural symmetry with value agreement to `tol`
    /// (diagnostic; O(nnz·log) — use in tests, not hot paths).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        for i in 0..self.n {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                let j = self.col_idx[k] as usize;
                if (self.values[k] - self.get(j, i)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

/// Options for the CG solve.
#[derive(Debug, Clone, Copy)]
pub struct CgOptions {
    /// Relative residual tolerance ‖r‖/‖b‖.
    pub tolerance: f64,
    /// Iteration cap.
    pub max_iterations: usize,
}

impl Default for CgOptions {
    fn default() -> Self {
        CgOptions {
            tolerance: 1e-9,
            max_iterations: 20_000,
        }
    }
}

/// Reusable per-matrix solver state: the Jacobi inverse diagonal, the
/// four CG scratch vectors, and the last converged solution.
///
/// Jacobi is the only preconditioner and CSR [`CsrMatrix::mul_vec`] the
/// only matvec, so a context carries nothing else. It is keyed to one
/// matrix (checked cheaply by `(dim, nnz)`):
/// [`ThermalModel`](crate::grid::ThermalModel) caches one per model so
/// repeated solves reuse the scratch allocations and warm-start from
/// the previous operating point instead of the ambient guess. The only
/// per-solve allocations left are the solution vector itself (owned by
/// the caller) and the guess copy; nothing is allocated per iteration.
#[derive(Debug, Default, Clone)]
pub struct SolverContext {
    /// `(dim, nnz)` of the matrix this state was built for.
    key: (usize, usize),
    inv_diag: Vec<f64>,
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
    last_solution: Option<Vec<f64>>,
    solves: usize,
    total_iterations: usize,
}

impl SolverContext {
    /// A context ready to solve against `a` (inverse diagonal computed,
    /// scratch sized).
    pub fn new(a: &CsrMatrix) -> SolverContext {
        let mut ctx = SolverContext::default();
        ctx.prepare(a);
        ctx
    }

    /// (Re)build the per-matrix state when the context does not match
    /// `a`; a matching context keeps its scratch and warm state.
    fn prepare(&mut self, a: &CsrMatrix) {
        let key = (a.dim(), a.nnz());
        if self.key == key && !self.inv_diag.is_empty() {
            return;
        }
        let n = a.dim();
        self.key = key;
        self.inv_diag = a
            .diagonal()
            .iter()
            .map(|&d| if d.abs() < 1e-300 { 1.0 } else { 1.0 / d })
            .collect();
        self.r = vec![0.0; n];
        self.z = vec![0.0; n];
        self.p = vec![0.0; n];
        self.ap = vec![0.0; n];
        self.last_solution = None;
    }

    /// The last converged solution, if any — the warm-start guess for
    /// the next solve against the same matrix.
    pub fn warm_guess(&self) -> Option<&[f64]> {
        self.last_solution.as_deref()
    }

    /// Record a converged solution and its iteration count.
    fn remember(&mut self, x: &[f64], iterations: usize) {
        self.solves += 1;
        self.total_iterations += iterations;
        match &mut self.last_solution {
            Some(buf) if buf.len() == x.len() => buf.copy_from_slice(x),
            slot => *slot = Some(x.to_vec()),
        }
    }

    /// Drop the warm-start state (the scratch vectors stay); cold
    /// benchmarks call this between solves.
    pub fn forget_solution(&mut self) {
        self.last_solution = None;
    }

    /// Number of successful solves recorded by this context.
    pub fn solves(&self) -> usize {
        self.solves
    }

    /// Total CG iterations across all recorded solves.
    pub fn total_iterations(&self) -> usize {
        self.total_iterations
    }
}

/// Solve `A·x = b` for SPD `A` by Jacobi-preconditioned conjugate
/// gradients, starting from `x0` (pass the ambient field when no better
/// guess exists; sweeps pass the previous operating point).
///
/// Convenience wrapper building a throwaway [`SolverContext`]; hot
/// paths use [`solve_cg_with`] to amortise it.
pub fn solve_cg(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    opts: CgOptions,
) -> Result<(Vec<f64>, usize)> {
    let mut ctx = SolverContext::new(a);
    solve_cg_with(a, b, x0, opts, &mut ctx)
}

/// [`solve_cg`] against caller-owned solver state: scratch vectors and
/// the inverse diagonal come from `ctx` (rebuilt only when the matrix
/// changed), and a converged solution is recorded there for the next
/// warm start. Only the solution vector is allocated per solve; each
/// iteration is two fused passes plus one SpMV and one dot product.
pub fn solve_cg_with(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    opts: CgOptions,
    ctx: &mut SolverContext,
) -> Result<(Vec<f64>, usize)> {
    let n = a.dim();
    assert_eq!(b.len(), n);
    assert_eq!(x0.len(), n);
    ctx.prepare(a);

    let bnorm = l2(b);
    if bnorm <= 0.0 {
        let x = vec![0.0; n];
        ctx.remember(&x, 0);
        return Ok((x, 0));
    }

    let mut x = x0.to_vec();
    let SolverContext {
        inv_diag,
        r,
        z,
        p,
        ap,
        ..
    } = &mut *ctx;

    a.mul_vec(&x, r);
    // r ← b − A·x fused with z ← D⁻¹r and both residual dot products.
    let (mut rz, mut rr) = fused_residual(r, z, b, inv_diag);
    p.copy_from_slice(z);

    for it in 0..opts.max_iterations {
        if rr.sqrt() <= opts.tolerance * bnorm {
            ctx.remember(&x, it);
            return Ok((x, it));
        }
        a.mul_vec(p, ap);
        let pap = dot(p, ap);
        if pap <= 0.0 {
            // Not SPD (or breakdown): fail loudly rather than return junk.
            return Err(ThermalError::SolverDiverged {
                iterations: it,
                residual: rr.sqrt() / bnorm,
            });
        }
        let alpha = rz / pap;
        let (rz_new, rr_new) = fused_step(&mut x, r, z, p, ap, inv_diag, alpha);
        let beta = rz_new / rz;
        rz = rz_new;
        rr = rr_new;
        // p ← z + β·p.
        p.par_iter_mut()
            .zip(z.par_iter())
            .for_each(|(pi, &zi)| *pi = zi + beta * *pi);
    }

    let rel = rr.sqrt() / bnorm;
    if rel <= opts.tolerance * 10.0 {
        // Close enough for reporting purposes; accept with the cap hit.
        ctx.remember(&x, opts.max_iterations);
        Ok((x, opts.max_iterations))
    } else {
        Err(ThermalError::SolverDiverged {
            iterations: opts.max_iterations,
            residual: rel,
        })
    }
}

/// Fused CG setup pass: `r ← b − r` (with `r` holding `A·x` on entry)
/// and `z ← D⁻¹∘r` in one sweep, returning `(r·z, r·r)`.
///
/// All slices must share one length. One memory pass instead of four
/// (subtract, precondition, two dots).
pub fn fused_residual(r: &mut [f64], z: &mut [f64], b: &[f64], inv_diag: &[f64]) -> (f64, f64) {
    assert_eq!(r.len(), b.len());
    assert_eq!(z.len(), b.len());
    assert_eq!(inv_diag.len(), b.len());
    r.par_iter_mut()
        .zip(z.par_iter_mut())
        .zip(b.par_iter())
        .zip(inv_diag.par_iter())
        .map(|(((ri, zi), &bi), &di)| {
            *ri = bi - *ri;
            *zi = *ri * di;
            (*ri * *zi, *ri * *ri)
        })
        .reduce(|| (0.0, 0.0), |s, t| (s.0 + t.0, s.1 + t.1))
}

/// Sequential reference for [`fused_residual`].
pub fn fused_residual_seq(r: &mut [f64], z: &mut [f64], b: &[f64], inv_diag: &[f64]) -> (f64, f64) {
    assert_eq!(r.len(), b.len());
    assert_eq!(z.len(), b.len());
    assert_eq!(inv_diag.len(), b.len());
    let (mut rz, mut rr) = (0.0, 0.0);
    for i in 0..b.len() {
        r[i] = b[i] - r[i];
        z[i] = r[i] * inv_diag[i];
        rz += r[i] * z[i];
        rr += r[i] * r[i];
    }
    (rz, rr)
}

/// Fused CG update pass: `x += α·p`, `r −= α·ap`, `z ← D⁻¹∘r` in one
/// sweep, returning the updated `(r·z, r·r)`.
///
/// All slices must share one length. Replaces three axpy-style passes
/// plus two dot products with a single traversal, which matters because
/// steady-state CG is memory-bound.
pub fn fused_step(
    x: &mut [f64],
    r: &mut [f64],
    z: &mut [f64],
    p: &[f64],
    ap: &[f64],
    inv_diag: &[f64],
    alpha: f64,
) -> (f64, f64) {
    assert_eq!(r.len(), x.len());
    assert_eq!(z.len(), x.len());
    assert_eq!(p.len(), x.len());
    assert_eq!(ap.len(), x.len());
    assert_eq!(inv_diag.len(), x.len());
    x.par_iter_mut()
        .zip(r.par_iter_mut())
        .zip(z.par_iter_mut())
        .zip(p.par_iter())
        .zip(ap.par_iter())
        .zip(inv_diag.par_iter())
        .map(|(((((xi, ri), zi), &pi), &api), &di)| {
            *xi += alpha * pi;
            *ri -= alpha * api;
            *zi = *ri * di;
            (*ri * *zi, *ri * *ri)
        })
        .reduce(|| (0.0, 0.0), |s, t| (s.0 + t.0, s.1 + t.1))
}

/// Sequential reference for [`fused_step`].
#[allow(clippy::too_many_arguments)]
pub fn fused_step_seq(
    x: &mut [f64],
    r: &mut [f64],
    z: &mut [f64],
    p: &[f64],
    ap: &[f64],
    inv_diag: &[f64],
    alpha: f64,
) -> (f64, f64) {
    assert_eq!(r.len(), x.len());
    assert_eq!(z.len(), x.len());
    assert_eq!(p.len(), x.len());
    assert_eq!(ap.len(), x.len());
    assert_eq!(inv_diag.len(), x.len());
    let (mut rz, mut rr) = (0.0, 0.0);
    for i in 0..x.len() {
        x[i] += alpha * p[i];
        r[i] -= alpha * ap[i];
        z[i] = r[i] * inv_diag[i];
        rz += r[i] * z[i];
        rr += r[i] * r[i];
    }
    (rz, rr)
}

/// Dot product with deterministic chunked accumulation (partials are
/// combined in chunk order for a fixed thread count).
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.par_iter().zip(b.par_iter()).map(|(&x, &y)| x * y).sum()
}

/// Sequential reference for [`dot`].
pub fn dot_seq(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

fn l2(v: &[f64]) -> f64 {
    dot(v, v).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn laplacian_1d(n: usize) -> CsrMatrix {
        // Dirichlet-anchored 1-D Laplacian: SPD tridiagonal.
        let mut t = TripletMatrix::new(n);
        for i in 0..n {
            t.add(i, i, 2.0);
            if i + 1 < n {
                t.add(i, i + 1, -1.0);
                t.add(i + 1, i, -1.0);
            }
        }
        t.to_csr()
    }

    #[test]
    fn csr_assembly_merges_duplicates() {
        let mut t = TripletMatrix::new(2);
        t.add(0, 0, 1.0);
        t.add(0, 0, 2.0);
        t.add(0, 1, -1.5);
        t.add(1, 1, 4.0);
        let a = t.to_csr();
        assert_eq!(a.get(0, 0), 3.0);
        assert_eq!(a.get(0, 1), -1.5);
        assert_eq!(a.get(1, 0), 0.0);
        assert_eq!(a.get(1, 1), 4.0);
        assert_eq!(a.nnz(), 3);
    }

    #[test]
    fn csr_handles_empty_rows() {
        let mut t = TripletMatrix::new(4);
        t.add(0, 0, 1.0);
        t.add(3, 3, 1.0);
        let a = t.to_csr();
        assert_eq!(a.get(1, 1), 0.0);
        assert_eq!(a.get(2, 2), 0.0);
        let mut y = vec![0.0; 4];
        a.mul_vec(&[1.0, 2.0, 3.0, 4.0], &mut y);
        assert_eq!(y, vec![1.0, 0.0, 0.0, 4.0]);
    }

    #[test]
    fn add_conductance_is_symmetric_and_zero_rowsum() {
        let mut t = TripletMatrix::new(3);
        t.add_conductance(0, 1, 2.0);
        t.add_conductance(1, 2, 3.0);
        let a = t.to_csr();
        assert!(a.is_symmetric(1e-12));
        // Row sums are zero for a pure conductance network (no ground).
        for i in 0..3 {
            let s: f64 = (0..3).map(|j| a.get(i, j)).sum();
            assert!(s.abs() < 1e-12);
        }
    }

    #[test]
    fn spmv_matches_dense() {
        let a = laplacian_1d(5);
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let mut y = vec![0.0; 5];
        a.mul_vec(&x, &mut y);
        assert_eq!(y, vec![0.0, 0.0, 0.0, 0.0, 6.0]);
    }

    #[test]
    fn cg_solves_identity() {
        let mut t = TripletMatrix::new(3);
        for i in 0..3 {
            t.add(i, i, 1.0);
        }
        let a = t.to_csr();
        let (x, _) = solve_cg(&a, &[1.0, 2.0, 3.0], &[0.0; 3], CgOptions::default()).unwrap();
        for (xi, bi) in x.iter().zip([1.0, 2.0, 3.0]) {
            assert!((xi - bi).abs() < 1e-8);
        }
    }

    #[test]
    fn cg_solves_laplacian() {
        let n = 200;
        let a = laplacian_1d(n);
        let b = vec![1.0; n];
        let (x, iters) = solve_cg(&a, &b, &vec![0.0; n], CgOptions::default()).unwrap();
        // Verify residual directly.
        let mut ax = vec![0.0; n];
        a.mul_vec(&x, &mut ax);
        let res: f64 = ax
            .iter()
            .zip(&b)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(res < 1e-6, "residual {res}, iters {iters}");
    }

    #[test]
    fn cg_zero_rhs_returns_zero() {
        let a = laplacian_1d(10);
        let (x, it) = solve_cg(&a, &[0.0; 10], &[0.0; 10], CgOptions::default()).unwrap();
        assert!(x.iter().all(|&v| v == 0.0));
        assert_eq!(it, 0);
    }

    #[test]
    fn cg_warm_start_converges_faster() {
        let n = 500;
        let a = laplacian_1d(n);
        let b = vec![1.0; n];
        let (x, cold_iters) = solve_cg(&a, &b, &vec![0.0; n], CgOptions::default()).unwrap();
        let (_, warm_iters) = solve_cg(&a, &b, &x, CgOptions::default()).unwrap();
        assert!(warm_iters <= 2, "warm start should finish immediately");
        assert!(cold_iters > warm_iters);
    }

    #[test]
    fn cg_rejects_indefinite() {
        let mut t = TripletMatrix::new(2);
        t.add(0, 0, 1.0);
        t.add(1, 1, -1.0);
        let a = t.to_csr();
        let r = solve_cg(&a, &[0.0, 1.0], &[0.0, 0.0], CgOptions::default());
        assert!(r.is_err());
    }

    #[test]
    fn solver_context_warm_guess_cuts_iterations() {
        let n = 500;
        let a = laplacian_1d(n);
        let b = vec![1.0; n];
        let mut ctx = SolverContext::new(&a);
        assert!(ctx.warm_guess().is_none());
        let (_, cold) =
            solve_cg_with(&a, &b, &vec![0.0; n], CgOptions::default(), &mut ctx).unwrap();
        let guess = ctx.warm_guess().unwrap().to_vec();
        let (_, warm) = solve_cg_with(&a, &b, &guess, CgOptions::default(), &mut ctx).unwrap();
        assert!(warm <= 2, "re-solving from the cached field is free");
        assert!(cold > warm);
        assert_eq!(ctx.solves(), 2);
        assert_eq!(ctx.total_iterations(), cold + warm);
    }

    #[test]
    fn solver_context_rebuilds_when_matrix_changes() {
        let a = laplacian_1d(40);
        let b40 = vec![1.0; 40];
        let mut ctx = SolverContext::new(&a);
        solve_cg_with(&a, &b40, &vec![0.0; 40], CgOptions::default(), &mut ctx).unwrap();
        assert!(ctx.warm_guess().is_some());
        // A different matrix invalidates the cached state but must still
        // solve correctly through the same context.
        let a2 = laplacian_1d(60);
        let b60 = vec![1.0; 60];
        let (x, _) =
            solve_cg_with(&a2, &b60, &vec![0.0; 60], CgOptions::default(), &mut ctx).unwrap();
        let mut ax = vec![0.0; 60];
        a2.mul_vec(&x, &mut ax);
        for (axi, bi) in ax.iter().zip(&b60) {
            assert!((axi - bi).abs() < 1e-6);
        }
    }

    #[test]
    fn forget_solution_clears_only_the_warm_state() {
        let a = laplacian_1d(50);
        let b = vec![1.0; 50];
        let mut ctx = SolverContext::new(&a);
        solve_cg_with(&a, &b, &vec![0.0; 50], CgOptions::default(), &mut ctx).unwrap();
        let solves = ctx.solves();
        ctx.forget_solution();
        assert!(ctx.warm_guess().is_none());
        assert_eq!(ctx.solves(), solves, "stats survive a forget");
    }

    #[test]
    fn fused_kernels_match_sequential_references() {
        let n = 257;
        let a = laplacian_1d(n);
        let inv_diag: Vec<f64> = a.diagonal().iter().map(|d| 1.0 / d).collect();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let ax: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos()).collect();

        let (mut r1, mut z1) = (ax.clone(), vec![0.0; n]);
        let (mut r2, mut z2) = (ax.clone(), vec![0.0; n]);
        let s1 = fused_residual(&mut r1, &mut z1, &b, &inv_diag);
        let s2 = fused_residual_seq(&mut r2, &mut z2, &b, &inv_diag);
        assert!((s1.0 - s2.0).abs() <= 1e-12 * s2.0.abs().max(1.0));
        assert!((s1.1 - s2.1).abs() <= 1e-12 * s2.1.abs().max(1.0));
        assert_eq!(r1, r2);
        assert_eq!(z1, z2);

        let p: Vec<f64> = (0..n).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let mut ap = vec![0.0; n];
        a.mul_vec(&p, &mut ap);
        let (mut x1, mut x2) = (b.clone(), b.clone());
        let t1 = fused_step(&mut x1, &mut r1, &mut z1, &p, &ap, &inv_diag, 0.375);
        let t2 = fused_step_seq(&mut x2, &mut r2, &mut z2, &p, &ap, &inv_diag, 0.375);
        assert!((t1.0 - t2.0).abs() <= 1e-12 * t2.0.abs().max(1.0));
        assert!((t1.1 - t2.1).abs() <= 1e-12 * t2.1.abs().max(1.0));
        assert_eq!(x1, x2);
        assert_eq!(r1, r2);
        assert_eq!(z1, z2);
    }
}
