//! Parallel-vs-sequential equivalence of the solver kernels.
//!
//! The fork-join kernels (`mul_vec`, `dot`, the fused CG passes) must
//! match their sequential reference implementations within 1e-12
//! relative tolerance on random SPD grid matrices, and be **bitwise
//! deterministic** for a fixed thread count (the shim combines chunk
//! partials in chunk order, never completion order).

use immersion_thermal::sparse::{
    dot, dot_seq, fused_residual, fused_residual_seq, fused_step, fused_step_seq, CgOptions,
    CsrMatrix, TripletMatrix,
};
use proptest::prelude::*;

/// An SPD conductance-style matrix on an `nx x ny` grid: 5-point
/// Laplacian coupling with random positive edge conductances plus a
/// random positive diagonal tie (the convective term), exactly the
/// structure the thermal assembly produces.
fn grid_spd(nx: usize, ny: usize, edges: &[f64], ties: &[f64]) -> CsrMatrix {
    let n = nx * ny;
    let idx = |x: usize, y: usize| y * nx + x;
    let mut t = TripletMatrix::new(n);
    let mut e = edges.iter().cycle();
    for y in 0..ny {
        for x in 0..nx {
            let i = idx(x, y);
            if x + 1 < nx {
                let g = *e.next().unwrap();
                let j = idx(x + 1, y);
                t.add(i, j, -g);
                t.add(j, i, -g);
                t.add(i, i, g);
                t.add(j, j, g);
            }
            if y + 1 < ny {
                let g = *e.next().unwrap();
                let j = idx(x, y + 1);
                t.add(i, j, -g);
                t.add(j, i, -g);
                t.add(i, i, g);
                t.add(j, j, g);
            }
            t.add(i, i, ties[i % ties.len()]);
        }
    }
    t.to_csr()
}

fn rel_close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0)
}

/// Run `f` on a `threads`-wide pool with a tiny split threshold, so
/// any problem size really forks; the threshold is restored on exit.
/// The threshold is process-wide and the tests run concurrently, so a
/// lock serializes these sections: without it one test's restore can
/// land in the middle of another's solve and change its chunking.
fn in_forked_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    static THRESHOLD: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _held = THRESHOLD.lock().unwrap_or_else(|e| e.into_inner());
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool");
    let old = rayon::split_threshold();
    rayon::set_split_threshold(8);
    let r = pool.install(f);
    rayon::set_split_threshold(old);
    r
}

/// [`in_forked_pool`] at width 4.
fn with_forked_pool<R>(f: impl FnOnce() -> R) -> R {
    in_forked_pool(4, f)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn spmv_matches_sequential(
        nx in 2usize..12,
        ny in 2usize..12,
        edges in proptest::collection::vec(0.05f64..20.0, 16),
        ties in proptest::collection::vec(0.01f64..5.0, 8),
        xs in proptest::collection::vec(-100.0f64..100.0, 144),
    ) {
        let a = grid_spd(nx, ny, &edges, &ties);
        let n = a.dim();
        let x: Vec<f64> = xs.iter().cycle().take(n).copied().collect();
        let (mut y_par, mut y_seq) = (vec![0.0; n], vec![0.0; n]);
        with_forked_pool(|| a.mul_vec(&x, &mut y_par));
        a.mul_vec_seq(&x, &mut y_seq);
        for (p, s) in y_par.iter().zip(&y_seq) {
            prop_assert!(rel_close(*p, *s), "spmv {p} vs {s}");
        }
    }

    #[test]
    fn dot_matches_sequential(
        xs in proptest::collection::vec(-50.0f64..50.0, 1..400),
        ys in proptest::collection::vec(-50.0f64..50.0, 400),
    ) {
        let y = &ys[..xs.len()];
        let par = with_forked_pool(|| dot(&xs, y));
        let seq = dot_seq(&xs, y);
        prop_assert!(rel_close(par, seq), "dot {par} vs {seq}");
    }

    #[test]
    fn fused_kernels_match_sequential(
        nx in 2usize..10,
        ny in 2usize..10,
        edges in proptest::collection::vec(0.05f64..20.0, 16),
        ties in proptest::collection::vec(0.01f64..5.0, 8),
        bs in proptest::collection::vec(-10.0f64..10.0, 100),
        alpha in 0.01f64..2.0,
    ) {
        let a = grid_spd(nx, ny, &edges, &ties);
        let n = a.dim();
        let inv_diag: Vec<f64> = a.diagonal().iter().map(|d| 1.0 / d).collect();
        let b: Vec<f64> = bs.iter().cycle().take(n).copied().collect();
        let ax: Vec<f64> = b.iter().map(|v| v * 0.5 + 1.0).collect();

        let (mut r1, mut z1) = (ax.clone(), vec![0.0; n]);
        let (mut r2, mut z2) = (ax.clone(), vec![0.0; n]);
        let s1 = with_forked_pool(|| fused_residual(&mut r1, &mut z1, &b, &inv_diag));
        let s2 = fused_residual_seq(&mut r2, &mut z2, &b, &inv_diag);
        prop_assert!(rel_close(s1.0, s2.0) && rel_close(s1.1, s2.1));
        for i in 0..n {
            prop_assert!(rel_close(r1[i], r2[i]) && rel_close(z1[i], z2[i]));
        }

        let p: Vec<f64> = b.iter().map(|v| v * 0.25 - 0.5).collect();
        let mut ap = vec![0.0; n];
        a.mul_vec_seq(&p, &mut ap);
        let (mut x1, mut x2) = (b.clone(), b.clone());
        let t1 = with_forked_pool(|| fused_step(&mut x1, &mut r1, &mut z1, &p, &ap, &inv_diag, alpha));
        let t2 = fused_step_seq(&mut x2, &mut r2, &mut z2, &p, &ap, &inv_diag, alpha);
        prop_assert!(rel_close(t1.0, t2.0) && rel_close(t1.1, t2.1));
        for i in 0..n {
            prop_assert!(
                rel_close(x1[i], x2[i]) && rel_close(r1[i], r2[i]) && rel_close(z1[i], z2[i])
            );
        }
    }

    #[test]
    fn full_cg_solve_matches_between_pool_widths(
        nx in 3usize..9,
        ny in 3usize..9,
        edges in proptest::collection::vec(0.1f64..10.0, 16),
        ties in proptest::collection::vec(0.05f64..2.0, 8),
        bs in proptest::collection::vec(-5.0f64..5.0, 81),
    ) {
        let a = grid_spd(nx, ny, &edges, &ties);
        let n = a.dim();
        let b: Vec<f64> = bs.iter().cycle().take(n).copied().collect();
        let x0 = vec![0.0; n];
        // Parallel (forked) and 1-thread solves agree to the same
        // tolerance band; exact bitwise equality is only promised for a
        // fixed thread count, so compare against the combined tolerance.
        let (xp, _) = with_forked_pool(|| {
            immersion_thermal::sparse::solve_cg(&a, &b, &x0, CgOptions::default()).expect("par")
        });
        let seq_pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().expect("pool");
        let (xs_, _) = seq_pool.install(|| {
            immersion_thermal::sparse::solve_cg(&a, &b, &x0, CgOptions::default()).expect("seq")
        });
        let scale = b.iter().map(|v| v.abs()).fold(1.0f64, f64::max);
        for (p, s) in xp.iter().zip(&xs_) {
            prop_assert!((p - s).abs() <= 1e-6 * scale, "{p} vs {s}");
        }
    }
}

/// Two runs with the same pool width produce bitwise-identical results:
/// chunk boundaries are a pure function of (len, threshold, width) and
/// partials are combined in chunk order.
#[test]
fn parallel_solve_is_deterministic_for_fixed_thread_count() {
    let edges: Vec<f64> = (0..16)
        .map(|i| 0.3 + 0.7 * (i as f64 * 0.9).sin().abs())
        .collect();
    let ties: Vec<f64> = (0..8).map(|i| 0.1 + 0.05 * i as f64).collect();
    let a = grid_spd(20, 20, &edges, &ties);
    let n = a.dim();
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.13).sin() * 5.0).collect();
    let x0 = vec![0.0; n];

    let run = || {
        in_forked_pool(3, || {
            immersion_thermal::sparse::solve_cg(&a, &b, &x0, CgOptions::default()).expect("cg")
        })
    };
    let (x1, it1) = run();
    let (x2, it2) = run();
    assert_eq!(it1, it2, "iteration counts must match exactly");
    for (p, q) in x1.iter().zip(&x2) {
        assert_eq!(p.to_bits(), q.to_bits(), "bitwise determinism violated");
    }
}

/// A cold steady solve of a real 4-chip stack model is bitwise
/// repeatable at a fixed pool width, and agrees across widths 1–4 to
/// the same tolerance band as the random-matrix solves above. Across
/// widths the chunked reductions split at different boundaries, so
/// bitwise identity is not promised there.
#[test]
fn cold_model_solve_is_repeatable_and_width_stable() {
    use immersion_thermal::floorplan::{Floorplan, Rect};
    use immersion_thermal::stack3d::{CoolingParams, StackBuilder};

    let mut fp = Floorplan::new(0.01, 0.01);
    fp.add_block("DIE", Rect::new(0.0, 0.0, 0.01, 0.01))
        .unwrap();
    let model = StackBuilder::new(fp)
        .chips(4)
        .grid(8, 8)
        .cooling(CoolingParams::water_immersion())
        .build()
        .expect("model");
    let mut p = model.zero_power();
    for die in 0..4 {
        p.set(die, "DIE", 20.0).unwrap();
    }

    let run = |threads: usize| {
        let sol = in_forked_pool(threads, || model.solve_steady_cold(&p).expect("solve"));
        let iters = sol.iterations();
        (sol.into_temps(), iters)
    };

    let (t_ref, it_ref) = run(1);
    assert!(it_ref > 0, "cold solve must iterate");
    let scale = t_ref.iter().map(|v| v.abs()).fold(1.0f64, f64::max);
    for threads in [1usize, 2, 3, 4] {
        let (first, it_first) = run(threads);
        let (again, it_again) = run(threads);
        assert_eq!(
            it_first, it_again,
            "iteration count changed at width {threads}"
        );
        for (i, (a, b)) in first.iter().zip(&again).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "node {i} not repeatable at width {threads}: {a:?} vs {b:?}"
            );
        }
        for (i, (a, b)) in first.iter().zip(&t_ref).enumerate() {
            assert!(
                (a - b).abs() <= 1e-6 * scale,
                "node {i} at width {threads}: {a} vs width 1 {b}"
            );
        }
    }
}
