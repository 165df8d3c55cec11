//! The chip model library: the paper's two synthetic CMPs (Table 1) and
//! the two real Intel processors used for validation (§4.3).
//!
//! Power anchors:
//!
//! | chip | max power | at | VFS steps | threshold |
//! |---|---|---|---|---|
//! | low-power CMP | 47.2 W | 2.0 GHz | 1.0–2.0 GHz × 0.1 (11) | 80 °C |
//! | high-frequency CMP | 56.8 W | 3.6 GHz | 1.2–3.6 GHz × 0.2 (13) | 80 °C |
//! | Xeon E5-2667v4 | 135 W | 3.6 GHz | 1.2–3.6 GHz × 0.2 (13) | 78 °C |
//! | Xeon Phi 7290 | 245 W | 1.6 GHz | 1.0–1.6 GHz × 0.1 (7) | 80 °C |
//!
//! The paper derives the real chips' power profiles from RAPL
//! measurements of a per-core `stress` run and their floorplans from
//! high-resolution die photos; we model both analytically and calibrate
//! against the published anchors (DESIGN.md §2).

use crate::components::{ComponentKind, Decomposition};
use crate::vfs::{VfsCurve, VfsTable};
use immersion_thermal::floorplan::{baseline_16_tile, Floorplan, Rect};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// A complete chip model: geometry, VFS table and power decomposition.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChipModel {
    /// Short name ("low-power", "high-frequency", "e5", "phi").
    pub name: &'static str,
    /// Die floorplan (meters).
    pub floorplan: Floorplan,
    /// Supported voltage/frequency steps.
    pub vfs: VfsTable,
    /// Per-block power split.
    pub decomposition: Decomposition,
    /// Total chip power at the maximum VFS step, watts (full activity,
    /// the paper's worst-case assumption).
    pub max_power_watts: f64,
    /// Dynamic share of `max_power_watts` (the rest is leakage).
    pub dynamic_fraction: f64,
    /// Junction temperature at which `max_power_watts` was characterised
    /// (leakage reference), °C.
    pub leakage_ref_temp_c: f64,
    /// The recommended maximum operating temperature, °C.
    pub temp_threshold_c: f64,
    /// Core count (Table 1: 4 for the synthetic CMPs).
    pub cores: usize,
}

/// The Table 1 "low-power CMP": 4 cores + 12 L2 banks, 11 VFS steps
/// from 1.0 to 2.0 GHz, 47.2 W maximum.
pub fn low_power_cmp() -> ChipModel {
    let curve = VfsCurve::new(2.0, 0.9, 0.3);
    ChipModel {
        name: "low-power",
        floorplan: baseline_16_tile(),
        vfs: VfsTable::linear(curve, 1.0, 2.0, 0.1),
        decomposition: Decomposition::baseline_16_tile(),
        max_power_watts: 47.2,
        dynamic_fraction: 0.70,
        leakage_ref_temp_c: 80.0,
        temp_threshold_c: 80.0,
        cores: 4,
    }
}

/// The Table 1 "high-frequency CMP": same 16-tile layout, 13 VFS steps
/// from 1.2 to 3.6 GHz, 56.8 W maximum.
pub fn high_frequency_cmp() -> ChipModel {
    let curve = VfsCurve::new(3.6, 1.1, 0.3);
    ChipModel {
        name: "high-frequency",
        floorplan: baseline_16_tile(),
        vfs: VfsTable::linear(curve, 1.2, 3.6, 0.2),
        decomposition: Decomposition::baseline_16_tile(),
        max_power_watts: 56.8,
        dynamic_fraction: 0.70,
        leakage_ref_temp_c: 80.0,
        temp_threshold_c: 80.0,
        cores: 4,
    }
}

/// Install a constant block. The geometries below are compile-time
/// constants exercised by this module's tests, so a failed insert can
/// only mean a typo in those constants — caught by the debug assert
/// under `cargo test`, not worth a release panic path.
fn add_const_block(fp: &mut Floorplan, name: &str, rect: Rect) {
    let added = fp.add_block(name, rect);
    debug_assert!(added.is_ok(), "invalid chip constant {name}: {added:?}");
}

/// The Intel Xeon E5-2667v4 model (8 cores, 135 W TDP, 78 °C
/// threshold per its specification — Figure 1's constraint).
pub fn xeon_e5_2667v4() -> ChipModel {
    // 16 x 12 mm die: two 4-core columns flanking a shared L3 column,
    // uncore strip along the bottom edge.
    let (w, h) = (0.016, 0.012);
    let mut fp = Floorplan::new(w, h);
    let strip = 0.002; // uncore strip height
    let row_h = (h - strip) / 4.0;
    let core_w = 0.005;
    let l3_w = w - 2.0 * core_w;
    for r in 0..4 {
        let y = strip + r as f64 * row_h;
        add_const_block(
            &mut fp,
            &format!("CORE{}", r + 1),
            Rect::new(0.0, y, core_w, row_h),
        );
        add_const_block(
            &mut fp,
            &format!("CORE{}", r + 5),
            Rect::new(w - core_w, y, core_w, row_h),
        );
        add_const_block(
            &mut fp,
            &format!("L3_{}", r + 1),
            Rect::new(core_w, y, l3_w, row_h),
        );
    }
    add_const_block(&mut fp, "UNCORE", Rect::new(0.0, 0.0, w, strip));

    let curve = VfsCurve::new(3.6, 1.2, 0.35);
    ChipModel {
        name: "e5",
        floorplan: fp,
        vfs: VfsTable::linear(curve, 1.2, 3.6, 0.2),
        decomposition: Decomposition::xeon_e5(),
        max_power_watts: 135.0,
        dynamic_fraction: 0.72,
        leakage_ref_temp_c: 78.0,
        temp_threshold_c: 78.0,
        cores: 8,
    }
}

/// The Intel Xeon Phi 7290 model (72 cores in 36 tiles, 245 W,
/// 1.6 GHz maximum — §4.3 and Figure 17).
pub fn xeon_phi_7290() -> ChipModel {
    // 24 x 24 mm die, 6x6 uniform tile grid (two cores per tile).
    let side = 0.024;
    let mut fp = Floorplan::new(side, side);
    let tile = side / 6.0;
    let mut n = 1;
    for r in 0..6 {
        for c in 0..6 {
            add_const_block(
                &mut fp,
                &format!("TILE{n}"),
                Rect::new(c as f64 * tile, r as f64 * tile, tile, tile),
            );
            n += 1;
        }
    }
    let curve = VfsCurve::new(1.6, 0.95, 0.3);
    ChipModel {
        name: "phi",
        floorplan: fp,
        vfs: VfsTable::linear(curve, 1.0, 1.6, 0.1),
        decomposition: Decomposition::uniform_tiles("TILE", 36, ComponentKind::Core),
        max_power_watts: 245.0,
        dynamic_fraction: 0.72,
        leakage_ref_temp_c: 80.0,
        temp_threshold_c: 80.0,
        cores: 72,
    }
}

/// All four chip models, in the order they appear in the paper.
pub fn all_chips() -> Vec<ChipModel> {
    vec![
        low_power_cmp(),
        high_frequency_cmp(),
        xeon_e5_2667v4(),
        xeon_phi_7290(),
    ]
}

/// The chip keys the CLI and the HTTP API accept, for error messages.
pub const CHIP_KEYS: &str = "lp|hf|e5|phi";

/// The chip model for a key or alias (`lp|low-power`,
/// `hf|high-frequency`, `e5`, `phi`), or `None` for an unknown key.
///
/// The four models are built once per process, on the first lookup,
/// and shared: a model is a constant, and building one inverts the
/// alpha-power law at every VFS step.
pub fn chip_by_key(key: &str) -> Option<&'static ChipModel> {
    static MODELS: OnceLock<Vec<ChipModel>> = OnceLock::new();
    // Indices into `all_chips`, which lists the chips in this order.
    let i = match key {
        "lp" | "low-power" => 0,
        "hf" | "high-frequency" => 1,
        "e5" => 2,
        "phi" => 3,
        _ => return None,
    };
    MODELS.get_or_init(all_chips).get(i)
}

/// Synthetic RAPL-style measurement anchors for Figure 6's
/// model-vs-measurement comparison: `(freq GHz, relative power)` pairs.
///
/// The paper measured these with Intel RAPL running one `stress`
/// instance per core; we have no such hardware, so these points are
/// generated from the published shape of the curves (convex, ~20 % of
/// max power at the lowest step). Documented substitution — see
/// DESIGN.md §2.
pub fn rapl_anchors(chip_name: &str) -> Option<Vec<(f64, f64)>> {
    match chip_name {
        "e5" => Some(vec![
            (1.2, 0.185),
            (1.8, 0.295),
            (2.4, 0.445),
            (3.0, 0.650),
            (3.6, 1.000),
        ]),
        "phi" => Some(vec![(1.0, 0.430), (1.2, 0.565), (1.4, 0.760), (1.6, 1.000)]),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_anchors() {
        let lp = low_power_cmp();
        assert_eq!(lp.vfs.len(), 11);
        assert_eq!(lp.max_power_watts, 47.2);
        assert!((lp.floorplan.area() - 169e-6).abs() < 1e-9);
        assert_eq!(lp.cores, 4);

        let hf = high_frequency_cmp();
        assert_eq!(hf.vfs.len(), 13);
        assert_eq!(hf.max_power_watts, 56.8);
        assert!((hf.vfs.max_step().freq_ghz - 3.6).abs() < 1e-12);
    }

    #[test]
    fn real_chip_anchors() {
        let e5 = xeon_e5_2667v4();
        assert_eq!(e5.cores, 8);
        assert_eq!(e5.temp_threshold_c, 78.0);
        let phi = xeon_phi_7290();
        assert_eq!(phi.cores, 72);
        assert!((phi.vfs.max_step().freq_ghz - 1.6).abs() < 1e-12);
    }

    #[test]
    fn floorplans_cover_their_dies() {
        for chip in all_chips() {
            let fp = &chip.floorplan;
            assert!(
                (fp.covered_area() - fp.area()).abs() / fp.area() < 1e-9,
                "{} floorplan leaves gaps",
                chip.name
            );
        }
    }

    #[test]
    fn decomposition_matches_floorplan_blocks() {
        for chip in all_chips() {
            for share in chip.decomposition.shares() {
                assert!(
                    chip.floorplan.block(&share.block).is_some(),
                    "{}: power block {} missing from floorplan",
                    chip.name,
                    share.block
                );
            }
            assert_eq!(
                chip.decomposition.shares().len(),
                chip.floorplan.len(),
                "{}: floorplan and decomposition disagree",
                chip.name
            );
        }
    }

    #[test]
    fn rapl_anchor_tables_exist_for_real_chips() {
        assert!(rapl_anchors("e5").is_some());
        assert!(rapl_anchors("phi").is_some());
        assert!(rapl_anchors("low-power").is_none());
    }
}
