//! 3-D finite-volume thermal grid assembly.
//!
//! The model is a vertical stack of layers (PCB, package substrate,
//! dies, bonds, TIM, spreader, heatsink, ...). Each layer has its own
//! lateral extent and grid resolution; consecutive layers exchange heat
//! through the area where they overlap, so a 13 mm die sitting on a
//! 45 mm package on a 170 mm board "just works": the conductances follow
//! the geometry.
//!
//! Every grid cell becomes one node of a thermal RC network (one node
//! per layer in the vertical direction, like HotSpot's grid model, with
//! optional vertical subdivision for thick layers such as the heatsink
//! base). The steady-state system `G·T = q` is symmetric positive
//! definite and solved by Jacobi-preconditioned CG ([`crate::sparse`]).
//!
//! Temperatures are in °C. The ambient is not a node: convective ties
//! are folded into the diagonal and the right-hand side (standard
//! elimination of a Dirichlet ambient).

use crate::floorplan::{Floorplan, Rect};
use crate::materials::Material;
use crate::sparse::{solve_cg_with, CgOptions, CsrMatrix, SolverContext, TripletMatrix};
use crate::steady::Solution;
use crate::{Result, ThermalError};
use immersion_sanitizer::{TrackedMutex, TrackedMutexGuard};
use immersion_units::{Celsius, HeatTransferCoeff};
use serde::{Deserialize, Serialize};

/// Which surface of a layer a boundary condition applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Surface {
    /// The +z face (towards later layers in the stack order).
    Top,
    /// The −z face (towards earlier layers).
    Bottom,
}

/// A laterally patterned material layout: each block of `floorplan`
/// (in layer-local coordinates) is made of the material at the same
/// index in `materials`; uncovered cells keep the layer's base
/// material. Used for thermal-TSV placement studies, where the bond
/// layer's metal fill is concentrated under chosen blocks.
#[derive(Debug, Clone)]
pub struct LayerPattern {
    /// Block geometry, sized like the layer's extent.
    pub floorplan: Floorplan,
    /// Material of each block (same order as the floorplan's blocks).
    pub materials: Vec<Material>,
}

/// One layer of the stack.
#[derive(Debug, Clone)]
pub struct LayerSpec {
    /// Name for reports ("die-0", "heatsink", ...).
    pub name: String,
    /// Bulk material.
    pub material: Material,
    /// Thickness in meters.
    pub thickness_m: f64,
    /// Lateral extent in the global (board) coordinate system, meters.
    pub extent: Rect,
    /// Lateral resolution.
    pub nx: usize,
    /// Lateral resolution.
    pub ny: usize,
    /// Optional lateral material pattern.
    pub pattern: Option<LayerPattern>,
}

impl LayerSpec {
    /// A layer spanning `extent` with resolution `nx × ny`.
    pub fn new(
        name: &str,
        material: Material,
        thickness_m: f64,
        extent: Rect,
        nx: usize,
        ny: usize,
    ) -> Self {
        LayerSpec {
            name: name.to_string(),
            material,
            thickness_m,
            extent,
            nx,
            ny,
            pattern: None,
        }
    }

    /// Attach a lateral material pattern (builder style).
    pub fn with_pattern(mut self, pattern: LayerPattern) -> Self {
        self.pattern = Some(pattern);
        self
    }

    /// Per-cell `(lateral k, vertical k, volumetric heat capacity)` for
    /// this layer, blending pattern blocks by covered area fraction.
    pub(crate) fn cell_properties(&self) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let n = self.cells();
        let mut k_lat = vec![self.material.lateral_conductivity.raw(); n];
        let mut k_vert = vec![self.material.conductivity.raw(); n];
        let mut vhc = vec![self.material.volumetric_heat_capacity.raw(); n];
        if let Some(pat) = &self.pattern {
            // Fraction of each cell covered, accumulated per block.
            let cell_area = (self.extent.w / self.nx as f64) * (self.extent.h / self.ny as f64);
            for (bi, block) in pat.floorplan.blocks().iter().enumerate() {
                let mat = pat.materials[bi];
                for (cell, frac_of_block) in pat.floorplan.rasterize_block(bi, self.nx, self.ny) {
                    // rasterize weights are fractions of the *block*;
                    // convert to the fraction of the *cell* covered.
                    let covered = (frac_of_block * block.rect.area() / cell_area).min(1.0);
                    k_lat[cell] += covered
                        * (mat.lateral_conductivity - self.material.lateral_conductivity).raw();
                    k_vert[cell] += covered * (mat.conductivity - self.material.conductivity).raw();
                    vhc[cell] += covered
                        * (mat.volumetric_heat_capacity - self.material.volumetric_heat_capacity)
                            .raw();
                }
            }
        }
        (k_lat, k_vert, vhc)
    }

    fn validate(&self) -> Result<()> {
        if self.thickness_m <= 0.0 || self.extent.w <= 0.0 || self.extent.h <= 0.0 {
            return Err(ThermalError::BadParameter(format!(
                "layer {}: non-positive dimension",
                self.name
            )));
        }
        if self.nx == 0 || self.ny == 0 {
            return Err(ThermalError::BadParameter(format!(
                "layer {}: zero grid resolution",
                self.name
            )));
        }
        if self.material.conductivity.raw() <= 0.0 {
            return Err(ThermalError::BadParameter(format!(
                "layer {}: non-positive conductivity",
                self.name
            )));
        }
        if let Some(pat) = &self.pattern {
            if pat.materials.len() != pat.floorplan.len() {
                return Err(ThermalError::BadParameter(format!(
                    "layer {}: pattern has {} blocks but {} materials",
                    self.name,
                    pat.floorplan.len(),
                    pat.materials.len()
                )));
            }
            if (pat.floorplan.width() - self.extent.w).abs() > 1e-9
                || (pat.floorplan.height() - self.extent.h).abs() > 1e-9
            {
                return Err(ThermalError::BadParameter(format!(
                    "layer {}: pattern outline does not match the extent",
                    self.name
                )));
            }
        }
        Ok(())
    }

    fn cells(&self) -> usize {
        self.nx * self.ny
    }
}

/// A convective boundary condition on one surface of one layer.
#[derive(Debug, Clone)]
pub struct Convection {
    /// Index of the layer carrying the boundary.
    pub layer: usize,
    /// Which face of the layer.
    pub surface: Surface,
    /// Heat transfer coefficient of the coolant film.
    pub h: HeatTransferCoeff,
    /// Effective-area multiplier (e.g. heatsink fins: Table 2's 0.3024 m²
    /// over a 12×12 cm base is a 21× multiplier).
    pub area_multiplier: f64,
    /// Extra series resistance per unit area, m²·K/W — used for thin
    /// conformal coatings such as the parylene film (R'' = t/k).
    pub series_resistance_m2_k_per_w: f64,
    /// Coolant temperature.
    pub ambient: Celsius,
}

impl Convection {
    /// A plain convective surface with no coating and no fins.
    pub fn simple(layer: usize, surface: Surface, h: HeatTransferCoeff, ambient: Celsius) -> Self {
        Convection {
            layer,
            surface,
            h,
            area_multiplier: 1.0,
            series_resistance_m2_k_per_w: 0.0,
            ambient,
        }
    }

    /// Effective conductance per unit *base* area, including the
    /// half-layer conduction `half_r` (m²K/W) from the node at the layer
    /// mid-plane to the surface.
    fn conductance_per_area(&self, half_r: f64) -> f64 {
        let film = 1.0 / (self.h.raw() * self.area_multiplier);
        1.0 / (half_r + self.series_resistance_m2_k_per_w + film)
    }
}

/// Per-chip, per-block power in watts.
///
/// Shaped like HotSpot's `.ptrace`: one row per *power layer* (die), one
/// named column per floorplan block.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PowerAssignment {
    /// `values[power_layer][block_index]` in watts.
    values: Vec<Vec<f64>>,
    block_names: Vec<Vec<String>>,
}

impl PowerAssignment {
    /// Set the power of `block` on power layer (die) `layer`.
    pub fn set(&mut self, layer: usize, block: &str, watts: f64) -> Result<()> {
        let names = self
            .block_names
            .get(layer)
            .ok_or_else(|| ThermalError::UnknownBlock(format!("power layer {layer}")))?;
        let idx = names
            .iter()
            .position(|n| n == block)
            .ok_or_else(|| ThermalError::UnknownBlock(format!("layer {layer} block {block}")))?;
        self.values[layer][idx] = watts;
        Ok(())
    }

    /// Set every block on every die from a closure `(die, block) -> W`.
    pub fn fill_with(&mut self, mut f: impl FnMut(usize, &str) -> f64) {
        for l in 0..self.values.len() {
            for b in 0..self.values[l].len() {
                self.values[l][b] = f(l, &self.block_names[l][b]);
            }
        }
    }

    /// Total power across all dies, watts.
    pub fn total(&self) -> f64 {
        self.values.iter().flatten().sum()
    }

    /// Number of power layers (dies).
    pub fn layers(&self) -> usize {
        self.values.len()
    }

    /// Power of one block.
    pub fn get(&self, layer: usize, block: &str) -> Option<f64> {
        let idx = self
            .block_names
            .get(layer)?
            .iter()
            .position(|n| n == block)?;
        Some(self.values[layer][idx])
    }
}

struct PowerLayer {
    layer: usize,
    /// Per block: rasterised (cell, weight) pairs.
    raster: Vec<Vec<(usize, f64)>>,
    block_names: Vec<String>,
}

/// The assembled thermal model: geometry + conductance matrix.
pub struct ThermalModel {
    layers: Vec<LayerSpec>,
    offsets: Vec<usize>,
    n_nodes: usize,
    matrix: CsrMatrix,
    /// `(node, conductance, ambient)` convective ties.
    conv_ties: Vec<(usize, f64, f64)>,
    power_layers: Vec<PowerLayer>,
    /// Per-node heat capacity (J/K), for the transient solver.
    capacities: Vec<f64>,
    cg: CgOptions,
    /// Reusable CG state (inverse diagonal, scratch vectors, last
    /// solution). Taken out of the lock for the duration of a solve so
    /// the solve itself never runs under the mutex; a concurrent solve
    /// that finds the slot empty just builds a throwaway context.
    /// Tracked by the concurrency sanitizer under the same name the
    /// static R11 lock-order analysis derives for this field.
    solver: TrackedMutex<SolverContext>,
}

/// Incremental builder for a [`ThermalModel`].
pub struct ModelBuilder {
    layers: Vec<LayerSpec>,
    convections: Vec<Convection>,
    power_floorplans: Vec<(usize, Floorplan)>,
    cg: CgOptions,
}

impl Default for ModelBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ModelBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        ModelBuilder {
            layers: Vec::new(),
            convections: Vec::new(),
            power_floorplans: Vec::new(),
            cg: CgOptions::default(),
        }
    }

    /// Append a layer above all previously added layers; returns its index.
    pub fn add_layer(&mut self, spec: LayerSpec) -> usize {
        self.layers.push(spec);
        self.layers.len() - 1
    }

    /// Attach a convective boundary.
    pub fn add_convection(&mut self, c: Convection) -> &mut Self {
        self.convections.push(c);
        self
    }

    /// Declare `layer` to be a die whose power is described by `fp`.
    /// Power layers are numbered in the order of these calls (die 0 =
    /// first call), independent of their physical position.
    pub fn add_power_floorplan(&mut self, layer: usize, fp: Floorplan) -> &mut Self {
        self.power_floorplans.push((layer, fp));
        self
    }

    /// Override CG solver options.
    pub fn cg_options(&mut self, o: CgOptions) -> &mut Self {
        self.cg = o;
        self
    }

    /// Assemble the conductance matrix.
    pub fn build(self) -> Result<ThermalModel> {
        if self.layers.is_empty() {
            return Err(ThermalError::BadParameter("no layers".into()));
        }
        for l in &self.layers {
            l.validate()?;
        }
        let mut offsets = Vec::with_capacity(self.layers.len());
        let mut n = 0usize;
        for l in &self.layers {
            offsets.push(n);
            n += l.cells();
        }

        let mut trip = TripletMatrix::new(n);
        let mut capacities = vec![0.0; n];
        // Per-layer, per-cell material properties (patterned layers
        // deviate from the bulk material cell by cell).
        let cell_props: Vec<(Vec<f64>, Vec<f64>, Vec<f64>)> =
            self.layers.iter().map(|l| l.cell_properties()).collect();

        // Lateral conduction within each layer + capacities.
        for (li, l) in self.layers.iter().enumerate() {
            let off = offsets[li];
            let dx = l.extent.w / l.nx as f64;
            let dy = l.extent.h / l.ny as f64;
            let (k_lat, _, vhc) = &cell_props[li];
            for iy in 0..l.ny {
                for ix in 0..l.nx {
                    let cell = iy * l.nx + ix;
                    let node = off + cell;
                    capacities[node] = vhc[cell] * dx * dy * l.thickness_m;
                    if ix + 1 < l.nx {
                        // Series of the two half-cells (harmonic mean).
                        let g = l.thickness_m * dy
                            / (dx / (2.0 * k_lat[cell]) + dx / (2.0 * k_lat[cell + 1]));
                        trip.add_conductance(node, node + 1, g);
                    }
                    if iy + 1 < l.ny {
                        let g = l.thickness_m * dx
                            / (dy / (2.0 * k_lat[cell]) + dy / (2.0 * k_lat[cell + l.nx]));
                        trip.add_conductance(node, node + l.nx, g);
                    }
                }
            }
        }

        // Vertical conduction between consecutive layers over their overlap.
        for li in 0..self.layers.len().saturating_sub(1) {
            let (a, b) = (&self.layers[li], &self.layers[li + 1]);
            let ka = &cell_props[li].1;
            let kb = &cell_props[li + 1].1;
            let xo = overlaps_1d(a.extent.x, a.extent.w, a.nx, b.extent.x, b.extent.w, b.nx);
            let yo = overlaps_1d(a.extent.y, a.extent.h, a.ny, b.extent.y, b.extent.h, b.ny);
            for &(iya, iyb, ly) in &yo {
                for &(ixa, ixb, lx) in &xo {
                    let area = lx * ly;
                    let cell_a = iya * a.nx + ixa;
                    let cell_b = iyb * b.nx + ixb;
                    let r_per_area =
                        a.thickness_m / (2.0 * ka[cell_a]) + b.thickness_m / (2.0 * kb[cell_b]);
                    let g = area / r_per_area;
                    let na = offsets[li] + cell_a;
                    let nb = offsets[li + 1] + cell_b;
                    trip.add_conductance(na, nb, g);
                }
            }
        }

        // Convective ties.
        let mut conv_ties = Vec::new();
        for c in &self.convections {
            let l = self.layers.get(c.layer).ok_or_else(|| {
                ThermalError::BadParameter(format!("convection on layer {}", c.layer))
            })?;
            if c.h.raw() <= 0.0 || c.area_multiplier <= 0.0 {
                return Err(ThermalError::BadParameter(format!(
                    "convection on layer {}: non-positive h",
                    c.layer
                )));
            }
            let k_vert = &cell_props[c.layer].1;
            let dx = l.extent.w / l.nx as f64;
            let dy = l.extent.h / l.ny as f64;
            let off = offsets[c.layer];
            for (cell, &k) in k_vert.iter().enumerate().take(l.cells()) {
                let half_r = l.thickness_m / (2.0 * k);
                let g_cell = c.conductance_per_area(half_r) * dx * dy;
                trip.add_grounded(off + cell, g_cell);
                conv_ties.push((off + cell, g_cell, c.ambient.raw()));
            }
        }
        if conv_ties.is_empty() {
            return Err(ThermalError::BadParameter(
                "no convective boundary: steady-state system would be singular".into(),
            ));
        }

        // Power layers.
        let mut power_layers = Vec::new();
        for (li, fp) in &self.power_floorplans {
            let l = self.layers.get(*li).ok_or_else(|| {
                ThermalError::BadParameter(format!("power floorplan on layer {li}"))
            })?;
            if (fp.width() - l.extent.w).abs() > 1e-9 || (fp.height() - l.extent.h).abs() > 1e-9 {
                return Err(ThermalError::BadParameter(format!(
                    "floorplan ({} x {}) does not match layer {} extent ({} x {})",
                    fp.width(),
                    fp.height(),
                    l.name,
                    l.extent.w,
                    l.extent.h
                )));
            }
            let off = offsets[*li];
            let raster = (0..fp.len())
                .map(|b| {
                    fp.rasterize_block(b, l.nx, l.ny)
                        .into_iter()
                        .map(|(cell, w)| (off + cell, w))
                        .collect()
                })
                .collect();
            power_layers.push(PowerLayer {
                layer: *li,
                raster,
                block_names: fp.blocks().iter().map(|b| b.name.clone()).collect(),
            });
        }

        let matrix = trip.to_csr();
        let solver = TrackedMutex::new("thermal::ThermalModel.solver", SolverContext::new(&matrix));
        Ok(ThermalModel {
            layers: self.layers,
            offsets,
            n_nodes: n,
            matrix,
            conv_ties,
            power_layers,
            capacities,
            cg: self.cg,
            solver,
        })
    }
}

impl Drop for ThermalModel {
    fn drop(&mut self) {
        // Models churn per request in the serve path; retire the
        // solver cell so a successor at the reused address starts
        // with a clean epoch history.
        immersion_sanitizer::retire(
            "thermal::ThermalModel.solver",
            immersion_sanitizer::obj_id(self),
        );
    }
}

impl ThermalModel {
    /// Number of thermal nodes.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// The layer specs, bottom to top.
    pub fn layers(&self) -> &[LayerSpec] {
        &self.layers
    }

    /// Index of the first node of layer `li`.
    pub fn layer_offset(&self, li: usize) -> usize {
        assert!(li < self.offsets.len());
        self.offsets[li]
    }

    /// Index of a layer by name.
    pub fn layer_index(&self, name: &str) -> Option<usize> {
        self.layers.iter().position(|l| l.name == name)
    }

    /// The physical layer index of power layer (die) `pl`.
    pub fn power_layer_physical(&self, pl: usize) -> Option<usize> {
        self.power_layers.get(pl).map(|p| p.layer)
    }

    /// Number of power layers (dies).
    pub fn n_power_layers(&self) -> usize {
        self.power_layers.len()
    }

    /// An all-zero power assignment matching this model's dies.
    pub fn zero_power(&self) -> PowerAssignment {
        PowerAssignment {
            values: self
                .power_layers
                .iter()
                .map(|p| vec![0.0; p.block_names.len()])
                .collect(),
            block_names: self
                .power_layers
                .iter()
                .map(|p| p.block_names.clone())
                .collect(),
        }
    }

    /// Per-node heat capacities (J/K); used by the transient solver.
    pub fn capacities(&self) -> &[f64] {
        &self.capacities
    }

    /// The assembled conductance matrix.
    pub fn matrix(&self) -> &CsrMatrix {
        &self.matrix
    }

    /// The convective ties `(node, conductance, ambient)`.
    pub fn conv_ties(&self) -> &[(usize, f64, f64)] {
        &self.conv_ties
    }

    /// Build the right-hand side `q` for a power assignment.
    pub fn rhs(&self, power: &PowerAssignment) -> Result<Vec<f64>> {
        if power.layers() != self.power_layers.len() {
            return Err(ThermalError::BadParameter(format!(
                "power assignment has {} layers, model has {}",
                power.layers(),
                self.power_layers.len()
            )));
        }
        let mut q = vec![0.0; self.n_nodes];
        for (pl, p) in self.power_layers.iter().enumerate() {
            for (b, cells) in p.raster.iter().enumerate() {
                let w = power.values[pl][b];
                if w.abs() > 0.0 {
                    for &(node, frac) in cells {
                        q[node] += w * frac;
                    }
                }
            }
        }
        for &(node, g, t_amb) in &self.conv_ties {
            q[node] += g * t_amb;
        }
        Ok(q)
    }

    /// Steady-state solve, warm-started from the model's last converged
    /// field when one is cached (repeated solves on the same model —
    /// sweeps, fixpoints — reuse it automatically). First solve falls
    /// back to the ambient guess. Use [`solve_steady_cold`] to force
    /// the ambient start.
    ///
    /// [`solve_steady_cold`]: ThermalModel::solve_steady_cold
    pub fn solve_steady(&self, power: &PowerAssignment) -> Result<Solution<'_>> {
        self.injected_divergence()?;
        let q = self.rhs(power)?;
        let mut ctx = self.take_solver();
        let guess = match ctx.warm_guess() {
            Some(w) => w.to_vec(),
            None => vec![self.mean_ambient(); self.n_nodes],
        };
        let solved = solve_cg_with(&self.matrix, &q, &guess, self.cg, &mut ctx);
        self.put_solver(ctx);
        let (t, iters) = solved?;
        Ok(Solution::new(self, t, iters))
    }

    /// Steady-state solve from the ambient guess, ignoring (but not
    /// discarding) any cached field — the benchmark's cold baseline.
    pub fn solve_steady_cold(&self, power: &PowerAssignment) -> Result<Solution<'_>> {
        let guess = vec![self.mean_ambient(); self.n_nodes];
        self.solve_steady_from(power, &guess)
    }

    /// Steady-state solve warm-started from an explicit `guess` (e.g.
    /// the previous frequency step of a sweep).
    pub fn solve_steady_from(
        &self,
        power: &PowerAssignment,
        guess: &[f64],
    ) -> Result<Solution<'_>> {
        self.injected_divergence()?;
        let q = self.rhs(power)?;
        let mut ctx = self.take_solver();
        let solved = solve_cg_with(&self.matrix, &q, guess, self.cg, &mut ctx);
        self.put_solver(ctx);
        let (t, iters) = solved?;
        Ok(Solution::new(self, t, iters))
    }

    /// Fault-injection hook at the entry of every steady solve: one
    /// disarmed probe per solve (never per CG iteration, so iteration
    /// counts and the bench baseline are untouched). An armed
    /// `Diverge` surfaces as the same [`ThermalError::SolverDiverged`]
    /// a genuine convergence failure produces.
    fn injected_divergence(&self) -> Result<()> {
        if immersion_faultsim::solve_fault(immersion_faultsim::site::THERMAL_CG) {
            return Err(ThermalError::SolverDiverged {
                iterations: 0,
                residual: f64::INFINITY,
            });
        }
        Ok(())
    }

    /// `(solves, total CG iterations)` recorded by the cached solver
    /// context since construction or the last [`reset_solver_state`].
    ///
    /// [`reset_solver_state`]: ThermalModel::reset_solver_state
    pub fn solver_stats(&self) -> (usize, usize) {
        let ctx = self.lock_solver();
        immersion_sanitizer::shared_read(
            "thermal::ThermalModel.solver",
            immersion_sanitizer::obj_id(self),
        );
        (ctx.solves(), ctx.total_iterations())
    }

    /// Drop the cached field so the next [`solve_steady`] cold-starts.
    /// Scratch vectors and the inverse diagonal are kept.
    ///
    /// [`solve_steady`]: ThermalModel::solve_steady
    pub fn reset_solver_state(&self) {
        self.lock_solver().forget_solution();
    }

    /// Move the cached context out of its slot so the solve runs
    /// without holding the lock. A concurrent caller finding the slot
    /// already taken gets a default context, which `solve_cg_with`
    /// transparently rebuilds — correct, just without the warm start.
    fn take_solver(&self) -> SolverContext {
        let mut slot = self.lock_solver();
        immersion_sanitizer::shared_write(
            "thermal::ThermalModel.solver",
            immersion_sanitizer::obj_id(self),
        );
        std::mem::take(&mut *slot)
    }

    /// Return the context after a solve. If another solve slipped in
    /// meanwhile, keep whichever context has seen more work.
    fn put_solver(&self, ctx: SolverContext) {
        let mut slot = self.lock_solver();
        immersion_sanitizer::shared_write(
            "thermal::ThermalModel.solver",
            immersion_sanitizer::obj_id(self),
        );
        if ctx.solves() >= slot.solves() {
            *slot = ctx;
        }
    }

    fn lock_solver(&self) -> TrackedMutexGuard<'_, SolverContext> {
        self.solver.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Mean ambient over the convective ties, used as the cold-start guess.
    pub fn mean_ambient(&self) -> f64 {
        if self.conv_ties.is_empty() {
            return 25.0;
        }
        self.conv_ties.iter().map(|&(_, _, a)| a).sum::<f64>() / self.conv_ties.len() as f64
    }

    /// Rasterised cells of `block` on power layer `pl`.
    pub(crate) fn block_cells(&self, pl: usize, block: &str) -> Option<&[(usize, f64)]> {
        let p = self.power_layers.get(pl)?;
        let b = p.block_names.iter().position(|n| n == block)?;
        Some(&p.raster[b])
    }
}

/// Overlap of two 1-D regular grids: returns `(cell_a, cell_b, overlap_len)`
/// for every pair of cells with positive overlap.
fn overlaps_1d(
    a_org: f64,
    a_len: f64,
    na: usize,
    b_org: f64,
    b_len: f64,
    nb: usize,
) -> Vec<(usize, usize, f64)> {
    let da = a_len / na as f64;
    let db = b_len / nb as f64;
    let mut out = Vec::new();
    for ia in 0..na {
        let a0 = a_org + ia as f64 * da;
        let a1 = a0 + da;
        // Candidate b-cells overlapping [a0, a1).
        let jb0 = (((a0 - b_org) / db).floor() as isize).max(0) as usize;
        if jb0 >= nb {
            continue;
        }
        for ib in jb0..nb {
            let b0 = b_org + ib as f64 * db;
            if b0 >= a1 {
                break;
            }
            let b1 = b0 + db;
            let len = a1.min(b1) - a0.max(b0);
            if len > 1e-15 {
                out.push((ia, ib, len));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::materials::{COPPER, SILICON};
    use immersion_units::{Celsius, HeatTransferCoeff};

    fn conv(layer: usize, surface: Surface, h: f64) -> Convection {
        Convection::simple(
            layer,
            surface,
            HeatTransferCoeff::new(h),
            Celsius::new(25.0),
        )
    }

    fn slab_model(nx: usize, ny: usize, h: f64) -> ThermalModel {
        // A single 10x10 mm silicon slab, 0.5 mm thick, convection on top.
        let mut fp = Floorplan::new(0.01, 0.01);
        fp.add_block("ALL", Rect::new(0.0, 0.0, 0.01, 0.01))
            .unwrap();
        let mut mb = ModelBuilder::new();
        let l = mb.add_layer(LayerSpec::new(
            "slab",
            SILICON,
            0.5e-3,
            Rect::new(0.0, 0.0, 0.01, 0.01),
            nx,
            ny,
        ));
        mb.add_convection(conv(l, Surface::Top, h));
        mb.add_power_floorplan(l, fp);
        mb.build().unwrap()
    }

    #[test]
    fn uniform_slab_matches_analytic() {
        let h = 800.0;
        let model = slab_model(8, 8, h);
        let mut p = model.zero_power();
        p.set(0, "ALL", 10.0).unwrap();
        let sol = model.solve_steady(&p).unwrap();
        // Analytic: T = T_amb + P/A * (t/(2k) + 1/h), uniform.
        let area = 1e-4;
        let expected = 25.0 + 10.0 / area * (0.5e-3 / (2.0 * 100.0) + 1.0 / h);
        assert!(
            (sol.max_temp() - expected).abs() < 1e-6,
            "max {} vs analytic {expected}",
            sol.max_temp()
        );
        assert!((sol.min_temp() - expected).abs() < 1e-6);
    }

    #[test]
    fn two_layer_sandwich_matches_analytic() {
        // Power in the bottom layer, convection on the top of the top layer.
        let ext = Rect::new(0.0, 0.0, 0.01, 0.01);
        let mut fp = Floorplan::new(0.01, 0.01);
        fp.add_block("ALL", Rect::new(0.0, 0.0, 0.01, 0.01))
            .unwrap();
        let mut mb = ModelBuilder::new();
        let bot = mb.add_layer(LayerSpec::new("bot", SILICON, 0.4e-3, ext, 4, 4));
        let top = mb.add_layer(LayerSpec::new("top", COPPER, 1.0e-3, ext, 4, 4));
        let h = 500.0;
        mb.add_convection(conv(top, Surface::Top, h));
        mb.add_power_floorplan(bot, fp);
        let model = mb.build().unwrap();
        let mut p = model.zero_power();
        p.set(0, "ALL", 20.0).unwrap();
        let sol = model.solve_steady(&p).unwrap();
        let area = 1e-4;
        let (t1, k1) = (0.4e-3, 100.0);
        let (t2, k2) = (1.0e-3, 400.0);
        // bottom node at mid-plane: half bottom + half top (interface) +
        // half top again (to surface) + film.
        let r = t1 / (2.0 * k1) + t2 / (2.0 * k2) + t2 / (2.0 * k2) + 1.0 / h;
        let expected_bot = 25.0 + 20.0 / area * r;
        let got = sol.layer_max(bot);
        assert!(
            (got - expected_bot).abs() / expected_bot < 1e-6,
            "bottom {got} vs analytic {expected_bot}"
        );
    }

    #[test]
    fn energy_is_conserved() {
        let model = slab_model(16, 16, 100.0);
        let mut p = model.zero_power();
        p.set(0, "ALL", 42.0).unwrap();
        let sol = model.solve_steady(&p).unwrap();
        let out: f64 = model
            .conv_ties()
            .iter()
            .map(|&(n, g, amb)| g * (sol.temps()[n] - amb))
            .sum();
        assert!((out - 42.0).abs() < 1e-6, "heat out {out} != 42 in");
    }

    #[test]
    fn hotspot_block_is_hotter_than_cold_block() {
        let ext = Rect::new(0.0, 0.0, 0.01, 0.01);
        let mut fp = Floorplan::new(0.01, 0.01);
        fp.add_block("HOT", Rect::new(0.0, 0.0, 0.005, 0.01))
            .unwrap();
        fp.add_block("COLD", Rect::new(0.005, 0.0, 0.005, 0.01))
            .unwrap();
        let mut mb = ModelBuilder::new();
        let l = mb.add_layer(LayerSpec::new("die", SILICON, 0.15e-3, ext, 16, 16));
        mb.add_convection(conv(l, Surface::Top, 800.0));
        mb.add_power_floorplan(l, fp);
        let model = mb.build().unwrap();
        let mut p = model.zero_power();
        p.set(0, "HOT", 30.0).unwrap();
        p.set(0, "COLD", 2.0).unwrap();
        let sol = model.solve_steady(&p).unwrap();
        assert!(sol.block_max(0, "HOT").unwrap() > sol.block_max(0, "COLD").unwrap());
    }

    #[test]
    fn higher_h_means_cooler() {
        let mut temps = Vec::new();
        for h in [14.0, 160.0, 800.0] {
            let model = slab_model(8, 8, h);
            let mut p = model.zero_power();
            p.set(0, "ALL", 10.0).unwrap();
            temps.push(model.solve_steady(&p).unwrap().max_temp());
        }
        assert!(temps[0] > temps[1] && temps[1] > temps[2], "{temps:?}");
    }

    #[test]
    fn different_extent_layers_couple_over_overlap_only() {
        // Small die on a big plate; the plate far from the die must stay
        // cooler than right under the die.
        let die_ext = Rect::new(0.02, 0.02, 0.01, 0.01);
        let plate_ext = Rect::new(0.0, 0.0, 0.05, 0.05);
        let mut fp = Floorplan::new(0.01, 0.01);
        fp.add_block("D", Rect::new(0.0, 0.0, 0.01, 0.01)).unwrap();
        let mut mb = ModelBuilder::new();
        let plate = mb.add_layer(LayerSpec::new("plate", COPPER, 2e-3, plate_ext, 20, 20));
        let die = mb.add_layer(LayerSpec::new("die", SILICON, 0.15e-3, die_ext, 8, 8));
        mb.add_convection(conv(plate, Surface::Bottom, 50.0));
        mb.add_power_floorplan(die, fp);
        let model = mb.build().unwrap();
        let mut p = model.zero_power();
        p.set(0, "D", 15.0).unwrap();
        let sol = model.solve_steady(&p).unwrap();
        let map = sol.layer_map(plate);
        // Centre cell (under die) vs corner cell.
        let centre = map[10 * 20 + 10];
        let corner = map[0];
        assert!(centre > corner + 0.5, "centre {centre} corner {corner}");
    }

    #[test]
    fn no_convection_is_rejected() {
        let mut mb = ModelBuilder::new();
        mb.add_layer(LayerSpec::new(
            "slab",
            SILICON,
            1e-3,
            Rect::new(0.0, 0.0, 0.01, 0.01),
            4,
            4,
        ));
        assert!(mb.build().is_err());
    }

    #[test]
    fn mismatched_floorplan_is_rejected() {
        let mut mb = ModelBuilder::new();
        let l = mb.add_layer(LayerSpec::new(
            "die",
            SILICON,
            1e-3,
            Rect::new(0.0, 0.0, 0.01, 0.01),
            4,
            4,
        ));
        mb.add_convection(conv(l, Surface::Top, 100.0));
        let fp = Floorplan::new(0.02, 0.02); // wrong size
        mb.add_power_floorplan(l, fp);
        assert!(mb.build().is_err());
    }

    #[test]
    fn overlaps_1d_identical_grids() {
        let o = overlaps_1d(0.0, 1.0, 4, 0.0, 1.0, 4);
        assert_eq!(o.len(), 4);
        for (i, (a, b, len)) in o.iter().enumerate() {
            assert_eq!(*a, i);
            assert_eq!(*b, i);
            assert!((len - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn overlaps_1d_total_length_is_intersection() {
        let o = overlaps_1d(0.0, 1.0, 7, 0.25, 1.0, 5);
        let total: f64 = o.iter().map(|&(_, _, l)| l).sum();
        assert!((total - 0.75).abs() < 1e-12, "total {total}");
    }

    #[test]
    fn overlaps_1d_disjoint() {
        let o = overlaps_1d(0.0, 1.0, 4, 2.0, 1.0, 4);
        assert!(o.is_empty());
    }

    #[test]
    fn matrix_is_symmetric() {
        let model = slab_model(6, 5, 200.0);
        assert!(model.matrix().is_symmetric(1e-12));
    }

    #[test]
    fn repeated_solves_warm_start_from_the_cached_field() {
        let model = slab_model(24, 24, 500.0);
        let mut p = model.zero_power();
        p.set(0, "ALL", 8.0).unwrap();
        let cold = model.solve_steady(&p).unwrap().iterations();
        let warm = model.solve_steady(&p).unwrap().iterations();
        assert!(warm <= 2, "second identical solve is free, got {warm}");
        assert!(cold > warm);
        let (solves, total) = model.solver_stats();
        assert_eq!(solves, 2);
        assert_eq!(total, cold + warm);
        model.reset_solver_state();
        let recold = model.solve_steady(&p).unwrap().iterations();
        assert_eq!(recold, cold, "reset restores the cold-start behaviour");
    }

    #[test]
    fn warm_and_cold_solves_agree() {
        let model = slab_model(16, 16, 300.0);
        let mut p = model.zero_power();
        p.set(0, "ALL", 5.0).unwrap();
        let first = model.solve_steady(&p).unwrap().into_temps();
        // Perturb the cached field with a different workload, then
        // re-solve the original one warm: same fixed point.
        let mut p2 = model.zero_power();
        p2.set(0, "ALL", 12.0).unwrap();
        model.solve_steady(&p2).unwrap();
        let warm = model.solve_steady(&p).unwrap().into_temps();
        let cold = model.solve_steady_cold(&p).unwrap().into_temps();
        for ((w, c), f) in warm.iter().zip(&cold).zip(&first) {
            assert!((w - c).abs() < 1e-6);
            assert!((w - f).abs() < 1e-6);
        }
    }
}
