//! Assembly of complete N-chip 3-D CMP thermal models.
//!
//! This is the reproduction of the paper's experimental setup (§3.2,
//! Table 2): a vertical stack of dies bonded by glue (with a TSV/TCI
//! metal fraction — see DESIGN.md §2 for the calibration note), sitting
//! on a package substrate and PCB, capped by TIM, a copper heat
//! spreader, and either a finned heatsink (air / immersion options) or a
//! closed-loop cold plate (the "water pipe" option).
//!
//! The key physical distinction between the cooling options is the
//! *dual-path* topology:
//!
//! * the **primary path** climbs from the top die through TIM, spreader
//!   and sink into the coolant;
//! * the **secondary path** descends from the bottom die through package
//!   and board — and only full immersion puts coolant (through the
//!   parylene film) on that side too. A closed-loop water pipe has an
//!   excellent primary path but leaves the board in air, which is what
//!   caps its scalability in Figures 7, 8 and 13.

use crate::floorplan::{Floorplan, Rect};
use crate::grid::{Convection, LayerPattern, LayerSpec, ModelBuilder, Surface, ThermalModel};
use crate::materials;
use crate::sparse::CgOptions;
use crate::{Result, ThermalError};
use immersion_units::{Celsius, HeatTransferCoeff};
use serde::{Deserialize, Serialize};

/// Heat-transfer coefficients used throughout the paper (§3.2).
pub mod htc {
    use immersion_units::HeatTransferCoeff;

    /// Forced air.
    pub const AIR: HeatTransferCoeff = HeatTransferCoeff::new(14.0);
    /// Mineral oil immersion.
    pub const MINERAL_OIL: HeatTransferCoeff = HeatTransferCoeff::new(160.0);
    /// Fluorinert immersion.
    pub const FLUORINERT: HeatTransferCoeff = HeatTransferCoeff::new(180.0);
    /// Water immersion.
    pub const WATER: HeatTransferCoeff = HeatTransferCoeff::new(800.0);
}

/// The primary (top-of-stack) cooling device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PrimaryCooling {
    /// Table 2's 12×12×3 cm finned heatsink; `h` is the coolant film
    /// coefficient on the fins, the 0.3024 m² fin area gives the
    /// area multiplier.
    Heatsink {
        /// Coolant heat-transfer coefficient on the fins.
        h: HeatTransferCoeff,
    },
    /// A typical closed-loop liquid CPU cooler: a 6×6 cm microchannel
    /// cold plate; `effective_h` folds the pumped loop and radiator into
    /// one film coefficient on the plate.
    ColdPlate {
        /// Loop-equivalent heat-transfer coefficient.
        effective_h: HeatTransferCoeff,
    },
}

/// A complete cooling configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoolingParams {
    /// Short name for reports ("water", "air", ...).
    pub name: &'static str,
    /// Device on top of the stack.
    pub primary: PrimaryCooling,
    /// Heat-transfer coefficient on the board underside (the secondary
    /// path): the coolant's `h` when the board is immersed, air's
    /// otherwise.
    pub board_h: HeatTransferCoeff,
    /// Parylene film thickness on immersed board surfaces, meters
    /// (`None` for uncoated boards — air, oil, fluorinert, pipe).
    pub film_thickness_m: Option<f64>,
    /// Coolant temperature (Table 2: 25 °C).
    pub ambient: Celsius,
}

impl CoolingParams {
    /// Forced-air cooling (h = 14 W/m²K on sink and board).
    pub fn air() -> Self {
        CoolingParams {
            name: "air",
            primary: PrimaryCooling::Heatsink { h: htc::AIR },
            board_h: htc::AIR,
            film_thickness_m: None,
            ambient: Celsius::new(25.0),
        }
    }

    /// Closed-loop water-pipe (cold plate) cooling; the board stays in air.
    pub fn water_pipe() -> Self {
        CoolingParams {
            name: "water-pipe",
            primary: PrimaryCooling::ColdPlate {
                effective_h: HeatTransferCoeff::new(2800.0),
            },
            board_h: htc::AIR,
            film_thickness_m: None,
            ambient: Celsius::new(25.0),
        }
    }

    /// Mineral-oil immersion (h = 160 W/m²K everywhere).
    pub fn mineral_oil() -> Self {
        CoolingParams {
            name: "mineral-oil",
            primary: PrimaryCooling::Heatsink {
                h: htc::MINERAL_OIL,
            },
            board_h: htc::MINERAL_OIL,
            film_thickness_m: None,
            ambient: Celsius::new(25.0),
        }
    }

    /// Fluorinert immersion (h = 180 W/m²K everywhere).
    pub fn fluorinert() -> Self {
        CoolingParams {
            name: "fluorinert",
            primary: PrimaryCooling::Heatsink { h: htc::FLUORINERT },
            board_h: htc::FLUORINERT,
            film_thickness_m: None,
            ambient: Celsius::new(25.0),
        }
    }

    /// Full water immersion through a 120 µm parylene film (the film on
    /// the heat-spreader surface is broken and replaced by TIM + sink,
    /// §2.1, so the primary path is film-free).
    pub fn water_immersion() -> Self {
        CoolingParams {
            name: "water",
            primary: PrimaryCooling::Heatsink { h: htc::WATER },
            board_h: htc::WATER,
            film_thickness_m: Some(120e-6),
            ambient: Celsius::new(25.0),
        }
    }

    /// Immersion in a custom coolant (for the §4.1 h sweep).
    pub fn custom_immersion(name: &'static str, h: HeatTransferCoeff) -> Self {
        CoolingParams {
            name,
            primary: PrimaryCooling::Heatsink { h },
            board_h: h,
            film_thickness_m: Some(120e-6),
            ambient: Celsius::new(25.0),
        }
    }

    /// The cooling keys the CLI and the HTTP API accept, for error
    /// messages.
    pub const KEYS: &'static str = "air|pipe|oil|fc|water";

    /// The option for a key or alias (`air`, `pipe|water-pipe`,
    /// `oil|mineral-oil`, `fc|fluorinert`, `water`), or `None` for an
    /// unknown key.
    pub fn by_key(key: &str) -> Option<CoolingParams> {
        match key {
            "air" => Some(Self::air()),
            "pipe" | "water-pipe" => Some(Self::water_pipe()),
            "oil" | "mineral-oil" => Some(Self::mineral_oil()),
            "fc" | "fluorinert" => Some(Self::fluorinert()),
            "water" => Some(Self::water_immersion()),
            _ => None,
        }
    }

    /// The five options of Figures 7/8/17, in the paper's order.
    pub fn paper_options() -> Vec<CoolingParams> {
        vec![
            Self::air(),
            Self::water_pipe(),
            Self::mineral_oil(),
            Self::fluorinert(),
            Self::water_immersion(),
        ]
    }
}

/// Package / board geometry shared by all configurations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PackageParams {
    /// Die thickness, m.
    pub die_thickness_m: f64,
    /// Inter-die bond thickness, m (Table 2: 20 µm).
    pub bond_thickness_m: f64,
    /// Vertical-metal (TSV/TCI) area fraction of the bond. See DESIGN.md.
    pub bond_metal_fraction: f64,
    /// TIM thickness between top die / spreader and spreader / sink, m.
    pub tim_thickness_m: f64,
    /// Heat spreader side, m (Table 2: 6 cm).
    pub spreader_side_m: f64,
    /// Heat spreader thickness, m (Table 2: 1 mm).
    pub spreader_thickness_m: f64,
    /// Heatsink side, m (Table 2: 12 cm).
    pub sink_side_m: f64,
    /// Heatsink thickness, m (Table 2: 3 cm).
    pub sink_thickness_m: f64,
    /// Total convective fin area of the sink, m² (Table 2: 0.3024 m²).
    pub sink_fin_area_m2: f64,
    /// Package substrate side and thickness, m.
    pub substrate_side_m: f64,
    /// Package substrate thickness, m.
    pub substrate_thickness_m: f64,
    /// Board side, m (mini-ITX-ish board).
    pub board_side_m: f64,
    /// Board thickness, m.
    pub board_thickness_m: f64,
    /// Cold-plate thickness when the pipe option replaces the sink, m.
    pub cold_plate_thickness_m: f64,
}

impl Default for PackageParams {
    fn default() -> Self {
        PackageParams {
            die_thickness_m: 0.15e-3,
            bond_thickness_m: 20e-6,
            bond_metal_fraction: 0.02,
            tim_thickness_m: 20e-6,
            spreader_side_m: 0.06,
            spreader_thickness_m: 1.0e-3,
            sink_side_m: 0.12,
            sink_thickness_m: 0.03,
            sink_fin_area_m2: 0.3024,
            substrate_side_m: 0.045,
            substrate_thickness_m: 1.0e-3,
            board_side_m: 0.17,
            board_thickness_m: 1.6e-3,
            cold_plate_thickness_m: 3.0e-3,
        }
    }
}

/// Placement of the bond's vertical metal (TSV/TCI) fill.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TsvPlacement {
    /// Metal spread uniformly across the bond (the calibrated default).
    Uniform,
    /// Thermal-TSV clustering: `fraction_under` metal beneath the named
    /// floorplan blocks, `fraction_elsewhere` under the rest — the
    /// placement question of the §5.1-cited 3-D-IC literature.
    UnderBlocks {
        /// Names of the floorplan blocks to cluster metal under.
        blocks: Vec<String>,
        /// Metal area fraction beneath those blocks.
        fraction_under: f64,
        /// Metal area fraction elsewhere.
        fraction_elsewhere: f64,
    },
}

/// Interlayer microchannel cooling (§5.1's related work, modelled for
/// comparison): each inter-die bond layer gains a convective tie to
/// pumped coolant flowing through etched channels.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MicrochannelParams {
    /// Convective coefficient inside the channels — forced single-phase
    /// water in 100 µm channels reaches 10⁴–10⁵ W/(m²·K).
    pub h: HeatTransferCoeff,
    /// Fraction of the bond area occupied by channels.
    pub coverage: f64,
    /// Coolant inlet temperature.
    pub inlet: Celsius,
}

impl Default for MicrochannelParams {
    fn default() -> Self {
        MicrochannelParams {
            h: HeatTransferCoeff::new(20_000.0),
            coverage: 0.4,
            inlet: Celsius::new(25.0),
        }
    }
}

/// Builder for an N-chip 3-D CMP thermal model.
pub struct StackBuilder {
    floorplan: Floorplan,
    chips: usize,
    grid_nx: usize,
    grid_ny: usize,
    flip_even: bool,
    rotations: Option<Vec<bool>>,
    microchannels: Option<MicrochannelParams>,
    tsv_placement: TsvPlacement,
    cooling: CoolingParams,
    package: PackageParams,
    cg: CgOptions,
}

/// Indices of the interesting layers of a built stack.
#[derive(Debug, Clone)]
pub struct StackLayout {
    /// Physical layer index of each die, bottom-up.
    pub die_layers: Vec<usize>,
    /// Physical layer index of the spreader.
    pub spreader_layer: usize,
    /// Physical layer index of the sink or cold plate.
    pub sink_layer: usize,
}

impl StackBuilder {
    /// Start building a stack of chips sharing `floorplan`.
    pub fn new(floorplan: Floorplan) -> Self {
        StackBuilder {
            floorplan,
            chips: 1,
            grid_nx: 16,
            grid_ny: 16,
            flip_even: false,
            rotations: None,
            microchannels: None,
            tsv_placement: TsvPlacement::Uniform,
            cooling: CoolingParams::air(),
            package: PackageParams::default(),
            cg: CgOptions::default(),
        }
    }

    /// Number of stacked chips (1..=15 in the paper).
    pub fn chips(mut self, n: usize) -> Self {
        self.chips = n;
        self
    }

    /// Die grid resolution (default 16×16).
    pub fn grid(mut self, nx: usize, ny: usize) -> Self {
        self.grid_nx = nx;
        self.grid_ny = ny;
        self
    }

    /// Rotate every second chip by 180° — the §4.2 "flip" layout.
    pub fn flip_even_layers(mut self, flip: bool) -> Self {
        self.flip_even = flip;
        self
    }

    /// Explicit per-die rotation pattern (`true` = rotated 180°),
    /// overriding [`StackBuilder::flip_even_layers`]. Used by the
    /// thermal-aware layout optimizer.
    pub fn rotations(mut self, pattern: Vec<bool>) -> Self {
        self.rotations = Some(pattern);
        self
    }

    /// Add interlayer microchannel cooling to every inter-die bond.
    pub fn microchannels(mut self, p: MicrochannelParams) -> Self {
        self.microchannels = Some(p);
        self
    }

    /// Choose where the bond's TSV/TCI metal sits.
    pub fn tsv_placement(mut self, t: TsvPlacement) -> Self {
        self.tsv_placement = t;
        self
    }

    /// Select the cooling configuration.
    pub fn cooling(mut self, c: CoolingParams) -> Self {
        self.cooling = c;
        self
    }

    /// Override package geometry.
    pub fn package(mut self, p: PackageParams) -> Self {
        self.package = p;
        self
    }

    /// Override solver options.
    pub fn cg_options(mut self, o: CgOptions) -> Self {
        self.cg = o;
        self
    }

    /// Assemble the thermal model.
    pub fn build(self) -> Result<ThermalModel> {
        Ok(self.build_with_layout()?.0)
    }

    /// Assemble the thermal model and return the layer layout too.
    pub fn build_with_layout(self) -> Result<(ThermalModel, StackLayout)> {
        if self.chips == 0 {
            return Err(ThermalError::BadParameter(
                "stack needs at least 1 chip".into(),
            ));
        }
        let p = &self.package;
        let die_w = self.floorplan.width();
        let die_h = self.floorplan.height();
        let cx = p.board_side_m / 2.0;
        let cy = p.board_side_m / 2.0;
        let centered = |w: f64, h: f64| Rect::new(cx - w / 2.0, cy - h / 2.0, w, h);
        let die_ext = centered(die_w, die_h);
        let bond_mat = materials::bond_material(p.bond_metal_fraction);

        let mut mb = ModelBuilder::new();
        mb.cg_options(self.cg);

        // Board and package substrate.
        let board = mb.add_layer(LayerSpec::new(
            "board",
            materials::PCB,
            p.board_thickness_m,
            Rect::new(0.0, 0.0, p.board_side_m, p.board_side_m),
            16,
            16,
        ));
        let _substrate = mb.add_layer(LayerSpec::new(
            "substrate",
            materials::PACKAGE_SUBSTRATE,
            p.substrate_thickness_m,
            centered(p.substrate_side_m, p.substrate_side_m),
            12,
            12,
        ));

        // The die stack with bonds (optionally microchannel-cooled).
        let mut die_layers = Vec::with_capacity(self.chips);
        for chip in 0..self.chips {
            if chip > 0 {
                let mut spec = LayerSpec::new(
                    &format!("bond-{chip}"),
                    bond_mat,
                    p.bond_thickness_m,
                    die_ext,
                    self.grid_nx,
                    self.grid_ny,
                );
                if let TsvPlacement::UnderBlocks {
                    blocks,
                    fraction_under,
                    fraction_elsewhere,
                } = &self.tsv_placement
                {
                    // Base bond carries the "elsewhere" fill; pattern
                    // blocks override beneath the chosen units. TSVs are
                    // a physical column: the pattern does not rotate
                    // with flipped dies.
                    spec.material = materials::bond_material(*fraction_elsewhere);
                    let mut pat_fp = Floorplan::new(die_w, die_h);
                    let mut mats = Vec::new();
                    for b in self.floorplan.blocks() {
                        if blocks.iter().any(|n| n == &b.name) {
                            pat_fp.add_block(&b.name, b.rect)?;
                            mats.push(materials::bond_material(*fraction_under));
                        }
                    }
                    spec = spec.with_pattern(LayerPattern {
                        floorplan: pat_fp,
                        materials: mats,
                    });
                }
                let bond = mb.add_layer(spec);
                if let Some(mc) = self.microchannels {
                    mb.add_convection(Convection {
                        layer: bond,
                        surface: Surface::Top,
                        h: mc.h,
                        area_multiplier: mc.coverage,
                        series_resistance_m2_k_per_w: 0.0,
                        ambient: mc.inlet,
                    });
                }
            }
            let li = mb.add_layer(LayerSpec::new(
                &format!("die-{chip}"),
                materials::SILICON,
                p.die_thickness_m,
                die_ext,
                self.grid_nx,
                self.grid_ny,
            ));
            die_layers.push(li);
        }

        // TIM, spreader.
        mb.add_layer(LayerSpec::new(
            "tim-die-spreader",
            materials::TIM,
            p.tim_thickness_m,
            die_ext,
            self.grid_nx,
            self.grid_ny,
        ));
        let spreader_layer = mb.add_layer(LayerSpec::new(
            "spreader",
            materials::COPPER,
            p.spreader_thickness_m,
            centered(p.spreader_side_m, p.spreader_side_m),
            12,
            12,
        ));

        // Primary cooling device.
        let sink_layer = match self.cooling.primary {
            PrimaryCooling::Heatsink { h } => {
                mb.add_layer(LayerSpec::new(
                    "tim-spreader-sink",
                    materials::TIM,
                    p.tim_thickness_m,
                    centered(p.spreader_side_m, p.spreader_side_m),
                    12,
                    12,
                ));
                let sink = mb.add_layer(LayerSpec::new(
                    "heatsink",
                    materials::COPPER,
                    p.sink_thickness_m,
                    centered(p.sink_side_m, p.sink_side_m),
                    12,
                    12,
                ));
                let base_area = p.sink_side_m * p.sink_side_m;
                mb.add_convection(Convection {
                    layer: sink,
                    surface: Surface::Top,
                    h,
                    area_multiplier: p.sink_fin_area_m2 / base_area,
                    series_resistance_m2_k_per_w: 0.0,
                    ambient: self.cooling.ambient,
                });
                sink
            }
            PrimaryCooling::ColdPlate { effective_h } => {
                mb.add_layer(LayerSpec::new(
                    "tim-spreader-plate",
                    materials::TIM,
                    p.tim_thickness_m,
                    centered(p.spreader_side_m, p.spreader_side_m),
                    12,
                    12,
                ));
                let plate = mb.add_layer(LayerSpec::new(
                    "cold-plate",
                    materials::COPPER,
                    p.cold_plate_thickness_m,
                    centered(p.spreader_side_m, p.spreader_side_m),
                    12,
                    12,
                ));
                mb.add_convection(Convection {
                    layer: plate,
                    surface: Surface::Top,
                    h: effective_h,
                    area_multiplier: 1.0,
                    series_resistance_m2_k_per_w: 0.0,
                    ambient: self.cooling.ambient,
                });
                plate
            }
        };

        // Secondary path: the board's underside faces the coolant (or air),
        // through the parylene film when coated. The multiplier of 2 folds
        // in the board's exposed top face.
        let film_r = self.cooling.film_thickness_m.map_or(0.0, |t| {
            materials::PARYLENE
                .conductivity
                .slab_resistance_m2_k_per_w(t)
        });
        mb.add_convection(Convection {
            layer: board,
            surface: Surface::Bottom,
            h: self.cooling.board_h,
            area_multiplier: 2.0,
            series_resistance_m2_k_per_w: film_r,
            ambient: self.cooling.ambient,
        });

        // Power floorplans: one per die; rotation from the explicit
        // pattern when given, else the §4.2 every-second-die flip.
        if let Some(pat) = &self.rotations {
            if pat.len() != self.chips {
                return Err(ThermalError::BadParameter(format!(
                    "rotation pattern has {} entries for {} chips",
                    pat.len(),
                    self.chips
                )));
            }
        }
        for (chip, &li) in die_layers.iter().enumerate() {
            let rotated = match &self.rotations {
                Some(pat) => pat[chip],
                None => self.flip_even && chip % 2 == 1,
            };
            let fp = if rotated {
                self.floorplan.rotate_180()
            } else {
                self.floorplan.clone()
            };
            mb.add_power_floorplan(li, fp);
        }

        let model = mb.build()?;
        Ok((
            model,
            StackLayout {
                die_layers,
                spreader_layer,
                sink_layer,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::baseline_16_tile;

    fn uniform_power(model: &ThermalModel, watts_per_chip: f64) -> crate::grid::PowerAssignment {
        // 16 equal-area blocks per chip in the baseline plan.
        let mut p = model.zero_power();
        p.fill_with(|_, _| watts_per_chip / 16.0);
        p
    }

    #[test]
    fn cooling_keys_and_aliases_resolve_to_their_constructors() {
        let cases = [
            ("air", CoolingParams::air()),
            ("pipe", CoolingParams::water_pipe()),
            ("water-pipe", CoolingParams::water_pipe()),
            ("oil", CoolingParams::mineral_oil()),
            ("mineral-oil", CoolingParams::mineral_oil()),
            ("fc", CoolingParams::fluorinert()),
            ("fluorinert", CoolingParams::fluorinert()),
            ("water", CoolingParams::water_immersion()),
        ];
        for (key, want) in cases {
            assert_eq!(CoolingParams::by_key(key), Some(want), "{key}");
        }
        for key in ["", "lava", "Water", "water "] {
            assert_eq!(CoolingParams::by_key(key), None, "{key:?}");
        }
    }

    #[test]
    fn single_chip_water_cooler_than_air() {
        let fp = baseline_16_tile();
        let mut temps = Vec::new();
        for cooling in [CoolingParams::air(), CoolingParams::water_immersion()] {
            let model = StackBuilder::new(fp.clone())
                .chips(1)
                .grid(8, 8)
                .cooling(cooling)
                .build()
                .unwrap();
            let p = uniform_power(&model, 47.2);
            temps.push(model.solve_steady(&p).unwrap().die_max());
        }
        assert!(
            temps[1] < temps[0],
            "water {} !< air {}",
            temps[1],
            temps[0]
        );
    }

    #[test]
    fn coolant_ordering_matches_paper() {
        // At a fixed 4-chip, fixed-power configuration the die temperature
        // must order air > oil > fluorinert > water (Figures 7/8).
        let fp = baseline_16_tile();
        let mut temps = Vec::new();
        for cooling in [
            CoolingParams::air(),
            CoolingParams::mineral_oil(),
            CoolingParams::fluorinert(),
            CoolingParams::water_immersion(),
        ] {
            let model = StackBuilder::new(fp.clone())
                .chips(4)
                .grid(8, 8)
                .cooling(cooling)
                .build()
                .unwrap();
            let p = uniform_power(&model, 20.0);
            temps.push(model.solve_steady(&p).unwrap().die_max());
        }
        assert!(temps[0] > temps[1], "air > oil: {temps:?}");
        assert!(temps[1] > temps[2], "oil > fluorinert: {temps:?}");
        assert!(temps[2] > temps[3], "fluorinert > water: {temps:?}");
    }

    #[test]
    fn more_chips_run_hotter() {
        let fp = baseline_16_tile();
        let mut prev = 0.0;
        for n in [1usize, 2, 4] {
            let model = StackBuilder::new(fp.clone())
                .chips(n)
                .grid(8, 8)
                .cooling(CoolingParams::water_immersion())
                .build()
                .unwrap();
            let p = uniform_power(&model, 30.0);
            let t = model.solve_steady(&p).unwrap().die_max();
            assert!(t > prev, "{n} chips: {t} !> {prev}");
            prev = t;
        }
    }

    #[test]
    fn bottom_die_hotter_than_top_die() {
        // The sink is on top: layer 1 (bottom) is hottest (Figure 9 text).
        let fp = baseline_16_tile();
        let (model, layout) = StackBuilder::new(fp)
            .chips(4)
            .grid(8, 8)
            .cooling(CoolingParams::water_immersion())
            .build_with_layout()
            .unwrap();
        let p = uniform_power(&model, 30.0);
        let sol = model.solve_steady(&p).unwrap();
        let bottom = sol.layer_max(layout.die_layers[0]);
        let top = sol.layer_max(*layout.die_layers.last().unwrap());
        assert!(bottom > top, "bottom {bottom} !> top {top}");
    }

    #[test]
    fn flip_reduces_peak_temperature() {
        // §4.2: rotating every second chip overlaps hot cores with cool L2.
        let fp = baseline_16_tile();
        let mut temps = Vec::new();
        for flip in [false, true] {
            let model = StackBuilder::new(fp.clone())
                .chips(4)
                .grid(16, 16)
                .flip_even_layers(flip)
                .cooling(CoolingParams::water_immersion())
                .build()
                .unwrap();
            let mut p = model.zero_power();
            // Core-heavy power split: cores 4x the density of L2.
            p.fill_with(|_, name| if name.starts_with("CORE") { 8.0 } else { 1.0 });
            temps.push(model.solve_steady(&p).unwrap().die_max());
        }
        assert!(
            temps[1] < temps[0],
            "flip {} !< no-flip {}",
            temps[1],
            temps[0]
        );
    }

    #[test]
    fn pipe_beats_air_but_immersion_scales_better() {
        // At one chip the cold plate is excellent; at a tall stack the
        // immersion's secondary path wins (the Figure 7/8 crossover).
        let fp = baseline_16_tile();
        let temp = |n: usize, c: CoolingParams| {
            let model = StackBuilder::new(fp.clone())
                .chips(n)
                .grid(8, 8)
                .cooling(c)
                .build()
                .unwrap();
            let p = uniform_power(&model, 25.0);
            model.solve_steady(&p).unwrap().die_max()
        };
        let pipe_1 = temp(1, CoolingParams::water_pipe());
        let air_1 = temp(1, CoolingParams::air());
        assert!(pipe_1 < air_1);
        let pipe_10 = temp(10, CoolingParams::water_pipe());
        let water_10 = temp(10, CoolingParams::water_immersion());
        assert!(water_10 < pipe_10, "water {water_10} !< pipe {pipe_10}");
    }

    #[test]
    fn microchannels_crush_the_stack_gradient() {
        // Interlayer microchannels cool every tier directly; a tall
        // stack that water immersion cannot hold at full power becomes
        // comfortable.
        let fp = baseline_16_tile();
        let temp = |mc: Option<MicrochannelParams>| {
            let mut b = StackBuilder::new(fp.clone())
                .chips(8)
                .grid(8, 8)
                .cooling(CoolingParams::water_immersion());
            if let Some(m) = mc {
                b = b.microchannels(m);
            }
            let model = b.build().unwrap();
            let p = uniform_power(&model, 40.0);
            model.solve_steady(&p).unwrap().die_max()
        };
        let plain = temp(None);
        let micro = temp(Some(MicrochannelParams::default()));
        assert!(
            micro < plain - 20.0,
            "microchannels {micro} C vs immersion {plain} C"
        );
    }

    #[test]
    fn clustered_tsvs_under_cores_beat_uniform_fill() {
        // Same average metal (cores are 4 of 16 equal tiles: 8% under
        // cores == 2% uniform): concentrating the fill beneath the hot
        // band must lower the peak.
        let fp = baseline_16_tile();
        let temp = |placement: TsvPlacement| {
            let model = StackBuilder::new(fp.clone())
                .chips(4)
                .grid(16, 16)
                .cooling(CoolingParams::water_immersion())
                .tsv_placement(placement)
                .build()
                .unwrap();
            let mut p = model.zero_power();
            // Core-heavy power, like the real chips.
            p.fill_with(|_, name| if name.starts_with("CORE") { 10.0 } else { 1.0 });
            model.solve_steady(&p).unwrap().die_max()
        };
        let uniform = temp(TsvPlacement::Uniform);
        let clustered = temp(TsvPlacement::UnderBlocks {
            blocks: (1..=4).map(|i| format!("CORE{i}")).collect(),
            fraction_under: 0.08,
            fraction_elsewhere: 0.0,
        });
        assert!(
            clustered < uniform,
            "clustered {clustered} C !< uniform {uniform} C"
        );
    }

    #[test]
    fn zero_chips_rejected() {
        let fp = baseline_16_tile();
        assert!(StackBuilder::new(fp).chips(0).build().is_err());
    }

    #[test]
    fn layout_indices_are_consistent() {
        let fp = baseline_16_tile();
        let (model, layout) = StackBuilder::new(fp)
            .chips(3)
            .grid(8, 8)
            .cooling(CoolingParams::air())
            .build_with_layout()
            .unwrap();
        assert_eq!(layout.die_layers.len(), 3);
        assert_eq!(model.n_power_layers(), 3);
        for (pl, &li) in layout.die_layers.iter().enumerate() {
            assert_eq!(model.power_layer_physical(pl), Some(li));
        }
        assert!(layout.sink_layer > layout.spreader_layer);
    }
}
