//! Design points: everything that defines one thermal-aware CMP
//! configuration.

use immersion_power::chips::ChipModel;
use immersion_thermal::stack3d::{CoolingParams, MicrochannelParams, PackageParams, StackBuilder};
use immersion_thermal::{Result, ThermalModel};

/// One point of the design space: a chip model stacked `chips` high
/// under a cooling option.
#[derive(Debug, Clone)]
pub struct CmpDesign {
    /// The chip being stacked.
    pub chip: ChipModel,
    /// Stack height (1–15 in the paper).
    pub chips: usize,
    /// Cooling configuration.
    pub cooling: CoolingParams,
    /// Rotate every second chip by 180° (§4.2 "flip").
    pub flip: bool,
    /// Explicit per-die rotation pattern (overrides `flip` when set) —
    /// the knob the thermal-aware layout optimizer turns.
    pub rotations: Option<Vec<bool>>,
    /// Interlayer microchannel cooling (§5.1 comparison point).
    pub microchannels: Option<MicrochannelParams>,
    /// Die grid resolution for the thermal solve.
    pub grid: (usize, usize),
    /// Package/board geometry.
    pub package: PackageParams,
    /// Enable leakage–temperature feedback (extension; the paper pins
    /// leakage at the threshold temperature).
    pub leakage_feedback: bool,
    /// Override the chip's temperature threshold, °C.
    pub threshold_override: Option<f64>,
}

impl CmpDesign {
    /// A design with the paper's defaults: no flip, 16×16 die grid,
    /// default package, no leakage feedback, the chip's own threshold.
    pub fn new(chip: ChipModel, chips: usize, cooling: CoolingParams) -> Self {
        CmpDesign {
            chip,
            chips,
            cooling,
            flip: false,
            rotations: None,
            microchannels: None,
            grid: (16, 16),
            package: PackageParams::default(),
            leakage_feedback: false,
            threshold_override: None,
        }
    }

    /// The applicable temperature threshold, °C.
    pub fn threshold(&self) -> f64 {
        self.threshold_override
            .unwrap_or(self.chip.temp_threshold_c)
    }

    /// Builder-style: enable the §4.2 flip layout.
    pub fn with_flip(mut self, flip: bool) -> Self {
        self.flip = flip;
        self
    }

    /// Builder-style: set an explicit per-die rotation pattern.
    pub fn with_rotations(mut self, pattern: Vec<bool>) -> Self {
        self.rotations = Some(pattern);
        self
    }

    /// Builder-style: add interlayer microchannel cooling.
    pub fn with_microchannels(mut self, mc: MicrochannelParams) -> Self {
        self.microchannels = Some(mc);
        self
    }

    /// Builder-style: set the thermal grid resolution.
    pub fn with_grid(mut self, nx: usize, ny: usize) -> Self {
        self.grid = (nx, ny);
        self
    }

    /// Builder-style: override the package geometry.
    pub fn with_package(mut self, p: PackageParams) -> Self {
        self.package = p;
        self
    }

    /// Builder-style: enable leakage–temperature feedback.
    pub fn with_leakage_feedback(mut self, on: bool) -> Self {
        self.leakage_feedback = on;
        self
    }

    /// Builder-style: override the temperature threshold.
    pub fn with_threshold(mut self, t: f64) -> Self {
        self.threshold_override = Some(t);
        self
    }

    /// Assemble the thermal model for this design.
    pub fn thermal_model(&self) -> Result<ThermalModel> {
        let mut b = StackBuilder::new(self.chip.floorplan.clone())
            .chips(self.chips)
            .grid(self.grid.0, self.grid.1)
            .flip_even_layers(self.flip)
            .cooling(self.cooling)
            .package(self.package);
        if let Some(pat) = &self.rotations {
            b = b.rotations(pat.clone());
        }
        if let Some(mc) = self.microchannels {
            b = b.microchannels(mc);
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use immersion_power::chips::low_power_cmp;

    #[test]
    fn defaults_match_paper() {
        let d = CmpDesign::new(low_power_cmp(), 4, CoolingParams::water_immersion());
        assert!(!d.flip);
        assert!(!d.leakage_feedback);
        assert_eq!(d.threshold(), 80.0);
        assert_eq!(d.grid, (16, 16));
    }

    #[test]
    fn threshold_override() {
        let d = CmpDesign::new(low_power_cmp(), 1, CoolingParams::air()).with_threshold(70.0);
        assert_eq!(d.threshold(), 70.0);
    }

    #[test]
    fn model_builds_with_right_die_count() {
        let d = CmpDesign::new(low_power_cmp(), 3, CoolingParams::mineral_oil()).with_grid(8, 8);
        let m = d.thermal_model().unwrap();
        assert_eq!(m.n_power_layers(), 3);
    }
}
