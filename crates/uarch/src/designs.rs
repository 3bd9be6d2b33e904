//! Design-point composition: Tables III and IV of the paper.

use crate::components;
use crate::model::AreaPower;

/// A named cost row, as printed in the paper's tables.
#[derive(Debug, Clone, PartialEq)]
pub struct CostRow {
    /// Component or design-point name.
    pub name: String,
    /// Its cost.
    pub cost: AreaPower,
}

/// A cost breakdown (a whole table column).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CostBreakdown {
    /// The rows, in presentation order.
    pub rows: Vec<CostRow>,
}

impl CostBreakdown {
    /// Appends a row.
    pub fn push(&mut self, name: &str, cost: AreaPower) {
        self.rows.push(CostRow {
            name: name.to_owned(),
            cost,
        });
    }

    /// Sum of all rows.
    pub fn total(&self) -> AreaPower {
        self.rows.iter().map(|r| r.cost).sum()
    }
}

/// Table III: the new RSU-G's area/power by component.
///
/// # Example
///
/// ```
/// use uarch::designs::table3_new_rsu;
///
/// let t = table3_new_rsu();
/// let total = t.total();
/// assert!((total.area_um2 - 2903.0).abs() < 1.0);
/// assert!((total.power_mw - 4.99).abs() < 0.02);
/// ```
pub fn table3_new_rsu() -> CostBreakdown {
    let mut t = CostBreakdown::default();
    t.push("RET Circuit", components::ret_circuit_new());
    t.push("CMOS Circuitry", cmos_new());
    t.push("LUT", components::sram_macro(components::LABEL_LUT_BITS));
    t
}

/// The new design's CMOS circuitry (Table III row): multi-distance
/// energy calculation, the energy FIFO with min registers, the
/// comparison-based conversion, and selection.
pub fn cmos_new() -> AreaPower {
    components::energy_calc(true)
        + components::energy_fifo()
        + components::conversion_comparison()
        + components::selection()
}

/// The previous RSU-G's total cost (§II-C: 0.0029 mm², 3.91 mW at
/// 15 nm), composed from its parts: intensity-controlled RET circuit,
/// squared-only energy calculation, λ-LUT conversion, selection and the
/// intensity-control machinery.
pub fn previous_rsu_total() -> AreaPower {
    components::ret_circuit_previous()
        + components::energy_calc(false)
        + components::conversion_lut()
        + components::selection()
        + components::previous_control()
}

/// The new RSU-G's total cost.
pub fn new_rsu_total() -> AreaPower {
    table3_new_rsu().total()
}

/// Table IV variants of the RSU-G, by light-source sharing degree.
///
/// * `share = 1` — every RSU-G carries its own 8-QDLED light-source set
///   (the conservative Table III assumption).
/// * `share = n` — `n` RSU-Gs amortise one light-source set.
pub fn rsug_shared(share: u32) -> AreaPower {
    assert!(share >= 1, "share factor must be at least 1");
    let light = components::light_source_set();
    new_rsu_total() + light * (1.0 / share as f64 - 1.0)
}

/// Table IV "RSUG_optimistic": light source fully amortised across many
/// units *and* CMOS placed underneath the waveguides, reclaiming the
/// overlap (calibrated to the published 1867 µm²).
pub fn rsug_optimistic() -> AreaPower {
    let base = new_rsu_total() + components::light_source_set() * -1.0;
    AreaPower::new(base.area_um2 - 236.0, base.power_mw)
}

/// A pure-CMOS sampling unit built around a 19-bit LFSR (Table IV):
/// the RSU-G's CMOS front-end and label LUT, plus the CDF lookup table
/// the RNG needs for parameterised sampling, plus the LFSR itself.
pub fn lfsr_design(bits: u32) -> AreaPower {
    cmos_new()
        + components::sram_macro(components::LABEL_LUT_BITS)
        + components::cdf_lut()
        + components::lfsr_cells(bits)
}

/// An mt19937-based sampling unit with the RNG shared by `share` units
/// (Table IV: no-share, 4-share, 208-share).
pub fn mt19937_design(share: u32) -> AreaPower {
    assert!(share >= 1, "share factor must be at least 1");
    cmos_new()
        + components::sram_macro(components::LABEL_LUT_BITS)
        + components::cdf_lut()
        + components::rng_interface()
        + components::mt19937_core() / share as f64
}

/// Table IV, fully enumerated.
pub fn table4() -> CostBreakdown {
    let mut t = CostBreakdown::default();
    t.push("RSUG_noshare", rsug_shared(1));
    t.push("RSUG_4share", rsug_shared(4));
    t.push("RSUG_optimistic", rsug_optimistic());
    t.push("Intel DRNG (part)", components::intel_drng_part());
    t.push("19-bit LFSR", lfsr_design(19));
    t.push("mt19937_noshare", mt19937_design(1));
    t.push("mt19937_4share", mt19937_design(4));
    t.push("mt19937_208share", mt19937_design(208));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn area_of(t: &CostBreakdown, name: &str) -> f64 {
        t.rows
            .iter()
            .find(|r| r.name == name)
            .expect("row exists")
            .cost
            .area_um2
    }

    #[test]
    fn table3_matches_paper_rows() {
        let t = table3_new_rsu();
        assert!((area_of(&t, "RET Circuit") - 1120.0).abs() < 1.0);
        assert!((area_of(&t, "CMOS Circuitry") - 1128.0).abs() < 1.0);
        assert!((area_of(&t, "LUT") - 655.0).abs() < 1.0);
        let total = t.total();
        assert!(
            (total.area_um2 - 2903.0).abs() < 2.0,
            "total area {}",
            total.area_um2
        );
        assert!(
            (total.power_mw - 4.99).abs() < 0.02,
            "total power {}",
            total.power_mw
        );
    }

    #[test]
    fn headline_ratios_vs_previous_design() {
        let new = new_rsu_total();
        let prev = previous_rsu_total();
        // §II-C: previous design 0.0029 mm², 3.91 mW.
        assert!(
            (prev.area_um2 - 2900.0).abs() < 15.0,
            "prev area {}",
            prev.area_um2
        );
        assert!(
            (prev.power_mw - 3.91).abs() < 0.05,
            "prev power {}",
            prev.power_mw
        );
        // Abstract: "1.27× power and equivalent area".
        assert!((new.power_mw / prev.power_mw - 1.27).abs() < 0.03);
        assert!((new.area_um2 / prev.area_um2 - 1.0).abs() < 0.01);
    }

    #[test]
    fn table4_matches_paper_values() {
        let t = table4();
        let expect = [
            ("RSUG_noshare", 2903.0),
            ("RSUG_4share", 2303.0),
            ("RSUG_optimistic", 1867.0),
            ("Intel DRNG (part)", 3721.0),
            ("19-bit LFSR", 2186.0),
            ("mt19937_noshare", 19_269.0),
            ("mt19937_4share", 6507.0),
            ("mt19937_208share", 2336.0),
        ];
        for (name, area) in expect {
            let got = area_of(&t, name);
            assert!(
                (got - area).abs() / area < 0.01,
                "{name}: modelled {got} vs published {area}"
            );
        }
    }

    #[test]
    fn sharing_is_monotone_and_bounded() {
        let mut prev = f64::INFINITY;
        for share in [1u32, 2, 4, 8, 64] {
            let a = rsug_shared(share).area_um2;
            assert!(a < prev, "sharing must reduce area");
            prev = a;
        }
        // Never below the fully amortised optimistic point.
        assert!(rsug_shared(1_000_000).area_um2 > rsug_optimistic().area_um2);
    }

    #[test]
    fn rsug_is_competitive_with_lfsr_and_beats_mt_noshare() {
        // The paper's conclusion: "RSU-G can provide true-RNG using area
        // comparable to LFSR designs".
        let rsug = rsug_shared(1).area_um2;
        let lfsr = lfsr_design(19).area_um2;
        let mt = mt19937_design(1).area_um2;
        assert!(rsug < mt / 6.0, "RSU-G far smaller than unshared mt19937");
        assert!(
            (rsug / lfsr - 1.0).abs() < 0.5,
            "RSU-G within ~1.5x of the LFSR design"
        );
    }

    #[test]
    #[should_panic(expected = "share factor")]
    fn zero_share_rejected() {
        rsug_shared(0);
    }
}
