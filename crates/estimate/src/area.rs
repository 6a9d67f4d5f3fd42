//! Area and shape-function estimation over the strip layout model
//! (paper §4.4.2).
//!
//! Width of a k-strip layout: `X` is the maximum strip width under random
//! balanced-count placement, `Y` the best width found by examining
//! placements (here: LPT bin packing); the estimate is `(X+Y)/2`.
//! Height: transistor rows plus routing tracks, where the track count is
//! the estimated total horizontal wire length divided by a track
//! utilization constant that depends on the number of cells per strip.

use crate::delay::EstimateError;
use icdb_cells::{Library, TECH};
use icdb_logic::GateNetlist;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One aspect-ratio alternative of a component's shape function.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShapeAlternative {
    /// Number of layout strips.
    pub strips: usize,
    /// Estimated width (µm).
    pub width: f64,
    /// Estimated height (µm).
    pub height: f64,
}

impl ShapeAlternative {
    /// Bounding-box area (µm²).
    pub fn area(&self) -> f64 {
        self.width * self.height
    }

    /// Width/height aspect ratio.
    pub fn aspect_ratio(&self) -> f64 {
        self.width / self.height
    }
}

/// A component's shape function: the set of realizable aspect ratios
/// (paper Figs. 6 and 12).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ShapeFunction {
    /// Alternatives ordered by strip count (increasing height).
    pub alternatives: Vec<ShapeAlternative>,
}

impl ShapeFunction {
    /// The minimum-area alternative.
    pub fn best_area(&self) -> Option<&ShapeAlternative> {
        self.alternatives
            .iter()
            .min_by(|a, b| a.area().total_cmp(&b.area()))
    }

    /// The alternative whose aspect ratio is closest to `target`.
    pub fn closest_aspect(&self, target: f64) -> Option<&ShapeAlternative> {
        self.alternatives.iter().min_by(|a, b| {
            (a.aspect_ratio() - target)
                .abs()
                .total_cmp(&(b.aspect_ratio() - target).abs())
        })
    }

    /// Paper §3.3 rendering: `Alternative=1 width=… height=…` lines.
    pub fn to_alternative_format(&self) -> String {
        let mut s = String::new();
        for (i, a) in self.alternatives.iter().enumerate() {
            s.push_str(&format!(
                "Alternative={} width={:.0} height={:.0}\n",
                i + 1,
                a.width,
                a.height
            ));
        }
        s
    }

    /// Appendix-B instance-query rendering:
    /// `strip = 1 width = 12 height = 7 area = 84`.
    pub fn to_strip_format(&self) -> String {
        let mut s = String::new();
        for a in &self.alternatives {
            s.push_str(&format!(
                "strip = {} width = {:.0} height = {:.0} area = {:.0}\n",
                a.strips,
                a.width,
                a.height,
                a.area()
            ));
        }
        s
    }

    /// True when widths decrease and heights increase with strip count
    /// (the staircase property of a shape function).
    pub fn is_staircase(&self) -> bool {
        self.alternatives
            .windows(2)
            .all(|w| w[1].width <= w[0].width + 1e-9 && w[1].height >= w[0].height - 1e-9)
    }
}

impl fmt::Display for ShapeFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_alternative_format())
    }
}

/// Estimates the `(width, height)` of laying `nl` out in `strips` strips.
///
/// # Errors
/// Fails when the netlist has no placeable cells or `strips` is 0.
pub fn estimate_area(
    nl: &GateNetlist,
    lib: &Library,
    strips: usize,
) -> Result<ShapeAlternative, EstimateError> {
    if strips == 0 {
        return Err(EstimateError {
            message: "strip count must be at least 1".into(),
        });
    }
    let widths: Vec<f64> = nl
        .gates
        .iter()
        .map(|g| lib.cell(g.cell).width(g.size))
        .filter(|w| *w > 0.0)
        .collect();
    if widths.is_empty() {
        return Err(EstimateError {
            message: format!("netlist `{}` has no cells", nl.name),
        });
    }
    let n = widths.len();
    let strips = strips.min(n);

    // X: random balanced-count placement (paper: "placing the cells
    // randomly in each strip so that each strip has the same number of
    // cells"). Deterministic xorshift so estimates are reproducible.
    let mut rng = 0x2545F4914F6CDD1Du64 ^ (n as u64).wrapping_mul(0x9E37);
    let mut x_sum = 0.0;
    const X_TRIALS: usize = 4;
    for _ in 0..X_TRIALS {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let j = (rng % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let per = n.div_ceil(strips);
        let mut worst: f64 = 0.0;
        for chunk in order.chunks(per) {
            let w: f64 = chunk.iter().map(|&i| widths[i]).sum();
            worst = worst.max(w);
        }
        x_sum += worst;
    }
    let x = x_sum / X_TRIALS as f64;

    // Y: best placement found — LPT (longest processing time) bin packing.
    let mut sorted = widths.clone();
    sorted.sort_by(|a, b| b.total_cmp(a));
    let mut bins = vec![0.0f64; strips];
    for w in sorted {
        let (best, _) = bins
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .expect("strips >= 1");
        bins[best] += w;
    }
    let y = bins.iter().copied().fold(0.0, f64::max);

    let width = (x + y) / 2.0;

    // Height: transistor rows + routing tracks + shared supply rails.
    // A net joining its driver to k sinks needs k × 1.5 pitches of wire,
    // so the total is the gate input-pin count times 1.5 pitches —
    // counted as an integer, so the estimate cannot depend on the order
    // nets are visited in.
    let pitch = width * strips as f64 / n as f64;
    let sinks: usize = nl.gates.iter().map(|g| g.inputs.len()).sum();
    let mut total_wire = sinks as f64 * pitch * 1.5;
    // Ports add wiring to the boundary.
    total_wire += (nl.inputs.len() + nl.outputs.len()) as f64 * pitch;

    let cells_per_strip = n as f64 / strips as f64;
    let util = track_utilization(cells_per_strip);
    let total_tracks = (total_wire / (width.max(1.0) * util)).ceil();
    let tracks_per_strip = (total_tracks / strips as f64).ceil();

    let height = strips as f64 * (TECH.transistor_height + tracks_per_strip * TECH.track_pitch)
        + (strips + 1) as f64 * TECH.rail_height;

    Ok(ShapeAlternative {
        strips,
        width,
        height,
    })
}

/// Track utilization constant as a function of cells per strip (obtained
/// "from experiments on ICDB's layout tool" in the paper; here a saturating
/// synthetic curve with the same monotone character).
pub fn track_utilization(cells_per_strip: f64) -> f64 {
    0.55 + 0.35 * cells_per_strip / (cells_per_strip + 20.0)
}

/// Estimates the full shape function by sweeping the strip count.
///
/// # Errors
/// Fails when the netlist has no placeable cells.
pub fn estimate_shape(
    nl: &GateNetlist,
    lib: &Library,
    max_strips: usize,
) -> Result<ShapeFunction, EstimateError> {
    let n = nl
        .gates
        .iter()
        .filter(|g| lib.cell(g.cell).geometry.width > 0.0)
        .count();
    if n == 0 {
        return Err(EstimateError {
            message: format!("netlist `{}` has no cells", nl.name),
        });
    }
    let upper = max_strips.max(1).min(n);
    let mut alternatives = Vec::new();
    for k in 1..=upper {
        let alt = estimate_area(nl, lib, k)?;
        alternatives.push(alt);
    }
    // Enforce the staircase property: drop alternatives dominated by a
    // previous one (wider AND taller).
    let mut filtered: Vec<ShapeAlternative> = Vec::new();
    for alt in alternatives {
        if let Some(prev) = filtered.last() {
            if alt.width >= prev.width && alt.height >= prev.height {
                continue;
            }
        }
        filtered.push(alt);
    }
    Ok(ShapeFunction {
        alternatives: filtered,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use icdb_logic::synthesize;

    fn netlist(src: &str, params: &[(&str, i64)]) -> (GateNetlist, Library) {
        let lib = Library::standard();
        let m = icdb_iif::parse(src).unwrap();
        let flat = icdb_iif::expand(&m, params, &icdb_iif::NoModules).unwrap();
        let nl = synthesize(&flat, &lib, &Default::default()).unwrap();
        (nl, lib)
    }

    const ADDER: &str = "
NAME: ADDER;
PARAMETER: size;
INORDER: I0[size], I1[size], Cin;
OUTORDER: O[size], Cout;
PIIFVARIABLE: C[size+1];
VARIABLE: i;
{
  C[0] = Cin;
  #for(i=0; i<size; i++)
  {
    O[i] = I0[i] (+) I1[i] (+) C[i];
    C[i+1] = I0[i]*I1[i] + I0[i]*C[i] + I1[i]*C[i];
  }
  Cout = C[size];
}";

    #[test]
    fn more_strips_means_narrower_and_taller() {
        let (nl, lib) = netlist(ADDER, &[("size", 8)]);
        let one = estimate_area(&nl, &lib, 1).unwrap();
        let four = estimate_area(&nl, &lib, 4).unwrap();
        assert!(four.width < one.width);
        assert!(four.height > one.height);
    }

    #[test]
    fn shape_function_is_staircase() {
        let (nl, lib) = netlist(ADDER, &[("size", 8)]);
        let sf = estimate_shape(&nl, &lib, 8).unwrap();
        assert!(sf.alternatives.len() >= 3);
        assert!(sf.is_staircase(), "{sf:?}");
    }

    #[test]
    fn bigger_design_has_bigger_area() {
        let lib = Library::standard();
        let mut areas = Vec::new();
        for size in [4i64, 8, 16] {
            let m = icdb_iif::parse(ADDER).unwrap();
            let flat = icdb_iif::expand(&m, &[("size", size)], &icdb_iif::NoModules).unwrap();
            let nl = synthesize(&flat, &lib, &Default::default()).unwrap();
            let best = estimate_shape(&nl, &lib, 6)
                .unwrap()
                .best_area()
                .unwrap()
                .area();
            areas.push(best);
        }
        assert!(areas[0] < areas[1] && areas[1] < areas[2], "{areas:?}");
    }

    #[test]
    fn closest_aspect_selects_sensibly() {
        let (nl, lib) = netlist(ADDER, &[("size", 8)]);
        let sf = estimate_shape(&nl, &lib, 8).unwrap();
        let square = sf.closest_aspect(1.0).unwrap();
        let flat_alt = sf.closest_aspect(100.0).unwrap();
        assert!(flat_alt.aspect_ratio() >= square.aspect_ratio());
    }

    #[test]
    fn formats_match_paper() {
        let (nl, lib) = netlist(ADDER, &[("size", 4)]);
        let sf = estimate_shape(&nl, &lib, 3).unwrap();
        let alt = sf.to_alternative_format();
        assert!(alt.starts_with("Alternative=1 width="), "{alt}");
        let strip = sf.to_strip_format();
        assert!(strip.contains("strip = 1 width = "), "{strip}");
        assert!(strip.contains("area = "), "{strip}");
    }

    #[test]
    fn utilization_is_monotone_and_bounded() {
        let mut prev = 0.0;
        for c in [1.0, 5.0, 20.0, 100.0] {
            let u = track_utilization(c);
            assert!(u > prev && u < 1.0);
            prev = u;
        }
    }

    #[test]
    fn zero_strips_is_an_error() {
        let (nl, lib) = netlist(ADDER, &[("size", 4)]);
        assert!(estimate_area(&nl, &lib, 0).is_err());
    }

    #[test]
    fn estimates_are_deterministic() {
        let (nl, lib) = netlist(ADDER, &[("size", 8)]);
        let a = estimate_area(&nl, &lib, 3).unwrap();
        let b = estimate_area(&nl, &lib, 3).unwrap();
        assert_eq!(a, b);
    }
}
