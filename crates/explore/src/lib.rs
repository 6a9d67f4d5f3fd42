//! # icdb-explore — design-space exploration and Pareto-front selection
//!
//! The paper's ICDB is *intelligent* because it does not just generate the
//! one component a caller names — it selects among alternative
//! implementations and sizings under area/delay constraints (§1, §3.2.2's
//! `strategy:` term). This crate is the policy layer of that selection: it
//! takes the `(area, delay, power)` points an exploration sweep produced,
//! computes the exact Pareto-optimal front, and picks a winner under a
//! caller [`Objective`] — "min area such that delay ≤ D", "min delay such
//! that area ≤ A", or a weighted score.
//!
//! The layer is deliberately pure (no dependency on the component server):
//! `icdb-core` drives the sweep itself — resolving candidate
//! implementations from the knowledge base and evaluating the points on
//! scoped worker threads through the generation cache, each distinct
//! netlist once and then each point's sizing —
//! and feeds each evaluated candidate into an [`Explorer`], which returns
//! the finished [`ExplorationReport`].
//!
//! Everything here is deterministic: points are canonically ordered by
//! `(implementation, parameters, strategy)` before the front is computed,
//! so a parallel sweep produces a report byte-identical to a sequential
//! one, and shuffling the insertion order never changes the front.
//!
//! ```
//! use icdb_explore::{DesignPoint, Explorer, Objective};
//!
//! let mut ex = Explorer::new(Objective::MinAreaUnderDelay(10.0));
//! for (name, area, delay) in [("BIG", 9.0, 4.0), ("FAST", 6.0, 8.0), ("SLOW", 5.0, 30.0)] {
//!     ex.add_point(DesignPoint {
//!         implementation: name.to_string(),
//!         area,
//!         delay,
//!         ..DesignPoint::default()
//!     });
//! }
//! let report = ex.finish();
//! // SLOW misses the 10ns bound; FAST is the cheapest point meeting it.
//! assert_eq!(report.winner_point().unwrap().implementation, "FAST");
//! assert_eq!(report.front.len(), 3); // no point dominates another
//! ```

#![deny(rustdoc::broken_intra_doc_links)]

use std::fmt;

/// One evaluated candidate of an exploration sweep: the identity of the
/// design (implementation, bound parameters, sizing strategy) and its
/// estimated metrics. Lower is better for every metric.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DesignPoint {
    /// Implementation the point was generated from (`COUNTER`).
    pub implementation: String,
    /// Parameter values the implementation was expanded with, in canonical
    /// (sorted) order.
    pub params: Vec<(String, i64)>,
    /// Sizing strategy the point was sized under (`cheapest`, `fastest`).
    pub strategy: String,
    /// Minimum-area estimate over the shape function (µm²).
    pub area: f64,
    /// Delay metric: minimum clock width for sequential designs, worst
    /// input→output delay for combinational ones (ns).
    pub delay: f64,
    /// Dynamic power estimate (µW).
    pub power: f64,
    /// Gate count of the mapped netlist.
    pub gates: usize,
    /// Whether the request's sizing constraints were met.
    pub met: bool,
}

impl DesignPoint {
    /// The canonical identity the report sorts by. (The explorer itself
    /// keeps duplicates — deduplicating grid axes is the sweep driver's
    /// job, since only it knows two points are the *same* evaluation.)
    pub fn key(&self) -> (&str, &[(String, i64)], &str) {
        (&self.implementation, &self.params, &self.strategy)
    }

    /// Short one-line label (`COUNTER size=5 type=2 · cheapest`).
    pub fn label(&self) -> String {
        let mut out = self.implementation.clone();
        for (k, v) in &self.params {
            out.push_str(&format!(" {k}={v}"));
        }
        out.push_str(&format!(" · {}", self.strategy));
        out
    }
}

/// What "best" means for the winner selection. Every objective minimizes;
/// ties are broken by canonical point order, so selection is
/// deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Objective {
    /// Minimum area among points with `delay ≤ bound` (ns) — "the best
    /// counter under 40ns".
    MinAreaUnderDelay(f64),
    /// Minimum delay among points with `area ≤ bound` (µm²).
    MinDelayUnderArea(f64),
    /// Minimize `area·w_a + delay·w_d + power·w_p`. Weights are expected
    /// to be non-negative: the winner is selected among the Pareto front,
    /// which attains the global minimum for any non-negative weighting
    /// (dominated points can never score strictly lower), but not for a
    /// negative one.
    Weighted {
        /// Weight on area (µm²).
        area: f64,
        /// Weight on delay (ns).
        delay: f64,
        /// Weight on power (µW).
        power: f64,
    },
}

impl Default for Objective {
    /// Equal weight on area and delay, ignoring power.
    fn default() -> Objective {
        Objective::Weighted {
            area: 1.0,
            delay: 1.0,
            power: 0.0,
        }
    }
}

impl fmt::Display for Objective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Objective::MinAreaUnderDelay(d) => write!(f, "min area s.t. delay <= {d}"),
            Objective::MinDelayUnderArea(a) => write!(f, "min delay s.t. area <= {a}"),
            Objective::Weighted { area, delay, power } => {
                write!(f, "min {area}*area + {delay}*delay + {power}*power")
            }
        }
    }
}

/// Whether `a` dominates `b`: no worse in every metric and strictly
/// better in at least one. (Exact, no epsilon — the sweep is
/// deterministic, so equal metrics really are equal.)
pub fn dominates(a: &DesignPoint, b: &DesignPoint) -> bool {
    let no_worse = a.area <= b.area && a.delay <= b.delay && a.power <= b.power;
    let better = a.area < b.area || a.delay < b.delay || a.power < b.power;
    no_worse && better
}

/// Indices (ascending) of the Pareto-optimal points: exactly those not
/// dominated by any other point. Duplicated metric triples all stay on
/// the front (none strictly beats the other).
pub fn pareto_front(points: &[DesignPoint]) -> Vec<usize> {
    (0..points.len())
        .filter(|&i| !points.iter().any(|q| dominates(q, &points[i])))
        .collect()
}

/// Picks the winning index among `candidates` (typically the front) under
/// `objective`. Constrained objectives return `None` when no candidate is
/// feasible. Ties go to the earliest candidate, so selection over
/// canonically sorted points is deterministic.
pub fn select(
    points: &[DesignPoint],
    candidates: &[usize],
    objective: &Objective,
) -> Option<usize> {
    let score = |i: usize| -> Option<f64> {
        let p = &points[i];
        match objective {
            Objective::MinAreaUnderDelay(bound) => (p.delay <= *bound).then_some(p.area),
            Objective::MinDelayUnderArea(bound) => (p.area <= *bound).then_some(p.delay),
            Objective::Weighted { area, delay, power } => {
                Some(p.area * area + p.delay * delay + p.power * power)
            }
        }
    };
    let mut best: Option<(usize, f64)> = None;
    for &i in candidates {
        let Some(s) = score(i) else { continue };
        // total_cmp, not `<`: a NaN score (e.g. from NaN weights) sorts
        // *after* every finite score instead of poisoning the fold.
        if best.is_none_or(|(_, bs)| s.total_cmp(&bs) == std::cmp::Ordering::Less) {
            best = Some((i, s));
        }
    }
    best.map(|(i, _)| i)
}

/// Collects evaluated design points and finishes them into an
/// [`ExplorationReport`]. Insertion order is irrelevant: `finish`
/// canonically sorts before computing the front and the winner.
#[derive(Debug, Clone, Default)]
pub struct Explorer {
    objective: Objective,
    points: Vec<DesignPoint>,
}

impl Explorer {
    /// An explorer selecting under `objective`.
    pub fn new(objective: Objective) -> Explorer {
        Explorer {
            objective,
            points: Vec::new(),
        }
    }

    /// Adds one evaluated candidate.
    pub fn add_point(&mut self, point: DesignPoint) {
        self.points.push(point);
    }

    /// Number of points collected so far.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether no point has been collected yet.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Sorts the points canonically, computes the exact Pareto front and
    /// selects the winner.
    pub fn finish(mut self) -> ExplorationReport {
        // The comparator must cover every field that affects the report
        // (metrics included), or the documented insertion-order
        // invariance would break for same-identity points that differ
        // only in a later field.
        self.points.sort_by(|a, b| {
            a.key()
                .cmp(&b.key())
                .then_with(|| a.area.total_cmp(&b.area))
                .then_with(|| a.delay.total_cmp(&b.delay))
                .then_with(|| a.power.total_cmp(&b.power))
                .then_with(|| a.gates.cmp(&b.gates))
                .then_with(|| a.met.cmp(&b.met))
        });
        let front = pareto_front(&self.points);
        let winner = select(&self.points, &front, &self.objective);
        ExplorationReport {
            objective: self.objective,
            points: self.points,
            front,
            winner,
        }
    }
}

/// The first-class result of one exploration sweep: every evaluated point
/// in canonical order, the Pareto-front indices, and the winner under the
/// sweep's objective.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplorationReport {
    /// The selection objective the sweep ran under.
    pub objective: Objective,
    /// Every evaluated point, canonically ordered.
    pub points: Vec<DesignPoint>,
    /// Indices into `points` of the Pareto-optimal set, ascending.
    pub front: Vec<usize>,
    /// Index of the selected winner, if any candidate is feasible.
    pub winner: Option<usize>,
}

impl ExplorationReport {
    /// The Pareto-optimal points, in canonical order.
    pub fn front_points(&self) -> impl Iterator<Item = &DesignPoint> {
        self.front.iter().map(|&i| &self.points[i])
    }

    /// The winning point, if any.
    pub fn winner_point(&self) -> Option<&DesignPoint> {
        self.winner.map(|i| &self.points[i])
    }

    /// Whether the point at `index` is on the front.
    pub fn on_front(&self, index: usize) -> bool {
        self.front.binary_search(&index).is_ok()
    }

    /// One formatted row per front point (`label area=… delay=… power=…`),
    /// the `front:?s[]` answer of the CQL `explore` command.
    pub fn front_lines(&self) -> Vec<String> {
        self.front_points()
            .map(|p| {
                format!(
                    "{} area={:.1} delay={:.2} power={:.1}",
                    p.label(),
                    p.area,
                    p.delay,
                    p.power
                )
            })
            .collect()
    }

    /// The full report as a deterministic text table: one row per point,
    /// `*` marking front membership, `>` marking the winner.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("objective: {}\n", self.objective));
        out.push_str(&format!(
            "{:<2} {:<36} {:>10} {:>8} {:>8} {:>6} {:>4}\n",
            "", "candidate", "area", "delay", "power", "gates", "met"
        ));
        for (i, p) in self.points.iter().enumerate() {
            let mark = match (self.winner == Some(i), self.on_front(i)) {
                (true, _) => ">*",
                (false, true) => " *",
                (false, false) => "  ",
            };
            out.push_str(&format!(
                "{:<2} {:<36} {:>10.1} {:>8.2} {:>8.1} {:>6} {:>4}\n",
                mark,
                p.label(),
                p.area,
                p.delay,
                p.power,
                p.gates,
                if p.met { "yes" } else { "no" }
            ));
        }
        out.push_str(&format!(
            "{} points, {} on the Pareto front\n",
            self.points.len(),
            self.front.len()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(name: &str, area: f64, delay: f64, power: f64) -> DesignPoint {
        DesignPoint {
            implementation: name.to_string(),
            strategy: "cheapest".to_string(),
            area,
            delay,
            power,
            gates: 1,
            met: true,
            ..DesignPoint::default()
        }
    }

    #[test]
    fn dominance_is_strict_somewhere() {
        let a = pt("A", 1.0, 1.0, 1.0);
        let b = pt("B", 2.0, 1.0, 1.0);
        assert!(dominates(&a, &b));
        assert!(!dominates(&b, &a));
        // Equal triples do not dominate each other.
        assert!(!dominates(&a, &a));
        // Trade-off points (better in one, worse in another) never dominate.
        let c = pt("C", 0.5, 3.0, 1.0);
        assert!(!dominates(&a, &c));
        assert!(!dominates(&c, &a));
    }

    #[test]
    fn front_is_exactly_the_undominated_set() {
        let points = vec![
            pt("A", 10.0, 1.0, 5.0),
            pt("B", 5.0, 2.0, 5.0),
            pt("C", 6.0, 3.0, 6.0), // dominated by B
            pt("D", 1.0, 9.0, 1.0),
            pt("E", 10.0, 1.0, 5.0), // duplicate of A: stays
        ];
        let front = pareto_front(&points);
        assert_eq!(front, vec![0, 1, 3, 4]);
        // Brute-force cross check.
        for i in 0..points.len() {
            let dominated = points.iter().any(|q| dominates(q, &points[i]));
            assert_eq!(front.contains(&i), !dominated, "point {i}");
        }
    }

    #[test]
    fn selection_respects_constraints_and_ties() {
        let points = vec![
            pt("A", 10.0, 1.0, 0.0),
            pt("B", 5.0, 6.0, 0.0),
            pt("C", 3.0, 9.0, 0.0),
        ];
        let all = [0usize, 1, 2];
        // Cheapest under delay<=7 is B; under delay<=0.5 nothing fits.
        assert_eq!(
            select(&points, &all, &Objective::MinAreaUnderDelay(7.0)),
            Some(1)
        );
        assert_eq!(
            select(&points, &all, &Objective::MinAreaUnderDelay(0.5)),
            None
        );
        // Fastest under area<=6 is B.
        assert_eq!(
            select(&points, &all, &Objective::MinDelayUnderArea(6.0)),
            Some(1)
        );
        // Weighted: area+delay gives A=11, B=11, C=12 — tie goes to A.
        assert_eq!(
            select(&points, &all, &Objective::default()),
            Some(0),
            "earliest candidate wins ties"
        );
        // NaN weights cannot crown an early candidate: a NaN score sorts
        // after every finite one, so a later finite score still wins.
        let mut nan_first = vec![pt("N", f64::NAN, 1.0, 0.0)];
        nan_first.extend(points.clone());
        let weighted = Objective::Weighted {
            area: 1.0,
            delay: 1.0,
            power: 0.0,
        };
        assert_eq!(
            select(&nan_first, &[0usize, 1, 2, 3], &weighted),
            Some(1),
            "finite scores beat NaN"
        );
    }

    #[test]
    fn finish_is_insertion_order_invariant() {
        let points = vec![
            pt("X", 10.0, 1.0, 5.0),
            pt("Y", 5.0, 2.0, 5.0),
            pt("Z", 6.0, 3.0, 6.0),
            pt("W", 1.0, 9.0, 1.0),
        ];
        let mut fwd = Explorer::new(Objective::default());
        let mut rev = Explorer::new(Objective::default());
        for p in &points {
            fwd.add_point(p.clone());
        }
        for p in points.iter().rev() {
            rev.add_point(p.clone());
        }
        let (a, b) = (fwd.finish(), rev.finish());
        assert_eq!(a, b);
        assert_eq!(a.to_table(), b.to_table());
    }

    #[test]
    fn same_identity_points_differing_late_fields_stay_order_invariant() {
        // Same key and equal area/delay — only power differs. The sort
        // must still canonicalize, or insertion order would leak into the
        // report.
        let mut hi = pt("X", 1.0, 1.0, 5.0);
        hi.gates = 9;
        let lo = pt("X", 1.0, 1.0, 2.0);
        let mut fwd = Explorer::new(Objective::default());
        fwd.add_point(hi.clone());
        fwd.add_point(lo.clone());
        let mut rev = Explorer::new(Objective::default());
        rev.add_point(lo);
        rev.add_point(hi);
        let (a, b) = (fwd.finish(), rev.finish());
        assert_eq!(a, b);
        assert_eq!(a.to_table(), b.to_table());
    }

    #[test]
    fn report_marks_front_and_winner() {
        let mut ex = Explorer::new(Objective::MinAreaUnderDelay(10.0));
        ex.add_point(pt("BIG", 9.0, 4.0, 1.0));
        ex.add_point(pt("FAST", 6.0, 8.0, 1.0));
        ex.add_point(pt("SLOW", 5.0, 30.0, 1.0));
        assert_eq!(ex.len(), 3);
        assert!(!ex.is_empty());
        let report = ex.finish();
        assert_eq!(report.winner_point().unwrap().implementation, "FAST");
        assert_eq!(report.front.len(), 3);
        assert_eq!(report.front_lines().len(), 3);
        let table = report.to_table();
        assert!(table.contains(">* FAST"), "{table}");
        assert!(table.contains("3 points, 3 on the Pareto front"), "{table}");
    }

    #[test]
    fn empty_sweep_finishes_without_winner() {
        let report = Explorer::new(Objective::default()).finish();
        assert!(report.points.is_empty());
        assert!(report.front.is_empty());
        assert_eq!(report.winner, None);
        assert!(report.to_table().contains("0 points"));
    }
}
