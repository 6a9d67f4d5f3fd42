//! # icdb-sizing — transistor sizing
//!
//! The fourth phase of the ICDB component generator "sizes the transistors
//! according to the input delay constraints" (paper §4.3.1), citing
//! TILOS-style posynomial sizing. This reproduction implements the same
//! greedy sensitivity heuristic TILOS popularized: repeatedly bump the
//! drive of the gate whose enlargement buys the most delay per unit of
//! added area, until the constraints are met or no move helps.
//!
//! Constraints mirror the paper's CQL inputs (§3.2.2): minimum clock width
//! (`clock_width:30`), worst combinational delay (`comb_delay`), per-output
//! delay bounds under stated output loads (`rdelay Q[0] 10` / `oload Q[0]
//! 10`), or a [`Strategy`] of `fastest` / `cheapest`.
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use icdb_sizing::{size_netlist, SizingGoal, Strategy};
//! use icdb_estimate::LoadSpec;
//! let m = icdb_iif::parse(
//!     "NAME: R; INORDER: D, CLK; OUTORDER: Q; { Q = D @(~r CLK); }")?;
//! let flat = icdb_iif::expand(&m, &[], &icdb_iif::NoModules)?;
//! let lib = icdb_cells::Library::standard();
//! let mut nl = icdb_logic::synthesize(&flat, &lib, &Default::default())?;
//! let r = size_netlist(&mut nl, &lib, &LoadSpec::uniform(30.0), &Strategy::Fastest);
//! assert!(r.iterations >= 1);
//! # Ok(())
//! # }
//! ```

#![deny(rustdoc::broken_intra_doc_links)]

use icdb_cells::{Library, TECH};
use icdb_estimate::{estimate_delay, DelayReport, LoadSpec, TimingGraph};
use icdb_logic::GateNetlist;
use std::collections::HashMap;

/// Multiplicative drive step of one sizing move: a move takes a gate from
/// drive `s` to `min(s · SIZE_STEP, TECH.max_drive)`.
pub const SIZE_STEP: f64 = 1.35;
/// Hard cap on the number of moves one sizing run applies.
pub const MAX_MOVES: usize = 400;

/// Timing targets extracted from a component request.
#[derive(Debug, Clone, Default)]
pub struct SizingGoal {
    /// Target minimum clock width in ns (`clk_width`).
    pub clock_width: Option<f64>,
    /// Worst-case delay bound applying to every output (`comb_delay: 10`).
    pub worst_delay: Option<f64>,
    /// Per-output delay bounds (`rdelay Q[0] 10`).
    pub per_output: HashMap<String, f64>,
}

impl SizingGoal {
    /// A goal constraining only the clock width.
    pub fn clock(cw: f64) -> SizingGoal {
        SizingGoal {
            clock_width: Some(cw),
            ..SizingGoal::default()
        }
    }

    /// Worst violation of this goal under `timing` (≤ 0 means met). Ports
    /// the design lacks constrain nothing.
    pub fn violation(&self, timing: &TimingGraph) -> f64 {
        let mut v = f64::NEG_INFINITY;
        if let Some(cw) = self.clock_width {
            v = v.max(timing.clock_width() - cw);
        }
        if let Some(d) = self.worst_delay {
            v = v.max(timing.worst_output_delay() - d);
        }
        for (port, bound) in &self.per_output {
            if let Some(d) = timing.output_delay(port) {
                v = v.max(d - bound);
            }
        }
        if v == f64::NEG_INFINITY {
            0.0
        } else {
            v
        }
    }
}

/// The paper's `strategy:` request values plus explicit constraints.
#[derive(Debug, Clone)]
pub enum Strategy {
    /// Meet explicit timing constraints with minimum area growth.
    Constraints(SizingGoal),
    /// `strategy: fastest` — minimize delay until no move improves it.
    Fastest,
    /// `strategy: cheapest` — leave everything at minimum drive.
    Cheapest,
}

/// Outcome of a sizing run.
#[derive(Debug, Clone)]
pub struct SizingResult {
    /// Moves applied.
    pub iterations: usize,
    /// Whether the constraints were met (always true for
    /// fastest/cheapest).
    pub met: bool,
    /// Timing after sizing.
    pub report: DelayReport,
    /// Total cell width after sizing (µm).
    pub area_width: f64,
}

/// The value a sizing move must lower: the violation of `goal`, or for
/// `fastest` (no goal) the clock width or, in a combinational design, the
/// worst path.
fn objective(goal: Option<&SizingGoal>, timing: &TimingGraph) -> f64 {
    match goal {
        Some(goal) => goal.violation(timing),
        None => {
            let clock_width = timing.clock_width();
            if clock_width > 0.0 {
                clock_width.max(timing.worst_output_delay())
            } else {
                timing.worst_output_delay().max(timing.critical_path())
            }
        }
    }
}

/// Sizes `nl` in place according to `strategy`.
///
/// Greedy TILOS loop: at each step evaluate, for every gate, the delay
/// improvement per unit of added width from one drive bump, apply the best
/// move (the first gate with the strictly largest ratio), and stop when
/// constraints are met / nothing improves. One [`TimingGraph`] serves the
/// whole run, so a trial re-times one gate and its fanin drivers instead of
/// the whole netlist.
pub fn size_netlist(
    nl: &mut GateNetlist,
    lib: &Library,
    loads: &LoadSpec,
    strategy: &Strategy,
) -> SizingResult {
    let goal = match strategy {
        Strategy::Cheapest => {
            let report = estimate_delay(nl, lib, loads).expect("sized netlists are acyclic");
            return SizingResult {
                iterations: 0,
                met: true,
                report,
                area_width: nl.total_width(lib),
            };
        }
        Strategy::Fastest => None,
        Strategy::Constraints(goal) => Some(goal),
    };

    let mut graph = TimingGraph::new(nl, lib, loads).expect("sized netlists are acyclic");
    let mut iterations = 0;
    loop {
        let current = objective(goal, &graph);
        if goal.is_some() && current <= 0.0 || iterations >= MAX_MOVES {
            break;
        }

        // Evaluate one bump per gate; keep the best delay/area trade.
        let mut best: Option<(usize, f64, f64)> = None; // (gate, new size, gain ratio)
        for (gi, gate) in nl.gates.iter().enumerate() {
            let old_size = graph.size(gi);
            if old_size >= TECH.max_drive {
                continue;
            }
            let new_size = (old_size * SIZE_STEP).min(TECH.max_drive);
            let cell = lib.cell(gate.cell);
            let area_delta = cell.width(new_size) - cell.width(old_size);
            let gain = current - graph.trial(gi, new_size, |t| objective(goal, t));
            if gain > 1e-9 {
                let ratio = gain / area_delta.max(1e-9);
                if best.is_none_or(|(_, _, r)| ratio > r) {
                    best = Some((gi, new_size, ratio));
                }
            }
        }
        let Some((gi, new_size, _)) = best else {
            break; // no move improves the objective
        };
        graph.resize(gi, new_size);
        iterations += 1;
    }

    let report = graph.report();
    let met = goal.is_none_or(|goal| goal.violation(&graph) <= 1e-9);
    let sizes = graph.into_sizes();
    for (gate, size) in nl.gates.iter_mut().zip(sizes) {
        gate.size = size;
    }
    SizingResult {
        iterations,
        met,
        report,
        area_width: nl.total_width(lib),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icdb_logic::synthesize;

    const COUNTER: &str = "
NAME: CNT;
PARAMETER: size;
INORDER: CLK, DWUP;
OUTORDER: Q[size];
PIIFVARIABLE: C[size+1];
VARIABLE: i;
{
  C[0] = 1;
  #for(i=0;i<size;i++)
  {
    Q[i] = (Q[i] (+) C[i]) @(~r CLK);
    C[i+1] = C[i] * (Q[i] (+) DWUP);
  }
}";

    fn counter(size: i64) -> (GateNetlist, Library) {
        let lib = Library::standard();
        let m = icdb_iif::parse(COUNTER).unwrap();
        let flat = icdb_iif::expand(&m, &[("size", size)], &icdb_iif::NoModules).unwrap();
        let nl = synthesize(&flat, &lib, &Default::default()).unwrap();
        (nl, lib)
    }

    #[test]
    fn cheapest_keeps_minimum_drive() {
        let (mut nl, lib) = counter(4);
        let r = size_netlist(&mut nl, &lib, &LoadSpec::uniform(10.0), &Strategy::Cheapest);
        assert_eq!(r.iterations, 0);
        assert!(nl.gates.iter().all(|g| g.size == 1.0));
    }

    #[test]
    fn fastest_reduces_clock_width() {
        let (mut nl, lib) = counter(5);
        let loads = LoadSpec::uniform(10.0);
        let before = estimate_delay(&nl, &lib, &loads).unwrap().clock_width;
        let r = size_netlist(&mut nl, &lib, &loads, &Strategy::Fastest);
        assert!(
            r.report.clock_width < before,
            "{} -> {}",
            before,
            r.report.clock_width
        );
        assert!(r.iterations > 0);
    }

    #[test]
    fn constraint_met_when_reachable() {
        let (mut nl, lib) = counter(4);
        let loads = LoadSpec::uniform(10.0);
        let baseline_cw = estimate_delay(&nl, &lib, &loads).unwrap().clock_width;
        // Ask for a modest improvement.
        let goal = SizingGoal::clock(baseline_cw * 0.93);
        let r = size_netlist(&mut nl, &lib, &loads, &Strategy::Constraints(goal));
        assert!(
            r.met,
            "should reach 7% tighter CW: got {}",
            r.report.clock_width
        );
        assert!(r.report.clock_width <= baseline_cw * 0.93 + 1e-9);
    }

    #[test]
    fn already_met_constraint_costs_nothing() {
        let (mut nl, lib) = counter(4);
        let loads = LoadSpec::uniform(10.0);
        let baseline_cw = estimate_delay(&nl, &lib, &loads).unwrap().clock_width;
        let goal = SizingGoal::clock(baseline_cw + 10.0);
        let area_before = nl.total_width(&lib);
        let r = size_netlist(&mut nl, &lib, &loads, &Strategy::Constraints(goal));
        assert!(r.met);
        assert_eq!(r.iterations, 0);
        assert_eq!(r.area_width, area_before);
    }

    #[test]
    fn impossible_constraint_reports_unmet() {
        let (mut nl, lib) = counter(5);
        let goal = SizingGoal::clock(0.1); // physically impossible
        let r = size_netlist(
            &mut nl,
            &lib,
            &LoadSpec::uniform(10.0),
            &Strategy::Constraints(goal),
        );
        assert!(!r.met);
    }

    #[test]
    fn heavier_load_needs_more_area_at_same_clock_width() {
        // The Fig. 10 dynamic: fixed CW target, growing output load →
        // growing area.
        let lib = Library::standard();
        let m = icdb_iif::parse(COUNTER).unwrap();
        let flat = icdb_iif::expand(&m, &[("size", 5)], &icdb_iif::NoModules).unwrap();
        let base = synthesize(&flat, &lib, &Default::default()).unwrap();
        let target = {
            let mut nl = base.clone();
            let r = size_netlist(&mut nl, &lib, &LoadSpec::uniform(10.0), &Strategy::Fastest);
            r.report.clock_width * 1.15
        };
        let mut areas = Vec::new();
        for load in [10.0, 30.0, 50.0] {
            let mut nl = base.clone();
            let r = size_netlist(
                &mut nl,
                &lib,
                &LoadSpec::uniform(load),
                &Strategy::Constraints(SizingGoal::clock(target)),
            );
            assert!(r.met, "load {load} should be reachable");
            areas.push(r.area_width);
        }
        assert!(
            areas[2] >= areas[0],
            "area should not shrink as load grows: {areas:?}"
        );
    }

    #[test]
    fn sizes_stay_within_bounds() {
        let (mut nl, lib) = counter(4);
        size_netlist(&mut nl, &lib, &LoadSpec::uniform(40.0), &Strategy::Fastest);
        for g in &nl.gates {
            assert!(g.size >= 1.0 && g.size <= TECH.max_drive);
        }
    }

    #[test]
    fn goal_violation_logic() {
        let (nl, lib) = counter(4);
        let graph = TimingGraph::new(&nl, &lib, &LoadSpec::uniform(10.0)).unwrap();
        let cw = graph.clock_width();
        let q0 = graph.output_delay("Q[0]").unwrap();
        assert!(SizingGoal::clock(cw + 5.0).violation(&graph) <= 0.0);
        assert!(SizingGoal::clock(cw - 5.0).violation(&graph) > 0.0);
        let mut g = SizingGoal::default();
        g.per_output.insert("Q[0]".into(), q0 - 3.0);
        g.per_output.insert("missing".into(), 0.0);
        assert!((g.violation(&graph) - 3.0).abs() < 1e-9);
        assert_eq!(SizingGoal::default().violation(&graph), 0.0);
    }
}
