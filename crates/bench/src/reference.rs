//! The TILOS sizing loop as it ran before [`icdb::estimate::TimingGraph`]:
//! every trial move re-runs the full [`estimate_delay`]. It is the oracle
//! that [`icdb::sizing::size_netlist`] must match bit for bit
//! (`tests/timing_oracle.rs`) and the baseline of the `explore_sweep`
//! bench's `sizing` speedup.

use icdb::cells::{Library, TECH};
use icdb::estimate::{estimate_delay, DelayReport, LoadSpec};
use icdb::logic::GateNetlist;
use icdb::sizing::{SizingGoal, SizingResult, Strategy, MAX_MOVES, SIZE_STEP};

/// Worst violation of `goal` under a full report (≤ 0 means met).
fn violation(goal: &SizingGoal, report: &DelayReport) -> f64 {
    let mut v = f64::NEG_INFINITY;
    if let Some(cw) = goal.clock_width {
        v = v.max(report.clock_width - cw);
    }
    if let Some(d) = goal.worst_delay {
        v = v.max(report.worst_output_delay() - d);
    }
    for (port, bound) in &goal.per_output {
        if let Some(d) = report.output_delay(port) {
            v = v.max(d - bound);
        }
    }
    if v == f64::NEG_INFINITY {
        0.0
    } else {
        v
    }
}

/// Sizes `nl` in place exactly as [`icdb::sizing::size_netlist`] does, with
/// a full static timing analysis per trial move.
pub fn size_netlist(
    nl: &mut GateNetlist,
    lib: &Library,
    loads: &LoadSpec,
    strategy: &Strategy,
) -> SizingResult {
    let objective = |report: &DelayReport| -> f64 {
        match strategy {
            Strategy::Constraints(goal) => violation(goal, report),
            Strategy::Fastest => {
                if report.clock_width > 0.0 {
                    report.clock_width.max(report.worst_output_delay())
                } else {
                    report.worst_output_delay().max(report.critical_path)
                }
            }
            Strategy::Cheapest => 0.0,
        }
    };

    let mut report = estimate_delay(nl, lib, loads).expect("sized netlists are acyclic");
    if matches!(strategy, Strategy::Cheapest) {
        let area_width = nl.total_width(lib);
        return SizingResult {
            iterations: 0,
            met: true,
            report,
            area_width,
        };
    }

    let mut iterations = 0;
    loop {
        let current = objective(&report);
        let done = match strategy {
            Strategy::Constraints(_) => current <= 0.0,
            Strategy::Fastest => false,
            Strategy::Cheapest => true,
        };
        if done || iterations >= MAX_MOVES {
            break;
        }

        // Evaluate one bump per gate; keep the best delay/area trade.
        let mut best: Option<(usize, f64, DelayReport)> = None; // (gate, gain ratio, report)
        for gi in 0..nl.gates.len() {
            let old_size = nl.gates[gi].size;
            if old_size >= TECH.max_drive {
                continue;
            }
            let new_size = (old_size * SIZE_STEP).min(TECH.max_drive);
            let cell = lib.cell(nl.gates[gi].cell);
            let area_delta = cell.width(new_size) - cell.width(old_size);
            nl.gates[gi].size = new_size;
            let trial = estimate_delay(nl, lib, loads).expect("acyclic");
            nl.gates[gi].size = old_size;
            let gain = current - objective(&trial);
            if gain > 1e-9 {
                let ratio = gain / area_delta.max(1e-9);
                if best.as_ref().is_none_or(|(_, r, _)| ratio > *r) {
                    best = Some((gi, ratio, trial));
                }
            }
        }

        match best {
            Some((gi, _, trial)) => {
                nl.gates[gi].size = (nl.gates[gi].size * SIZE_STEP).min(TECH.max_drive);
                report = trial;
                iterations += 1;
            }
            None => break, // no move improves the objective
        }
    }

    let met = match strategy {
        Strategy::Constraints(goal) => violation(goal, &report) <= 1e-9,
        _ => true,
    };
    let area_width = nl.total_width(lib);
    SizingResult {
        iterations,
        met,
        report,
        area_width,
    }
}
