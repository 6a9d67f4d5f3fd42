//! Oracles for the timing graph behind STA and TILOS sizing:
//!
//! * `graph_matches_sta` — over random drive assignments, trial moves and
//!   re-times, `TimingGraph`'s clock width, per-output `WD` and critical
//!   path equal `estimate_delay`'s bit for bit, a trial leaves the graph as
//!   it found it, and a re-timed graph reports exactly what a freshly built
//!   one does;
//! * `sizer_matches_reference` — `size_netlist` equals the reference loop
//!   (a full STA per trial move, `icdb_bench::reference`) in moves, `met`,
//!   every size, the area and the report, for every builtin under four
//!   strategies.
//!
//! Debug builds cover widths 1–3; `cargo test --release --test
//! timing_oracle` covers widths 1–8.

use icdb::cells::{Library, TECH};
use icdb::estimate::{estimate_delay, DelayReport, LoadSpec, TimingGraph};
use icdb::logic::{Gate, GateNetlist};
use icdb::sizing::{size_netlist, SizingGoal, Strategy};
use icdb::Icdb;
use icdb_bench::{builtin_netlist, reference};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Widest builtin width the sizer oracle covers.
const MAX_WIDTH: i64 = if cfg!(debug_assertions) { 3 } else { 8 };

/// A report with every float written as its bits.
fn bits(r: &DelayReport) -> String {
    let list = |v: &[(String, f64)]| -> String {
        v.iter()
            .map(|(p, d)| format!(" {p}={:x}", d.to_bits()))
            .collect()
    };
    format!(
        "CW {:x} CP {:x} WD{} SD{} CD{}",
        r.clock_width.to_bits(),
        r.critical_path.to_bits(),
        list(&r.output_delays),
        list(&r.setup_times),
        list(&r.comb_delays)
    )
}

/// What a sizing objective reads from a graph, as bits: `CW`, worst `WD`,
/// critical path, then each output's `WD`.
fn view(t: &TimingGraph, nl: &GateNetlist) -> Vec<Option<u64>> {
    let mut v = vec![
        Some(t.clock_width().to_bits()),
        Some(t.worst_output_delay().to_bits()),
        Some(t.critical_path().to_bits()),
    ];
    v.extend(
        nl.outputs
            .iter()
            .map(|&o| t.output_delay(nl.net_name(o)).map(f64::to_bits)),
    );
    v
}

/// The same view of a full report.
fn report_view(r: &DelayReport, nl: &GateNetlist) -> Vec<Option<u64>> {
    let mut v = vec![
        Some(r.clock_width.to_bits()),
        Some(r.worst_output_delay().to_bits()),
        Some(r.critical_path.to_bits()),
    ];
    v.extend(
        nl.outputs
            .iter()
            .map(|&o| r.output_delay(nl.net_name(o)).map(f64::to_bits)),
    );
    v
}

/// A hold register: a flip-flop whose Q feeds its own D pin, plus a NAND
/// of Q and an enable as a second output.
fn hold_register(lib: &Library) -> GateNetlist {
    let mut nl = GateNetlist::new("HOLD");
    let (clk, en, q, y) = (
        nl.intern("CLK"),
        nl.intern("EN"),
        nl.intern("Q"),
        nl.intern("Y"),
    );
    nl.inputs = vec![clk, en];
    nl.outputs = vec![q, y];
    let cell = |name: &str| lib.cell_id(name).expect("standard cell");
    nl.gates.push(Gate {
        cell: cell("DFF"),
        inputs: vec![q, clk],
        output: q,
        size: 1.0,
    });
    nl.gates.push(Gate {
        cell: cell("NAND2"),
        inputs: vec![q, en],
        output: y,
        size: 1.0,
    });
    nl.validate(lib).expect("valid netlist");
    nl
}

/// The netlists `graph_matches_sta` draws from: every builtin at width 3
/// (or its defaults), `RIPPLE_COUNTER` at width 4 (its flip-flops clock
/// each other, which exercises the clock-chain fixpoint) and the hold
/// register.
fn netlists() -> &'static (Library, Vec<GateNetlist>) {
    static NETLISTS: OnceLock<(Library, Vec<GateNetlist>)> = OnceLock::new();
    NETLISTS.get_or_init(|| {
        let icdb = Icdb::new();
        let mut all: Vec<GateNetlist> = icdb
            .library
            .iter()
            .filter_map(|imp| builtin_netlist(&icdb, &imp.name, 3))
            .collect();
        all.extend(builtin_netlist(&icdb, "RIPPLE_COUNTER", 4));
        all.push(hold_register(&icdb.cells));
        (icdb.cells.clone(), all)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn graph_matches_sta(
        pick in 0usize..1024,
        seed in any::<u64>(),
        load in 0.0f64..60.0,
        moves in 1usize..8,
    ) {
        let (lib, all) = netlists();
        let base = &all[pick % all.len()];
        let mut state = seed | 1;
        let mut drive = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state, 1.0 + (state % 1000) as f64 / 999.0 * (TECH.max_drive - 1.0))
        };
        let mut loads = LoadSpec::uniform(load);
        loads
            .per_output
            .insert(base.net_name(base.outputs[0]).to_string(), 2.0 * load + 1.0);
        let mut nl = base.clone();
        for g in &mut nl.gates {
            g.size = drive().1;
        }
        let at = |sizes: &[f64]| {
            let mut sized = nl.clone();
            for (g, &s) in sized.gates.iter_mut().zip(sizes) {
                g.size = s;
            }
            sized
        };
        let mut sizes: Vec<f64> = nl.gates.iter().map(|g| g.size).collect();
        let mut graph = TimingGraph::new(&nl, lib, &loads).unwrap();
        prop_assert_eq!(
            view(&graph, &nl),
            report_view(&estimate_delay(&nl, lib, &loads).unwrap(), &nl)
        );
        for _ in 0..moves {
            let (pick_gate, size) = drive();
            let gi = (pick_gate % nl.gates.len() as u64) as usize;
            let before = view(&graph, &nl);
            let mut trial_sizes = sizes.clone();
            trial_sizes[gi] = size;
            let trial = graph.trial(gi, size, |t| view(t, &nl));
            let full = estimate_delay(&at(&trial_sizes), lib, &loads).unwrap();
            prop_assert_eq!(trial, report_view(&full, &nl));
            prop_assert_eq!(view(&graph, &nl), before);

            graph.resize(gi, size);
            sizes[gi] = size;
            let now = at(&sizes);
            let full = estimate_delay(&now, lib, &loads).unwrap();
            prop_assert_eq!(view(&graph, &nl), report_view(&full, &nl));
            let rebuilt = TimingGraph::new(&now, lib, &loads).unwrap();
            prop_assert_eq!(view(&graph, &nl), view(&rebuilt, &now));
            prop_assert_eq!(bits(&graph.report()), bits(&rebuilt.report()));
        }
    }
}

#[test]
fn sizer_matches_reference() {
    let icdb = Icdb::new();
    let lib = &icdb.cells;
    let loads = LoadSpec::uniform(10.0);
    let mut runs = 0;
    for imp in icdb.library.iter() {
        // Like `explore`, size an implementation without a `size`
        // parameter once, at its defaults.
        let widths = if imp.params.iter().any(|p| p.name == "size") {
            MAX_WIDTH
        } else {
            1
        };
        for width in 1..=widths {
            let Some(base) = builtin_netlist(&icdb, &imp.name, width) else {
                continue;
            };
            let baseline = estimate_delay(&base, lib, &loads).unwrap();
            let port = base.net_name(base.outputs[0]).to_string();
            let mut rdelay = SizingGoal::default();
            rdelay.per_output.insert(
                port.clone(),
                baseline.output_delay(&port).unwrap_or(1.0) * 0.8,
            );
            rdelay.per_output.insert("NO_SUCH_PORT".into(), 0.0);
            for strategy in [
                Strategy::Fastest,
                Strategy::Cheapest,
                Strategy::Constraints(SizingGoal::clock(baseline.clock_width * 0.8)),
                Strategy::Constraints(rdelay),
            ] {
                let (mut ours, mut theirs) = (base.clone(), base.clone());
                let a = size_netlist(&mut ours, lib, &loads, &strategy);
                let b = reference::size_netlist(&mut theirs, lib, &loads, &strategy);
                let label = format!("{} size={width} {strategy:?}", imp.name);
                assert_eq!(a.iterations, b.iterations, "{label}");
                assert_eq!(a.met, b.met, "{label}");
                assert_eq!(a.area_width.to_bits(), b.area_width.to_bits(), "{label}");
                assert_eq!(bits(&a.report), bits(&b.report), "{label}");
                let sizes = |nl: &GateNetlist| -> Vec<u64> {
                    nl.gates.iter().map(|g| g.size.to_bits()).collect()
                };
                assert_eq!(sizes(&ours), sizes(&theirs), "{label}");
                runs += 1;
            }
        }
    }
    assert!(
        runs >= 4 * 18 * MAX_WIDTH as usize,
        "too few builtin widths sized: {runs} runs"
    );
}
