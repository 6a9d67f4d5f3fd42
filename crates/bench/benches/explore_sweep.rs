//! Perf claims of the exploration subsystem:
//!
//! * `sweep` — a warm design-space sweep (every grid point already in the
//!   generation cache) must be ≥10× faster than a cold one: exploration
//!   amortizes through the same cache that serves plain component requests.
//!   Each cold run also asserts that it looked the netlist layer up, and
//!   missed it, exactly once per distinct netlist (implementation × width,
//!   shared by both strategies), at this machine's core count of workers;
//! * `sizing` — TILOS sizing re-times one gate per trial move on a
//!   `TimingGraph`, and tries only the gates on a critical path. Its
//!   speedup is the reference loop's time (a full STA per trial on every
//!   gate, `icdb_bench::reference`) over `size_netlist`'s, both measured in
//!   this run on `fastest` `ALU size=4` and `CSEL_ADDER size=4`;
//! * `synthesis` — the rest of a cold point is mostly logic synthesis,
//!   whose minimizer and factoring work on inline bitset cubes and
//!   products. Its speedup is the reference minimizer and factoring's time
//!   (`icdb_bench::reference`) over the shipped ones', both measured in
//!   this run on every cover that `optimize` minimizes or leaves for
//!   factoring for `ALU`, `PARITY` and `CSEL_ADDER` at widths 4–8.
//!
//! Besides the criterion groups, `main` runs an explicit measurement pass
//! and writes `BENCH_explore_sweep.json` next to this crate's manifest;
//! `perfgate` enforces the three speedup floors committed in
//! `BENCH_baseline.json`.

use criterion::{black_box, Criterion};
use icdb::estimate::LoadSpec;
use icdb::logic::{cover_to_sop, minimize, quick_factor, Cover, GateNetlist};
use icdb::sizing::{SizingResult, Strategy};
use icdb::{cells::Library, ExploreSpec, Icdb};
use icdb_bench::reference;
use std::time::{Duration, Instant};

/// A sizing loop under measurement.
type Sizer = fn(&mut GateNetlist, &Library, &LoadSpec, &Strategy) -> SizingResult;

/// The acceptance-criteria sweep: every counter implementation (≥3) ×
/// three bit-widths × both sizing strategies.
fn sweep_spec() -> ExploreSpec {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    ExploreSpec::by_component("counter")
        .widths([3, 4, 5])
        .strategies(["cheapest", "fastest"])
        .workers(workers)
}

fn bench_cold_vs_warm(c: &mut Criterion) {
    let mut group = c.benchmark_group("explore_sweep");
    group.sample_size(10);
    let spec = sweep_spec();
    let mut icdb = Icdb::new();
    group.bench_function("cold", |b| {
        b.iter(|| {
            icdb.clear_generation_cache();
            black_box(icdb.explore(&spec).unwrap())
        })
    });
    let icdb = Icdb::new();
    icdb.explore(&spec).unwrap(); // prime
    group.bench_function("warm", |b| {
        b.iter(|| black_box(icdb.explore(&spec).unwrap()))
    });
    group.finish();
}

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

/// Time `size` takes to run `fastest` on every netlist in `netlists`.
fn time_sizing(size: Sizer, netlists: &[GateNetlist], lib: &Library) -> Duration {
    let loads = LoadSpec::uniform(10.0);
    let t = Instant::now();
    for nl in netlists {
        black_box(size(&mut nl.clone(), lib, &loads, &Strategy::Fastest));
    }
    t.elapsed()
}

/// The `sizing` row: reference loop vs `size_netlist`. Each of three rounds
/// times one reference run and then the median of five `size_netlist`
/// runs, so machine drift hits both sides of a round's ratio; the row
/// reports the median round.
fn measure_sizing() -> String {
    let icdb = Icdb::new();
    let lib = &icdb.cells;
    let netlists: Vec<GateNetlist> = ["ALU", "CSEL_ADDER"]
        .iter()
        .map(|imp| icdb_bench::builtin_netlist(&icdb, imp, 4).expect("builtin maps"))
        .collect();
    let ratio = |(reference, graph): &(Duration, Duration)| {
        reference.as_nanos() as f64 / graph.as_nanos().max(1) as f64
    };
    let mut rounds: Vec<(Duration, Duration)> = (0..3)
        .map(|_| {
            let reference = time_sizing(icdb_bench::reference::size_netlist, &netlists, lib);
            let graph = median(
                (0..5)
                    .map(|_| time_sizing(icdb::sizing::size_netlist, &netlists, lib))
                    .collect(),
            );
            (reference, graph)
        })
        .collect();
    rounds.sort_by(|a, b| ratio(a).total_cmp(&ratio(b)));
    let (reference, graph) = rounds[1];
    let speedup = ratio(&rounds[1]);
    println!(
        "explore_sweep: fastest sizing of ALU+CSEL_ADDER size=4: reference {reference:?} \
         timing graph {graph:?} speedup {speedup:.0}x"
    );
    format!(
        "{{\"subject\": \"sizing\", \"reference_ns\": {}, \"graph_ns\": {}, \
         \"speedup\": {speedup:.1}}}",
        reference.as_nanos(),
        graph.as_nanos()
    )
}

/// Time to minimize every cover of `minimized` and factor every cover of
/// `factored` with the shipped code.
fn time_synthesis(minimized: &[Cover], factored: &[Cover]) -> Duration {
    let t = Instant::now();
    for c in minimized {
        black_box(minimize(c.clone()));
    }
    for c in factored {
        black_box(quick_factor(&cover_to_sop(c)));
    }
    t.elapsed()
}

/// The same work with the reference minimizer and factoring.
fn time_reference_synthesis(
    minimized: &[reference::Cover],
    factored: &[reference::Cover],
) -> Duration {
    let t = Instant::now();
    for c in minimized {
        black_box(reference::minimize(c.clone()));
    }
    for c in factored {
        black_box(reference::quick_factor(&reference::cover_to_sop(c)));
    }
    t.elapsed()
}

/// The `synthesis` row: reference minimizer and factoring vs the shipped
/// ones, in three interleaved rounds as `sizing` is measured; the row
/// reports the median round.
fn measure_synthesis() -> String {
    let icdb = Icdb::new();
    let (mut minimized, mut factored) = (Vec::new(), Vec::new());
    for imp in ["ALU", "PARITY", "CSEL_ADDER"] {
        for width in 4..=8 {
            let flat = icdb_bench::builtin_flat(&icdb, imp, width).expect("builtin expands");
            let (m, f) = icdb_bench::synthesis_covers(&flat);
            minimized.extend(m);
            factored.extend(f);
        }
    }
    let old_minimized: Vec<reference::Cover> =
        minimized.iter().map(reference::from_cover).collect();
    let old_factored: Vec<reference::Cover> = factored.iter().map(reference::from_cover).collect();
    let ratio = |(reference, shipped): &(Duration, Duration)| {
        reference.as_nanos() as f64 / shipped.as_nanos().max(1) as f64
    };
    let mut rounds: Vec<(Duration, Duration)> = (0..3)
        .map(|_| {
            let reference = time_reference_synthesis(&old_minimized, &old_factored);
            let shipped = median(
                (0..5)
                    .map(|_| time_synthesis(&minimized, &factored))
                    .collect(),
            );
            (reference, shipped)
        })
        .collect();
    rounds.sort_by(|a, b| ratio(a).total_cmp(&ratio(b)));
    let (reference, shipped) = rounds[1];
    let speedup = ratio(&rounds[1]);
    println!(
        "explore_sweep: minimize {} + factor {} covers of ALU/PARITY/CSEL_ADDER size=4..8: \
         reference {reference:?} bitsets {shipped:?} speedup {speedup:.1}x",
        minimized.len(),
        factored.len()
    );
    format!(
        "{{\"subject\": \"synthesis\", \"covers\": {}, \"reference_ns\": {}, \
         \"bitset_ns\": {}, \"speedup\": {speedup:.1}}}",
        minimized.len() + factored.len(),
        reference.as_nanos(),
        shipped.as_nanos()
    )
}

/// Explicit measurement pass feeding the JSON artifact and the speedup
/// verdicts printed at the end of the run.
fn measure_summary() -> String {
    let spec = sweep_spec();
    let mut icdb = Icdb::new();
    let netlists = (icdb.library.by_component_type("counter").len() * spec.widths.len()) as u64;
    let cold = median(
        (0..5)
            .map(|_| {
                icdb.clear_generation_cache();
                let before = icdb.cache_stats();
                let t = Instant::now();
                black_box(icdb.explore(&spec).unwrap());
                let elapsed = t.elapsed();
                let after = icdb.cache_stats();
                assert_eq!(
                    (
                        after.netlist.lookups() - before.netlist.lookups(),
                        after.netlist.misses - before.netlist.misses
                    ),
                    (netlists, netlists),
                    "a cold sweep builds each distinct netlist once"
                );
                elapsed
            })
            .collect(),
    );
    let report = icdb.explore(&spec).unwrap(); // already primed by the cold runs
    let warm = median(
        (0..25)
            .map(|_| {
                let t = Instant::now();
                black_box(icdb.explore(&spec).unwrap());
                t.elapsed()
            })
            .collect(),
    );
    let speedup = cold.as_nanos() as f64 / warm.as_nanos().max(1) as f64;
    println!(
        "explore_sweep: {} points ({} on front): cold {cold:?} warm {warm:?} \
         speedup {speedup:.0}x (target >=10x: {})",
        report.points.len(),
        report.front.len(),
        if speedup >= 10.0 { "PASS" } else { "FAIL" }
    );
    format!(
        "{{\n  \"bench\": \"explore_sweep\",\n  \"sweep\": [\n    \
         {{\"subject\": \"sweep\", \"points\": {}, \"front\": {}, \"cold_ns\": {}, \
         \"warm_ns\": {}, \"speedup\": {speedup:.1}}},\n    {},\n    {}\n  ]\n}}\n",
        report.points.len(),
        report.front.len(),
        cold.as_nanos(),
        warm.as_nanos(),
        measure_sizing(),
        measure_synthesis()
    )
}

fn main() {
    let mut criterion = Criterion::default().configure_from_args();
    bench_cold_vs_warm(&mut criterion);

    let json = measure_summary();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_explore_sweep.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("explore_sweep: wrote {path}"),
        Err(e) => eprintln!("explore_sweep: could not write {path}: {e}"),
    }
}
