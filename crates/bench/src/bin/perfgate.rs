//! `perfgate` — the CI perf-regression gate.
//!
//! Compares every `crates/bench/BENCH_*.json` artifact written by the
//! current `cargo bench` run against the committed floors in
//! `crates/bench/BENCH_baseline.json`, prints a verdict table either way,
//! and exits non-zero when a gated warm-path metric regressed more than
//! the tolerance (default 25%) — or when an expected artifact is missing
//! (the gate fails closed).
//!
//! REFRESHING THE BASELINE (after an intentional perf change):
//!
//! ```text
//! cargo bench --bench gen_cached_throughput --bench service_concurrency \
//!     --bench explore_sweep --bench sweep_pruned --bench wal_replay \
//!     --bench metrics_overhead
//! cargo run -p icdb-bench --bin perfgate -- --write-baseline
//! git add crates/bench/BENCH_baseline.json   # commit the new floors
//! ```
//!
//! Most floors are speedup *ratios* (cold ÷ warm, or reference ÷ shipped,
//! from the same run), so they transfer between machines;
//! `--write-baseline` applies a 0.8 headroom factor so run-to-run noise
//! does not trip the gate.

use icdb_bench::json::{parse, Json};
use icdb_bench::perfgate::{evaluate, parse_baseline, render_baseline, render_table};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

const BASELINE_NAME: &str = "BENCH_baseline.json";

/// Loads every parseable `BENCH_*.json` artifact except the baseline.
fn load_artifacts(dir: &Path) -> Vec<Json> {
    let mut artifacts = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return artifacts;
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().to_string();
        if !name.starts_with("BENCH_") || !name.ends_with(".json") || name == BASELINE_NAME {
            continue;
        }
        match std::fs::read_to_string(entry.path()).map_err(|e| e.to_string()) {
            Ok(text) => match parse(&text) {
                Ok(doc) => artifacts.push(doc),
                Err(e) => eprintln!("perfgate: skipping malformed {name}: {e}"),
            },
            Err(e) => eprintln!("perfgate: cannot read {name}: {e}"),
        }
    }
    artifacts
}

fn main() -> ExitCode {
    let write_baseline = std::env::args().any(|a| a == "--write-baseline");
    let dir = bench_dir();
    let artifacts = load_artifacts(&dir);
    let baseline_path = dir.join(BASELINE_NAME);

    if write_baseline {
        if artifacts.is_empty() {
            eprintln!(
                "perfgate: no BENCH_*.json artifacts in {} — run the benches first",
                dir.display()
            );
            return ExitCode::FAILURE;
        }
        let rendered = render_baseline(&artifacts);
        if let Err(e) = std::fs::write(&baseline_path, &rendered) {
            eprintln!("perfgate: cannot write {}: {e}", baseline_path.display());
            return ExitCode::FAILURE;
        }
        println!("perfgate: wrote {}", baseline_path.display());
        print!("{rendered}");
        return ExitCode::SUCCESS;
    }

    let baseline_text = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("perfgate: cannot read {}: {e}", baseline_path.display());
            return ExitCode::FAILURE;
        }
    };
    let (tolerance, gates) = match parse_baseline(&baseline_text) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfgate: malformed baseline: {e}");
            return ExitCode::FAILURE;
        }
    };
    let results = evaluate(&gates, tolerance, &artifacts);
    print!("{}", render_table(&results, tolerance));
    if results.iter().all(|r| r.pass) {
        println!(
            "perfgate: OK — no warm-path regression beyond {:.0}%",
            tolerance * 100.0
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("perfgate: FAIL — warm-path regression (or missing artifact); see table above");
        ExitCode::FAILURE
    }
}
