//! `perfbench` — the end-to-end benchmark of the `icdbd` component server.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --icdbd PATH --work-dir DIR
//!           [--check-counts]
//! ```
//!
//! One process holds one connection to a real `icdbd` (one epoll worker,
//! fresh data directory, default fsync-per-batch flush policy) and runs a
//! closed loop over the workload's seeded op list. A run is made of
//! passes; each pass starts a fresh server, primes it (set-up, timed as
//! `setup_s`), then replays the same body (timed). Passes repeat until
//! `--seconds` of timed work have run. The last line of standard output
//! is the result as one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See `README.md`.

mod layers;
mod replay;
mod stats;
mod verify;
mod wire;
mod workload;

use stats::{median, quantile, result_json, Metric};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use wire::{scrape, Conn, Samples, Server};
use workload::{Class, Workload};

/// Fewest passes in a run, so `setup_s` is a median of several set-ups.
const MIN_PASSES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    icdbd: PathBuf,
    work_dir: PathBuf,
    check_counts: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        icdbd: PathBuf::new(),
        work_dir: PathBuf::from(".bench_run"),
        check_counts: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?
            }
            "--trace" => args.trace = value()? == "1",
            "--icdbd" => args.icdbd = PathBuf::from(value()?),
            "--work-dir" => args.work_dir = PathBuf::from(value()?),
            "--check-counts" => args.check_counts = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Everything one pass measured.
pub struct Pass {
    setup_s: f64,
    timed_s: f64,
    /// Round-trip times per op class (indexed by `Class as usize`), µs.
    latencies: [Vec<f64>; 4],
    /// Sum of every body round trip, µs.
    rtt_total_us: f64,
    /// Reply texts of the priming and body ops.
    pub priming: Vec<String>,
    pub replies: Vec<String>,
    /// `metrics` scrapes just before and after the body.
    before: Samples,
    after: Samples,
    peak_rss_mb: f64,
    /// Ops answered with `ERR`.
    errors: Vec<String>,
}

impl Pass {
    /// Counter delta over the body.
    fn delta(&self, key: &str) -> f64 {
        self.after.get(key).copied().unwrap_or(0.0) - self.before.get(key).copied().unwrap_or(0.0)
    }
}

fn run_pass(w: &Workload, args: &Args, index: usize) -> Result<Pass, String> {
    let dir = args.work_dir.join(format!("pass-{index}"));
    let started = Instant::now();
    let server = Server::spawn(&args.icdbd, &dir)?;
    let mut conn = Conn::connect(&server.addr)?;
    let mut errors = Vec::new();
    let mut priming = Vec::with_capacity(w.priming.len());
    for op in &w.priming {
        let reply = conn.call(&op.line)?;
        if !reply.ok {
            errors.push(format!("priming `{}`: {}", op.line, reply.text));
        }
        priming.push(reply.text);
    }
    let setup_s = started.elapsed().as_secs_f64();

    let before = scrape(&mut conn)?;
    let mut latencies: [Vec<f64>; 4] = Default::default();
    let mut replies = Vec::with_capacity(w.body.len());
    let mut rtt_total_us = 0.0;
    let body_started = Instant::now();
    for op in &w.body {
        let sent = Instant::now();
        let reply = conn.call(&op.line)?;
        let us = sent.elapsed().as_secs_f64() * 1e6;
        rtt_total_us += us;
        latencies[op.class as usize].push(us);
        if !reply.ok {
            errors.push(format!("`{}`: {}", op.line, reply.text));
        }
        replies.push(reply.text);
    }
    let timed_s = body_started.elapsed().as_secs_f64();
    let after = scrape(&mut conn)?;
    let peak_rss_mb = server.peak_rss_mb().unwrap_or(0.0);
    drop(conn);
    drop(server);
    Ok(Pass {
        setup_s,
        timed_s,
        latencies,
        rtt_total_us,
        priming,
        replies,
        before,
        after,
        peak_rss_mb,
        errors,
    })
}

/// Checks that need no reference: every pass answers byte-identically
/// to the first, and warm answers equal the answers recorded at priming.
fn check_replies(w: &Workload, passes: &[Pass]) -> (u64, Vec<String>) {
    let mut checked = 0;
    let mut mismatches = Vec::new();
    let first = &passes[0];
    for (p, pass) in passes.iter().enumerate().skip(1) {
        for (i, (a, b)) in first.priming.iter().zip(&pass.priming).enumerate() {
            checked += 1;
            if a != b {
                mismatches.push(format!("pass {p} priming op {i} answered differently"));
            }
        }
        for (i, (a, b)) in first.replies.iter().zip(&pass.replies).enumerate() {
            checked += 1;
            if a != b {
                let (x, y) = a
                    .lines()
                    .zip(b.lines())
                    .find(|(x, y)| x != y)
                    .unwrap_or_default();
                mismatches.push(format!(
                    "pass {p} op {i} (`{}`) answered `{y}`, pass 0 `{x}`",
                    w.body[i].line
                ));
            }
        }
    }
    for pass in passes {
        for (i, op) in w.body.iter().enumerate() {
            if let Some(k) = op.expect {
                checked += 1;
                if pass.replies[i] != pass.priming[k] {
                    mismatches.push(format!(
                        "warm answer to `{}` differs from the one recorded at priming",
                        op.line
                    ));
                }
            }
        }
    }
    (checked, mismatches)
}

fn end_to_end(w: &Workload, passes: &[Pass]) -> Vec<Metric> {
    let pooled = |class: Class| -> Vec<f64> {
        passes
            .iter()
            .flat_map(|p| p.latencies[class as usize].iter().copied())
            .collect()
    };
    let requests = pooled(Class::Request);
    let queries = pooled(Class::Query);
    let commits = pooled(Class::Commit);
    let sweeps_ms: Vec<f64> = pooled(Class::Sweep).iter().map(|us| us / 1e3).collect();
    let timed: f64 = passes.iter().map(|p| p.timed_s).sum();
    let setups: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    let rss: Vec<f64> = passes.iter().map(|p| p.peak_rss_mb).collect();
    let q = |v: &[f64], at: f64| quantile(v, at).unwrap_or(0.0);
    vec![
        Metric {
            name: "setup_s",
            unit: "s",
            value: median(&setups).unwrap_or(0.0),
        },
        Metric {
            name: "ops_per_s",
            unit: "1/s",
            value: (w.counted_ops() * passes.len()) as f64 / timed,
        },
        Metric {
            name: "request_p50_us",
            unit: "us",
            value: q(&requests, 0.5),
        },
        Metric {
            name: "request_p90_us",
            unit: "us",
            value: q(&requests, 0.9),
        },
        Metric {
            name: "query_p50_us",
            unit: "us",
            value: q(&queries, 0.5),
        },
        Metric {
            name: "commit_p50_us",
            unit: "us",
            value: q(&commits, 0.5),
        },
        Metric {
            name: "sweep_p50_ms",
            unit: "ms",
            value: q(&sweeps_ms, 0.5),
        },
        Metric {
            name: "sweep_p90_ms",
            unit: "ms",
            value: q(&sweeps_ms, 0.9),
        },
        Metric {
            name: "peak_rss_mb",
            unit: "MB",
            value: median(&rss).unwrap_or(0.0),
        },
    ]
}

/// Runs the workload twice with the same seed, one pass each, and
/// asserts that every counter the server keeps moved by exactly the same
/// amount.
fn check_counts(w: &Workload, args: &Args) -> Result<bool, String> {
    let a = run_pass(w, args, 0)?;
    let b = run_pass(w, args, 1)?;
    let (compared, differences) = layers::compare_counts(w, &a, &b);
    for d in &differences {
        eprintln!("count differs: {d}");
    }
    println!(
        "exact-count check on {} (seed {}): {compared} counters compared, {} differ",
        w.name,
        args.seed,
        differences.len()
    );
    Ok(differences.is_empty())
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let w = workload::generate(&args.workload, args.seed).ok_or_else(|| {
        format!(
            "unknown workload `{}` (known: {})",
            args.workload,
            workload::WORKLOADS.join(", ")
        )
    })?;
    if !args.icdbd.is_file() {
        return Err(format!("no icdbd binary at `{}`", args.icdbd.display()));
    }
    std::fs::create_dir_all(&args.work_dir).map_err(|e| e.to_string())?;
    if args.check_counts {
        let same = check_counts(&w, args)?;
        return Ok(if same {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }

    let mut passes = Vec::new();
    let mut timed = 0.0;
    loop {
        let pass = run_pass(&w, args, passes.len())?;
        timed += pass.timed_s;
        passes.push(pass);
        if passes.len() >= MIN_PASSES && timed >= args.seconds {
            break;
        }
    }

    let mut attempted = (passes.len() * (w.priming.len() + w.body.len())) as u64;
    let mut failures: Vec<String> = passes.iter().flat_map(|p| p.errors.clone()).collect();
    let (checked, mismatches) = check_replies(&w, &passes);
    attempted += checked;
    failures.extend(mismatches);
    let reference = verify::against_reference(&w, &passes[0])?;
    attempted += reference.checked;
    failures.extend(reference.mismatches.iter().cloned());

    let metrics = if args.trace {
        let trace_path = args
            .work_dir
            .join(format!("trace-{}-seed{}.tsv", w.name, args.seed));
        let replayed = replay::run(&w, &passes[0], &reference.gates, &trace_path)?;
        eprintln!("spans written to {}", trace_path.display());
        attempted += replayed.checked;
        failures.extend(replayed.mismatches.iter().cloned());
        layers::per_layer(&w, &passes, &replayed)
    } else {
        end_to_end(&w, &passes)
    };

    for f in failures.iter().take(20) {
        eprintln!("FAILED: {f}");
    }
    eprintln!(
        "{} seed {}: {} passes, {:.2} s timed, {} ops attempted, {} failed",
        w.name,
        args.seed,
        passes.len(),
        timed,
        attempted,
        failures.len()
    );
    for m in &metrics {
        eprintln!("  {:<34} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let correct = failures.is_empty();
    println!(
        "{}",
        result_json(correct, attempted, failures.len() as u64, &metrics)
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
