//! Regenerates every table and figure of the paper's evaluation section.
//!
//! ```text
//! cargo run -p icdb-bench --bin figures            # everything (or `all`)
//! cargo run -p icdb-bench --bin figures fig5       # one artifact
//! ```
//!
//! The artifacts are the names in [`ARTIFACTS`], printed in its order.
//! An unknown name prints nothing, lists the known names on stderr and
//! exits with code 2. Paper reference values are printed next to the
//! measured ones.

use icdb_bench as bench;

/// Every artifact by name, in the order they print.
const ARTIFACTS: [(&str, fn()); 10] = [
    ("fig5", fig5),
    ("fig6", fig6),
    ("tab_delay", tab_delay),
    ("tab_shape", tab_shape),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("tab_gentime", tab_gentime),
];

fn main() {
    let which: Vec<String> = std::env::args().skip(1).collect();
    let known = |name: &str| name == "all" || ARTIFACTS.iter().any(|&(n, _)| n == name);
    if let Some(unknown) = which.iter().find(|arg| !known(arg)) {
        let names: Vec<&str> = ARTIFACTS.iter().map(|&(name, _)| name).collect();
        eprintln!(
            "figures: unknown artifact `{unknown}`; known: {} all",
            names.join(" ")
        );
        std::process::exit(2);
    }
    let all = which.is_empty() || which.iter().any(|arg| arg == "all");
    for (name, run) in ARTIFACTS {
        if all || which.iter().any(|arg| arg == name) {
            run();
        }
    }
}

fn header(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

fn fig5() {
    header("Figure 5 — area/time trade-off of 5-bit counters\n(paper: ripple (17.4 ns, 17.2k µm²) … updown+load (11.3 ns, 53.4k µm²))");
    println!(
        "{:<42} {:>9} {:>12} {:>7} {:>7}",
        "variant", "delay ns", "area µm²", "gates", "CW ns"
    );
    for r in bench::fig5_data() {
        println!(
            "{:<42} {:>9.1} {:>12.0} {:>7} {:>7.1}",
            r.label, r.delay, r.area, r.gates, r.clock_width
        );
    }
}

fn fig6() {
    header("Figure 6 — shape function of the up/down counter\n(paper: 8 alternatives from 33×115 to 133×32 ×10³ µm)");
    let sf = bench::fig6_data();
    print!("{}", sf.to_alternative_format());
    println!("staircase: {}", sf.is_staircase());
}

fn tab_delay() {
    header("§3.3 delay table — 5-bit updown counter with enable + load\n(paper: CW 29.0; WD Q[4..0] 8.5–9.7; WD MINMAX 27.3; SD DWUP 26.7)");
    print!("{}", bench::tab_delay_data());
}

fn tab_shape() {
    header("§3.3 shape table (strip format)");
    let sf = bench::fig6_data();
    print!("{}", sf.to_strip_format());
}

fn fig9() {
    header("Figure 9 — layouts of the five counters (ASCII rendering of the strip layouts)");
    for (label, art) in bench::fig9_data() {
        println!("--- {label} ---");
        print!("{art}");
    }
}

fn fig10() {
    let (target, rows) = bench::fig10_data();
    header(&format!(
        "Figure 10 — area vs output load at CW ≤ {target:.0} ns\n(paper: CW 25 ns; loads 10→50; area 33.2k→38.5k µm², ≤6% rise to load 40)"
    ));
    println!("{:>6} {:>12} {:>6}", "load", "area µm²", "met");
    let base = rows.first().map(|r| r.1).unwrap_or(1.0);
    for (load, area, met) in &rows {
        println!(
            "{load:>6.0} {area:>12.0} {met:>6}   (+{:.1}%)",
            100.0 * (area / base - 1.0)
        );
    }
}

fn fig11() {
    let rows = bench::fig11_data();
    header("Figure 11 — area vs clock-width constraint at load 10\n(paper: CW 24→30 ns; area within 6%, non-monotone allowed)");
    println!("{:>10} {:>12} {:>6}", "CW ns", "area µm²", "met");
    let min_area = rows.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
    for (cw, area, met) in &rows {
        println!(
            "{cw:>10.1} {area:>12.0} {met:>6}   (+{:.1}% over min)",
            100.0 * (area / min_area - 1.0)
        );
    }
}

fn fig12() {
    header("Figure 12 — the same counter at different aspect ratios");
    for (strips, w, h, art) in bench::fig12_data() {
        println!(
            "--- {strips} strips: {w:.0} × {h:.0} µm (aspect {:.2}) ---",
            w / h
        );
        print!("{art}");
    }
}

fn fig13() {
    header("Figure 13 — simple computer floorplanned two ways\n(paper: control left ≈1:1, 2.86 mm²; control bottom 2:1, 2.32 mm² — bottom wins)");
    let (left, bottom) = bench::fig13_data();
    println!("--- control on the LEFT (target aspect 1:1) ---");
    print!("{left}");
    println!("--- control on the BOTTOM (target aspect 2:1) ---");
    print!("{bottom}");
    println!(
        "\nbottom / left area ratio: {:.2} (paper: 2.32/2.86 = 0.81)",
        bottom.area() / left.area()
    );
}

fn tab_gentime() {
    header("§4.4 claim — netlist generation time per component\n(paper: \"under five minutes\" on a 1989 Sun workstation)");
    let rows = bench::tab_gentime_data();
    let mut total = 0.0;
    for (imp, secs) in &rows {
        println!("{imp:<18} {:>10.1} ms", secs * 1000.0);
        total += secs;
    }
    println!(
        "{:<18} {:>10.1} ms  ({} components)",
        "TOTAL",
        total * 1000.0,
        rows.len()
    );
}
