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
//! measured ones. A reader that closes the pipe early, such as `head`,
//! ends the run quietly with exit code 0.

use icdb_bench as bench;
use std::io::{self, ErrorKind, Write};

/// An artifact printer.
type Artifact = fn(&mut dyn Write) -> io::Result<()>;

/// Every artifact by name, in the order they print.
const ARTIFACTS: [(&str, Artifact); 10] = [
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
    let mut out = io::stdout().lock();
    let printed = ARTIFACTS
        .iter()
        .filter(|&&(name, _)| all || which.iter().any(|arg| arg == name))
        .try_for_each(|&(_, run)| run(&mut out))
        .and_then(|()| out.flush());
    match printed {
        // A reader that stopped early, such as `head`, is not a failure.
        Err(e) if e.kind() != ErrorKind::BrokenPipe => {
            eprintln!("figures: {e}");
            std::process::exit(1);
        }
        _ => {}
    }
}

fn header(out: &mut dyn Write, title: &str) -> io::Result<()> {
    let rule = "=".repeat(64);
    writeln!(out, "\n{rule}\n{title}\n{rule}")
}

fn fig5(out: &mut dyn Write) -> io::Result<()> {
    header(out, "Figure 5 — area/time trade-off of 5-bit counters\n(paper: ripple (17.4 ns, 17.2k µm²) … updown+load (11.3 ns, 53.4k µm²))")?;
    writeln!(
        out,
        "{:<42} {:>9} {:>12} {:>7} {:>7}",
        "variant", "delay ns", "area µm²", "gates", "CW ns"
    )?;
    for r in bench::fig5_data() {
        writeln!(
            out,
            "{:<42} {:>9.1} {:>12.0} {:>7} {:>7.1}",
            r.label, r.delay, r.area, r.gates, r.clock_width
        )?;
    }
    Ok(())
}

fn fig6(out: &mut dyn Write) -> io::Result<()> {
    header(out, "Figure 6 — shape function of the up/down counter\n(paper: 8 alternatives from 33×115 to 133×32 ×10³ µm)")?;
    let sf = bench::fig6_data();
    write!(out, "{}", sf.to_alternative_format())?;
    writeln!(out, "staircase: {}", sf.is_staircase())
}

fn tab_delay(out: &mut dyn Write) -> io::Result<()> {
    header(out, "§3.3 delay table — 5-bit updown counter with enable + load\n(paper: CW 29.0; WD Q[4..0] 8.5–9.7; WD MINMAX 27.3; SD DWUP 26.7)")?;
    write!(out, "{}", bench::tab_delay_data())
}

fn tab_shape(out: &mut dyn Write) -> io::Result<()> {
    header(out, "§3.3 shape table (strip format)")?;
    let sf = bench::fig6_data();
    write!(out, "{}", sf.to_strip_format())
}

fn fig9(out: &mut dyn Write) -> io::Result<()> {
    header(
        out,
        "Figure 9 — layouts of the five counters (ASCII rendering of the strip layouts)",
    )?;
    for (label, art) in bench::fig9_data() {
        writeln!(out, "--- {label} ---")?;
        write!(out, "{art}")?;
    }
    Ok(())
}

fn fig10(out: &mut dyn Write) -> io::Result<()> {
    let (target, rows) = bench::fig10_data();
    header(out, &format!(
        "Figure 10 — area vs output load at CW ≤ {target:.0} ns\n(paper: CW 25 ns; loads 10→50; area 33.2k→38.5k µm², ≤6% rise to load 40)"
    ))?;
    writeln!(out, "{:>6} {:>12} {:>6}", "load", "area µm²", "met")?;
    let base = rows.first().map(|r| r.1).unwrap_or(1.0);
    for (load, area, met) in &rows {
        writeln!(
            out,
            "{load:>6.0} {area:>12.0} {met:>6}   (+{:.1}%)",
            100.0 * (area / base - 1.0)
        )?;
    }
    Ok(())
}

fn fig11(out: &mut dyn Write) -> io::Result<()> {
    let rows = bench::fig11_data();
    header(out, "Figure 11 — area vs clock-width constraint at load 10\n(paper: CW 24→30 ns; area within 6%, non-monotone allowed)")?;
    writeln!(out, "{:>10} {:>12} {:>6}", "CW ns", "area µm²", "met")?;
    let min_area = rows.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
    for (cw, area, met) in &rows {
        writeln!(
            out,
            "{cw:>10.1} {area:>12.0} {met:>6}   (+{:.1}% over min)",
            100.0 * (area / min_area - 1.0)
        )?;
    }
    Ok(())
}

fn fig12(out: &mut dyn Write) -> io::Result<()> {
    header(
        out,
        "Figure 12 — the same counter at different aspect ratios",
    )?;
    for (strips, w, h, art) in bench::fig12_data() {
        writeln!(
            out,
            "--- {strips} strips: {w:.0} × {h:.0} µm (aspect {:.2}) ---",
            w / h
        )?;
        write!(out, "{art}")?;
    }
    Ok(())
}

fn fig13(out: &mut dyn Write) -> io::Result<()> {
    header(out, "Figure 13 — simple computer floorplanned two ways\n(paper: control left ≈1:1, 2.86 mm²; control bottom 2:1, 2.32 mm² — bottom wins)")?;
    let (left, bottom) = bench::fig13_data();
    writeln!(out, "--- control on the LEFT (target aspect 1:1) ---")?;
    write!(out, "{left}")?;
    writeln!(out, "--- control on the BOTTOM (target aspect 2:1) ---")?;
    write!(out, "{bottom}")?;
    writeln!(
        out,
        "\nbottom / left area ratio: {:.2} (paper: 2.32/2.86 = 0.81)",
        bottom.area() / left.area()
    )
}

fn tab_gentime(out: &mut dyn Write) -> io::Result<()> {
    header(out, "§4.4 claim — netlist generation time per component\n(paper: \"under five minutes\" on a 1989 Sun workstation)")?;
    let rows = bench::tab_gentime_data();
    let mut total = 0.0;
    for (imp, secs) in &rows {
        writeln!(out, "{imp:<18} {:>10.1} ms", secs * 1000.0)?;
        total += secs;
    }
    writeln!(
        out,
        "{:<18} {:>10.1} ms  ({} components)",
        "TOTAL",
        total * 1000.0,
        rows.len()
    )
}
