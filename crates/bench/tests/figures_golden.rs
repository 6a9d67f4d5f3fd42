//! Golden figures: the text `figures` prints for every paper artifact
//! except `tab_gentime` (which prints wall-clock timings) must equal the
//! committed `tests/golden/figures.txt` byte for byte. A mismatch prints
//! the first differing line.
//!
//! A change that alters a figure on purpose regenerates the file with
//!
//! ```text
//! cargo test -p icdb-bench --test figures_golden -- --ignored --exact write_golden_figures
//! ```
//!
//! and says in CHANGES.md which lines changed and why.

use std::process::Command;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/figures.txt");

/// Every deterministic artifact of the `figures` binary.
const FIGURES: [&str; 9] = [
    "fig5",
    "fig6",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "tab_delay",
    "tab_shape",
];

/// What `figures` prints for [`FIGURES`].
fn figures_text() -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(FIGURES)
        .output()
        .expect("the figures binary runs");
    assert!(
        out.status.success(),
        "figures exits with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("figures prints UTF-8")
}

#[test]
fn figures_match_the_golden_text() {
    let want = std::fs::read_to_string(GOLDEN).expect("tests/golden/figures.txt is committed");
    let got = figures_text();
    if want == got {
        return;
    }
    let (want_lines, got_lines): (Vec<&str>, Vec<&str>) =
        (want.lines().collect(), got.lines().collect());
    let line = (0..want_lines.len().max(got_lines.len()))
        .find(|&i| want_lines.get(i) != got_lines.get(i))
        .unwrap_or(want_lines.len());
    panic!(
        "figures differ from the golden text ({} lines, now {}); first at line {}:\n\
         golden: {:?}\nnow:    {:?}",
        want_lines.len(),
        got_lines.len(),
        line + 1,
        want_lines.get(line),
        got_lines.get(line)
    );
}

/// A name `figures` does not know fails before printing anything, and
/// the error lists the known names.
#[test]
fn figures_refuses_an_unknown_artifact() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["fig5", "delay"])
        .output()
        .expect("the figures binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "printed {} bytes", out.stdout.len());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("`delay`") && stderr.contains("tab_delay"),
        "{stderr}"
    );
}

/// Rewrites the golden file from the current `figures` output; see the
/// module docs for when.
#[test]
#[ignore = "regenerates tests/golden/figures.txt"]
fn write_golden_figures() {
    std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden"))
        .expect("create tests/golden");
    std::fs::write(GOLDEN, figures_text()).expect("write tests/golden/figures.txt");
}
