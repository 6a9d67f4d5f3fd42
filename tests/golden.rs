//! Golden netlists: every builtin implementation at each width 1–16 it
//! accepts, plus the implementations without a `size` parameter at their
//! defaults, synthesized with `SynthOptions::default()`. Each key's
//! netlist text (ports, then every gate's cell, output, inputs and size)
//! is reduced to a 64-bit FNV-1a digest and compared with
//! `tests/golden/netlists.txt`. A mismatch names every differing key and
//! prints the first one's netlist.
//!
//! A change that alters netlists on purpose regenerates the file with
//!
//! ```text
//! cargo test --test golden -- --ignored --exact write_golden_netlists
//! ```
//!
//! and lists the changed keys in CHANGES.md.

use icdb::logic::{synthesize, GateNetlist, SynthOptions};
use icdb::Icdb;
use std::fmt::Write as _;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/netlists.txt");

/// Widest `size` a golden key uses.
const MAX_WIDTH: i64 = 16;

/// 64-bit FNV-1a: a fixed function, unlike `DefaultHasher`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The netlist as text: ports, then one line per gate in order.
fn netlist_text(icdb: &Icdb, nl: &GateNetlist) -> String {
    let names = |nets: &[icdb::logic::GNet]| -> String {
        nets.iter()
            .map(|&n| format!(" {}", nl.net_name(n)))
            .collect()
    };
    let mut text = format!(
        "name {}\ninputs{}\noutputs{}\n",
        nl.name,
        names(&nl.inputs),
        names(&nl.outputs)
    );
    for g in &nl.gates {
        let _ = writeln!(
            text,
            "{} {} <-{} size {:016x}",
            icdb.cells.cell(g.cell).name,
            nl.net_name(g.output),
            names(&g.inputs),
            g.size.to_bits()
        );
    }
    text
}

/// Every golden key in order: `(key, netlist text)`.
fn golden_netlists() -> Vec<(String, String)> {
    let icdb = Icdb::new();
    let mut out = Vec::new();
    for imp in icdb.library.iter() {
        let sized = imp.params.iter().any(|p| p.name == "size");
        let widths: Vec<Option<i64>> = if sized {
            (1..=MAX_WIDTH).map(Some).collect()
        } else {
            vec![None]
        };
        for width in widths {
            let attrs: Vec<(String, String)> = width
                .map(|w| vec![("size".to_string(), w.to_string())])
                .unwrap_or_default();
            let Ok(params) = imp.bind_attributes(&attrs) else {
                continue;
            };
            let pairs: Vec<(&str, i64)> = params.iter().map(|(n, v)| (n.as_str(), *v)).collect();
            let Ok(flat) = icdb::iif::expand(&imp.module, &pairs, &icdb.library) else {
                continue;
            };
            let Ok(nl) = synthesize(&flat, &icdb.cells, &SynthOptions::default()) else {
                continue;
            };
            let key = match width {
                Some(w) => format!("{} {w}", imp.name),
                None => format!("{} default", imp.name),
            };
            out.push((key, netlist_text(&icdb, &nl)));
        }
    }
    out
}

/// One golden line: key, gate count, digest.
fn golden_line(key: &str, text: &str) -> String {
    let gates = text.lines().count() - 3;
    format!("{key} {gates} {:016x}", fnv1a(text.as_bytes()))
}

#[test]
fn builtin_netlists_match_the_golden_digests() {
    let want = std::fs::read_to_string(GOLDEN).expect("tests/golden/netlists.txt is committed");
    let want: Vec<&str> = want.lines().collect();
    let got = golden_netlists();
    let mut differing = Vec::new();
    for (i, (key, text)) in got.iter().enumerate() {
        if want.get(i) != Some(&golden_line(key, text).as_str()) {
            differing.push(i);
        }
    }
    if let Some(&first) = differing.first() {
        let keys: Vec<&str> = differing.iter().map(|&i| got[i].0.as_str()).collect();
        panic!(
            "{} of {} golden netlists differ: {}\nnetlist of `{}` now:\n{}",
            keys.len(),
            got.len(),
            keys.join(", "),
            got[first].0,
            got[first].1
        );
    }
    assert_eq!(
        got.len(),
        want.len(),
        "the golden file has {} keys, synthesis yields {}",
        want.len(),
        got.len()
    );
}

/// Rewrites the golden file from the current synthesis; see the module
/// docs for when.
#[test]
#[ignore = "regenerates tests/golden/netlists.txt"]
fn write_golden_netlists() {
    let text: String = golden_netlists()
        .iter()
        .map(|(key, nl)| golden_line(key, nl) + "\n")
        .collect();
    std::fs::write(GOLDEN, text).expect("write tests/golden/netlists.txt");
}
