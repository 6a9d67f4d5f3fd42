//! Golden answers, reduced to 64-bit FNV-1a digests of committed files.
//!
//! * **Netlists** (`tests/golden/netlists.txt`): every builtin
//!   implementation at each width 1–16 it accepts, plus the
//!   implementations without a `size` parameter at their defaults,
//!   synthesized with `SynthOptions::default()`. Each key's netlist text
//!   (ports, then every gate's cell, output, inputs and size) is digested.
//!   A mismatch names every differing key and prints the first one's
//!   netlist.
//! * **Views** (`tests/golden/views.txt`): every builtin implementation at
//!   each width 1–8 it accepts (the others at their defaults), under both
//!   `cheapest` and `fastest` sizing. Each implementation is generated by
//!   one two-worker `explore` sweep, then every key is installed with
//!   `request_component`. Per key the six stored views (`iif`, `milo`,
//!   `vhdl`, `vhdl_head`, `delay`, `shape`) are digested as the store
//!   holds them, plus the `VHDL_net_list` and `VHDL_head` query answers,
//!   which render from the installed, sized netlist. A mismatch names
//!   every differing key and view and prints the first one's text.
//!
//! A change that alters netlists or views on purpose regenerates the file
//! with one of
//!
//! ```text
//! cargo test --test golden -- --ignored --exact write_golden_netlists
//! cargo test --test golden -- --ignored --exact write_golden_views
//! ```
//!
//! and lists the changed keys in CHANGES.md.

use icdb::logic::{synthesize, GateNetlist, SynthOptions};
use icdb::{ComponentRequest, ExploreSpec, Icdb};
use std::fmt::Write as _;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/netlists.txt");
const GOLDEN_VIEWS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/views.txt");

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

/// Widest `size` a golden views key uses.
const MAX_VIEW_WIDTH: i64 = 8;

/// The sizing strategies every golden views key is generated under.
const STRATEGIES: [&str; 2] = ["cheapest", "fastest"];

/// The views digested per key: the six stored views, then the two VHDL
/// query answers.
const VIEWS: [&str; 8] = [
    "iif",
    "milo",
    "vhdl",
    "vhdl_head",
    "delay",
    "shape",
    "VHDL_net_list",
    "VHDL_head",
];

/// Every golden views line in order: `(key view, text)`.
fn golden_views() -> Vec<(String, String)> {
    let mut icdb = Icdb::new();
    let candidates: Vec<(String, Vec<Option<i64>>)> = icdb
        .library
        .iter()
        .map(|imp| {
            let accepts = |w: i64| {
                let attrs = [("size".to_string(), w.to_string())];
                imp.bind_attributes(&attrs).is_ok_and(|params| {
                    let pairs: Vec<(&str, i64)> =
                        params.iter().map(|(n, v)| (n.as_str(), *v)).collect();
                    icdb::iif::expand(&imp.module, &pairs, &icdb.library).is_ok()
                })
            };
            let widths = if imp.params.iter().any(|p| p.name == "size") {
                (1..=MAX_VIEW_WIDTH)
                    .filter(|&w| accepts(w))
                    .map(Some)
                    .collect()
            } else {
                vec![None]
            };
            (imp.name.clone(), widths)
        })
        .collect();
    let mut out = Vec::new();
    for (name, widths) in candidates {
        let spec = ExploreSpec::by_implementations([name.as_str()])
            .widths(widths.iter().flatten().copied())
            .strategies(STRATEGIES)
            .workers(2);
        if let Err(e) = icdb.explore(&spec) {
            panic!("the sweep of {name} fails: {e}");
        }
        for width in &widths {
            for strategy in STRATEGIES {
                let mut request = ComponentRequest::by_implementation(&name).strategy(strategy);
                if let Some(w) = width {
                    request = request.attribute("size", w.to_string());
                }
                let inst = icdb.request_component(&request).unwrap();
                let stored = |suffix: &str| {
                    icdb.files
                        .read(&format!("instances/{inst}.{suffix}"))
                        .unwrap_or_else(|e| panic!("view {suffix} of {inst}: {e}"))
                        .to_string()
                };
                let texts = VIEWS[..6].iter().map(|&suffix| stored(suffix)).chain([
                    icdb.vhdl_netlist(&inst).unwrap(),
                    icdb.vhdl_head(&inst).unwrap(),
                ]);
                let key = match width {
                    Some(w) => format!("{name} {w} {strategy}"),
                    None => format!("{name} default {strategy}"),
                };
                for (view, text) in VIEWS.iter().zip(texts) {
                    out.push((format!("{key} {view}"), text));
                }
            }
        }
    }
    out
}

/// One golden views line: key, view, text length, digest.
fn golden_view_line(key_view: &str, text: &str) -> String {
    format!("{key_view} {} {:016x}", text.len(), fnv1a(text.as_bytes()))
}

#[test]
fn builtin_views_match_the_golden_digests() {
    let want = std::fs::read_to_string(GOLDEN_VIEWS).expect("tests/golden/views.txt is committed");
    let want: Vec<&str> = want.lines().collect();
    let got = golden_views();
    let differing: Vec<usize> = (0..got.len())
        .filter(|&i| want.get(i) != Some(&golden_view_line(&got[i].0, &got[i].1).as_str()))
        .collect();
    if let Some(&first) = differing.first() {
        let keys: Vec<&str> = differing.iter().map(|&i| got[i].0.as_str()).collect();
        panic!(
            "{} of {} golden views differ: {}\n`{}` now reads:\n{}",
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
        "the golden file has {} views, generation yields {}",
        want.len(),
        got.len()
    );
}

/// Rewrites the golden views file from the current generation path; see
/// the module docs for when.
#[test]
#[ignore = "regenerates tests/golden/views.txt"]
fn write_golden_views() {
    let text: String = golden_views()
        .iter()
        .map(|(key_view, text)| golden_view_line(key_view, text) + "\n")
        .collect();
    std::fs::write(GOLDEN_VIEWS, text).expect("write tests/golden/views.txt");
}
