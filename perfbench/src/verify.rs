//! Output checks against an in-process reference: an `Icdb` generating
//! the same keys, and `prune:0` sweeps that evaluate every grid point.

use crate::workload::{self, Action, Key, Workload};
use crate::Pass;
use icdb::core::Icdb;
use icdb::cql::{scan_slots, CqlArg, SlotType};
use std::collections::{HashMap, HashSet};

/// Every how many distinct queried keys, and every how many sweeps, one
/// is checked against the reference.
const SAMPLE_EVERY: usize = 8;

/// Blank caller arguments for a command's `?` output slots (the ops have
/// no `%` input slots).
pub fn output_args(line: &str) -> Result<Vec<CqlArg>, String> {
    let slots = scan_slots(line).map_err(|e| e.to_string())?;
    Ok(slots
        .iter()
        .map(|s| match (s.ty, s.array) {
            (SlotType::Int, false) => CqlArg::OutInt(None),
            (SlotType::Real, false) => CqlArg::OutReal(None),
            (_, true) => CqlArg::OutStrList(None),
            _ => CqlArg::OutStr(None),
        })
        .collect())
}

/// Runs a CQL line in process and renders the answer as `icdbd` would on
/// the wire (without the head line).
fn execute(icdb: &mut Icdb, line: &str) -> Result<Vec<String>, String> {
    let mut args = output_args(line)?;
    icdb.execute(line, &mut args).map_err(|e| e.to_string())?;
    Ok(args.iter().map(render).collect())
}

fn render(arg: &CqlArg) -> String {
    match arg {
        CqlArg::OutStr(Some(s)) => format!("s {}", icdb::net::escape(s)),
        CqlArg::OutInt(Some(v)) => format!("d {v}"),
        CqlArg::OutReal(Some(v)) => format!("r {v}"),
        CqlArg::OutStrList(Some(items)) => {
            let mut out = String::from("S ");
            for item in items {
                out.push_str(&icdb::net::escape(item));
                out.push('\u{1f}');
            }
            out
        }
        _ => "-".to_string(),
    }
}

/// Compares a sample of the first pass's answers with the reference:
/// instance-query answers (delay, shape function, connection table) of
/// every `SAMPLE_EVERY`th distinct key against an in-process generation
/// of the same key, and the winner, front and table of every
/// `SAMPLE_EVERY`th sweep against an in-process `prune:0` sweep.
pub fn against_reference(w: &Workload, pass: &Pass) -> Result<Reference, String> {
    let mut icdb = Icdb::new();
    let mut out = Reference::default();
    let mut seen: HashSet<Key> = HashSet::new();
    let mut sweeps = 0;
    let ops = w.priming.iter().zip(&pass.priming);
    for (op, reply) in ops.chain(w.body.iter().zip(&pass.replies)) {
        let server: Vec<&str> = reply.lines().skip(1).collect();
        match &op.action {
            Action::Query { key, outputs, .. } => {
                if !seen.insert(key.clone()) || (seen.len() - 1) % SAMPLE_EVERY != 0 {
                    continue;
                }
                let name = format!("ref{}", seen.len());
                execute(&mut icdb, &workload::request(key, &name, false).line)?;
                let wanted: Vec<String> = outputs.iter().map(|o| format!("; {o}:?s")).collect();
                let line = format!("command:instance_query; instance:{name}{}", wanted.concat());
                let reference = execute(&mut icdb, &line)?;
                let gates = icdb
                    .instance(&name)
                    .map_err(|e| e.to_string())?
                    .netlist
                    .gates
                    .len();
                out.gates.insert(key.clone(), gates);
                out.checked += 1;
                if server != reference {
                    out.mismatches.push(format!(
                        "answer to `{}` differs from the reference",
                        op.line
                    ));
                }
            }
            Action::Sweep { .. } => {
                sweeps += 1;
                if (sweeps - 1) % SAMPLE_EVERY != 0 {
                    continue;
                }
                let reference = execute(&mut icdb, &format!("{}; prune:0", op.line))?;
                out.checked += 1;
                // Winner, front and table; the evaluated count differs by
                // design.
                let same = server.len() >= 3
                    && reference.len() >= 3
                    && server[..3].iter().zip(&reference[..3]).all(|(a, b)| a == b);
                if !same {
                    out.mismatches.push(format!(
                        "sweep `{}` differs from an unpruned reference sweep",
                        op.line
                    ));
                }
            }
            _ => {}
        }
    }
    Ok(out)
}

/// What the reference checks found.
#[derive(Default)]
pub struct Reference {
    pub checked: u64,
    pub mismatches: Vec<String>,
    /// Gate counts of the sampled keys, for the traced replay to match.
    pub gates: HashMap<Key, usize>,
}
