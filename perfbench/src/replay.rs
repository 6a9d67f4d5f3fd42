//! The traced replay: the same seeded ops, run in this process through
//! each layer's public functions, with a span around every call.
//!
//! It mirrors what `icdbd` does for each op — parse the CQL text, look the
//! key up in a memo that stands in for the server's result cache and
//! exploration corpus, run the Fig. 8 pipeline on a miss, place a layout
//! when asked, compute the Pareto front of a sweep, and journal the op's
//! event to a scratch group-commit WAL — so the spans time the same work.
//! Each generation must reproduce the delay text the server answered for
//! the same key. Spans stay in memory and are written out at the end.

use crate::workload::{Action, Key, Op, Workload};
use crate::Pass;
use icdb::cells::Library;
use icdb::core::{ComponentRequest, Icdb, MutationEvent, NsId};
use icdb::cql::parse_command;
use icdb::estimate::{estimate_delay, estimate_power, estimate_shape, PowerSpec, ShapeFunction};
use icdb::explore::{pareto_front, DesignPoint, Explorer, Objective};
use icdb::layout::{place, to_ascii, to_cif, PortSpec};
use icdb::logic::{synthesize, GateNetlist, SynthOptions};
use icdb::sizing::size_netlist;
use icdb::store::wal::{GroupWal, WalWriter};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Shape alternatives the server's estimator sweeps.
const MAX_SHAPE_STRIPS: usize = 8;

/// Layer spans that repeat work the server does for the same op. The
/// replay's own bookkeeping (`op` self time) and the extra timing
/// analysis it runs to check the delay text (`estimate.delay`) are left
/// out of `trace.coverage`.
pub const MIRRORED: [&str; 10] = [
    "cql.parse",
    "iif.expand",
    "logic.synthesize",
    "sizing.size",
    "estimate.shape",
    "estimate.power",
    "vhdl.emit",
    "layout.place",
    "explore.pareto",
    "store.wal",
];

struct Span {
    name: &'static str,
    op: usize,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// In-memory span recorder. Spans nest through a stack; every span of one
/// op shares its op id.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: usize,
}

impl Tracer {
    fn enter(&mut self, name: &'static str) {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start: now,
            end: now,
        });
        self.stack.push(self.spans.len() - 1);
    }

    fn exit(&mut self) {
        let i = self.stack.pop().expect("exit matches an enter");
        self.spans[i].end = self.origin.elapsed();
    }

    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = std::hint::black_box(f());
        self.exit();
        out
    }

    /// Per span name: calls and self time (duration minus the part its
    /// children cover).
    fn self_times(&self) -> BTreeMap<&'static str, (u64, Duration)> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, Duration)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += (s.end - s.start).saturating_sub(child_time[i]);
        }
        out
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::from("op\tspan\tname\tparent\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{}\t{i}\t{}\t{parent}\t{}\t{}",
                s.op,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            );
        }
        std::fs::write(path, text)
    }
}

/// One generated key, as the server's result cache would hold it.
struct Generated {
    netlist: GateNetlist,
    shape: ShapeFunction,
    delay_text: String,
    point: DesignPoint,
}

/// What the replay measured.
pub struct Replayed {
    /// Per layer: calls and self time.
    pub layers: BTreeMap<&'static str, (u64, Duration)>,
    /// Σ gates over `logic.synthesize` calls.
    pub gates: u64,
    /// Σ `SizingResult.iterations` over `sizing.size` calls.
    pub moves: u64,
    /// Body sweeps (priming sweeps only fill the corpus).
    pub sweeps: u64,
    /// Σ grid points over body sweeps, and Σ points the corpus did not
    /// answer.
    pub sweep_points: u64,
    pub sweep_evaluated: u64,
    pub checked: u64,
    pub mismatches: Vec<String>,
}

impl Replayed {
    /// Mean self time of one call of a layer, µs.
    pub fn mean_us(&self, layer: &str) -> f64 {
        match self.layers.get(layer) {
            Some((calls, total)) if *calls > 0 => total.as_secs_f64() * 1e6 / *calls as f64,
            _ => 0.0,
        }
    }

    pub fn calls(&self, layer: &str) -> u64 {
        self.layers.get(layer).map_or(0, |(c, _)| *c)
    }

    /// Σ self time of the spans that mirror server work, µs.
    pub fn mirrored_us(&self) -> f64 {
        MIRRORED
            .iter()
            .filter_map(|l| self.layers.get(l))
            .map(|(_, t)| t.as_secs_f64() * 1e6)
            .sum()
    }
}

struct Replay<'a> {
    icdb: &'a Icdb,
    /// Reference gate counts of sampled keys.
    gates: &'a HashMap<Key, usize>,
    tracer: Tracer,
    wal: GroupWal,
    /// Stands in for the server's result cache.
    results: HashMap<Key, Generated>,
    /// Stands in for the exploration corpus: points a sweep evaluated.
    corpus: HashMap<Key, DesignPoint>,
    /// Whether the current op is a body op (sweep counts exclude priming).
    in_body: bool,
    out: Replayed,
}

/// Replays the priming and one body pass of `w`, checking each generation
/// against the server's answers in `pass`, and writes the spans to
/// `trace_path`.
pub fn run(
    w: &Workload,
    pass: &Pass,
    gates: &HashMap<Key, usize>,
    trace_path: &Path,
) -> Result<Replayed, String> {
    let wal_path = trace_path.with_extension("wal");
    let _ = std::fs::remove_file(&wal_path);
    let (writer, _) = WalWriter::open(&wal_path, true).map_err(|e| format!("scratch WAL: {e}"))?;
    let icdb = Icdb::new();
    let mut replay = Replay {
        icdb: &icdb,
        gates,
        tracer: Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        },
        wal: GroupWal::new(writer, true, Duration::ZERO),
        results: HashMap::new(),
        corpus: HashMap::new(),
        in_body: false,
        out: Replayed {
            layers: BTreeMap::new(),
            gates: 0,
            moves: 0,
            sweeps: 0,
            sweep_points: 0,
            sweep_evaluated: 0,
            checked: 0,
            mismatches: Vec::new(),
        },
    };
    let ops = w.priming.iter().zip(&pass.priming);
    let ops = ops.chain(w.body.iter().zip(&pass.replies));
    for (i, (op, reply)) in ops.enumerate() {
        replay.tracer.op = i;
        replay.in_body = i >= w.priming.len();
        replay.tracer.enter("op");
        let outcome = replay.op(op, reply);
        replay.tracer.exit();
        if let Err(e) = outcome {
            replay
                .out
                .mismatches
                .push(format!("replay of `{}`: {e}", op.line));
        }
    }
    drop(replay.wal);
    let _ = std::fs::remove_file(&wal_path);
    replay
        .tracer
        .write(trace_path)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    let mut out = replay.out;
    out.layers = replay.tracer.self_times();
    Ok(out)
}

impl Replay<'_> {
    fn op(&mut self, op: &Op, reply: &str) -> Result<(), String> {
        self.parse(&op.line)?;
        match &op.action {
            Action::Request { key, name, layout } => {
                self.lookup_or_generate(key)?;
                if *layout {
                    self.layout(key)?;
                }
                let mut request = request_of(key);
                request.instance_name = Some(name.clone());
                self.journal(&MutationEvent::InstallComponent {
                    ns: NsId::ROOT,
                    request,
                })
            }
            Action::Query { key, outputs, .. } => {
                // The server answers from memory; the replay checks that
                // its own generation of the key gave the same delay text.
                let Some(at) = outputs.iter().position(|o| *o == "delay") else {
                    return Ok(());
                };
                let Some(g) = self.results.get(key) else {
                    return Err("query of a key the replay never generated".into());
                };
                self.out.checked += 1;
                let expected = format!("s {}", icdb::net::escape(&g.delay_text));
                if reply.lines().nth(at + 1) != Some(expected.as_str()) {
                    return Err(format!("delay text of {key:?} differs from the server's"));
                }
                Ok(())
            }
            Action::Catalog => Ok(()),
            Action::StartDesign => self.journal(&MutationEvent::StartDesign {
                ns: NsId::ROOT,
                design: crate::workload::DESIGN.into(),
            }),
            Action::StartTransaction => self.journal(&MutationEvent::StartTransaction {
                ns: NsId::ROOT,
                design: crate::workload::DESIGN.into(),
            }),
            Action::Put { name } => self.journal(&MutationEvent::PutInComponentList {
                ns: NsId::ROOT,
                design: crate::workload::DESIGN.into(),
                instance: name.clone(),
            }),
            Action::EndTransaction => self.journal(&MutationEvent::EndTransaction {
                ns: NsId::ROOT,
                design: crate::workload::DESIGN.into(),
            }),
            Action::Sweep {
                implementations,
                attrs,
                widths,
                strategies,
            } => self.sweep(implementations, attrs, widths, strategies, reply),
        }
    }

    /// `icdb_cql::parse_command` on the op's own text, with the caller
    /// arguments its output slots need.
    fn parse(&mut self, line: &str) -> Result<(), String> {
        let args = crate::verify::output_args(line)?;
        self.tracer
            .time("cql.parse", || parse_command(line, &args))
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    fn journal(&mut self, event: &MutationEvent) -> Result<(), String> {
        self.journal_bytes(serde::to_bytes(event))
    }

    /// One record through the scratch group-commit WAL, acknowledged once
    /// it is fsynced.
    fn journal_bytes(&mut self, payload: Vec<u8>) -> Result<(), String> {
        let wal = &self.wal;
        self.tracer
            .time("store.wal", || {
                let seq = wal.submit(payload)?;
                wal.wait_durable(seq)
            })
            .map_err(|e| format!("scratch WAL: {e}"))
    }

    fn lookup_or_generate(&mut self, key: &Key) -> Result<(), String> {
        if !self.results.contains_key(key) {
            let g = self.generate(key)?;
            self.results.insert(key.clone(), g);
        }
        Ok(())
    }

    /// The Fig. 8 pipeline, call for call as the server's generation path
    /// runs it.
    fn generate(&mut self, key: &Key) -> Result<Generated, String> {
        let icdb = self.icdb;
        let cells: &Library = &icdb.cells;
        let imp = icdb
            .library
            .implementation(key.implementation)
            .ok_or_else(|| format!("no implementation {}", key.implementation))?;
        let params = imp
            .bind_attributes(&key.attributes())
            .map_err(|e| e.to_string())?;
        let pairs: Vec<(&str, i64)> = params.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        let request = request_of(key);
        let t = &mut self.tracer;

        let flat = t
            .time("iif.expand", || {
                icdb::iif::expand(&imp.module, &pairs, &icdb.library)
                    .map(|flat| (flat.to_string(), flat.to_milo_format(), flat))
            })
            .map_err(|e| e.to_string())?
            .2;
        let mut netlist = t
            .time("logic.synthesize", || {
                synthesize(&flat, cells, &SynthOptions::default())
            })
            .map_err(|e| e.to_string())?;
        self.out.gates += netlist.gates.len() as u64;
        if let Some(&expected) = self.gates.get(key) {
            self.out.checked += 1;
            if expected != netlist.gates.len() {
                return Err(format!(
                    "{key:?} mapped to {} gates, the reference to {expected}",
                    netlist.gates.len()
                ));
            }
        }
        let loads = request.constraints.load_spec();
        let strategy = request.sizing_strategy();
        let sizing = t.time("sizing.size", || {
            size_netlist(&mut netlist, cells, &loads, &strategy)
        });
        self.out.moves += sizing.iterations as u64;
        let shape = t
            .time("estimate.shape", || {
                estimate_shape(&netlist, cells, MAX_SHAPE_STRIPS)
            })
            .map_err(|e| e.to_string())?;
        let power = t
            .time("estimate.power", || {
                estimate_power(&netlist, cells, &PowerSpec::default())
            })
            .map_err(|e| e.to_string())?
            .total_uw;
        t.time("vhdl.emit", || {
            (
                icdb::vhdl::emit_netlist(&netlist, cells),
                icdb::vhdl::emit_entity(&netlist),
                shape.to_alternative_format(),
            )
        });
        let delay_text = sizing.report.to_string();
        // One more timing analysis of the sized netlist: its own cost per
        // call, and a check that it reproduces the sizing report.
        let sta = t
            .time("estimate.delay", || estimate_delay(&netlist, cells, &loads))
            .map_err(|e| e.to_string())?;
        self.out.checked += 1;
        if sta.to_string() != delay_text {
            return Err(format!("timing analysis of {key:?} disagrees with sizing"));
        }
        let mut sorted = params.clone();
        sorted.sort();
        let point = DesignPoint {
            implementation: imp.name.clone(),
            params: sorted,
            strategy: key.strategy().to_string(),
            area: shape.best_area().map(|a| a.area()).unwrap_or(0.0),
            delay: if sizing.report.clock_width > 0.0 {
                sizing.report.clock_width
            } else {
                sizing.report.worst_output_delay()
            },
            power,
            gates: netlist.gates.len(),
            met: sizing.met,
        };
        Ok(Generated {
            netlist,
            shape,
            delay_text,
            point,
        })
    }

    fn layout(&mut self, key: &Key) -> Result<(), String> {
        let g = &self.results[key];
        let cells = &self.icdb.cells;
        let strips = g.shape.best_area().map(|a| a.strips).unwrap_or(1);
        let names = |nets: &[icdb::logic::GNet]| -> Vec<String> {
            nets.iter()
                .map(|&n| g.netlist.net_name(n).to_string())
                .collect()
        };
        let spec = PortSpec::default_for(&names(&g.netlist.inputs), &names(&g.netlist.outputs));
        self.tracer
            .time("layout.place", || {
                place(&g.netlist, cells, strips, &spec).map(|l| (to_cif(&l), to_ascii(&l, 100)))
            })
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    fn sweep(
        &mut self,
        implementations: &[&'static str],
        attrs: &'static [(&'static str, i64)],
        widths: &[i64],
        strategies: &[&str],
        reply: &str,
    ) -> Result<(), String> {
        let mut points = Vec::new();
        let mut fresh = Vec::new();
        for imp in implementations {
            for &width in widths {
                for s in strategies {
                    let key = Key {
                        implementation: imp,
                        attrs,
                        width,
                        fastest: *s == "fastest",
                    };
                    if let Some(p) = self.corpus.get(&key) {
                        points.push(p.clone());
                        continue;
                    }
                    self.lookup_or_generate(&key)?;
                    let p = self.results[&key].point.clone();
                    self.corpus.insert(key.clone(), p.clone());
                    fresh.push(request_of(&key));
                    points.push(p);
                }
            }
        }
        if self.in_body {
            self.out.sweeps += 1;
            self.out.sweep_points += points.len() as u64;
            self.out.sweep_evaluated += fresh.len() as u64;
        }
        self.tracer.time("explore.pareto", || pareto_front(&points));
        if !fresh.is_empty() {
            // The server journals a sweep's fresh points as one record.
            self.journal_bytes(serde::to_bytes(&fresh))?;
        }
        // The server's table (every point's metrics and gate count, front
        // and winner marks) must be the one these points give.
        let mut explorer = Explorer::new(Objective::default());
        for p in points {
            explorer.add_point(p);
        }
        let table = format!("s {}", icdb::net::escape(&explorer.finish().to_table()));
        self.out.checked += 1;
        if reply.lines().nth(3) != Some(table.as_str()) {
            return Err("replayed sweep table differs from the server's".into());
        }
        Ok(())
    }
}

/// The request a key stands for, as the server builds it from CQL.
pub fn request_of(key: &Key) -> ComponentRequest {
    let mut request = ComponentRequest::by_implementation(key.implementation);
    request.attributes = key.attributes();
    request.strategy = Some(key.strategy().to_string());
    request
}
