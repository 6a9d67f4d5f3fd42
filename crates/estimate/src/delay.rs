//! Delay estimation (paper §4.4.1).
//!
//! For each basic cell the library stores three numbers — X (delay per unit
//! transistor load), Y (intrinsic delay), Z (delay per fanout) — and the
//! delay of an output is `Trans_no·X + Y + fanout_no·Z`. The delay of a
//! component is the sum of cell delays along the path. From those path sums
//! ICDB reports, per §3.3:
//!
//! * `CW` — minimum clock width (worst register-to-register path plus
//!   setup, bounded below by the cells' minimum pulse widths),
//! * `WD port` — delay from the clock edge to each output port,
//! * `SD port` — setup time required on each input port.

use icdb_cells::Library;
use icdb_logic::GateNetlist;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// External loading of the component's output ports, in unit transistors
/// (the paper's `oload Q[0] 10` constraint format).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LoadSpec {
    /// Load applied to outputs not listed in `per_output`.
    pub default_output_load: f64,
    /// Per-port overrides, keyed by port name.
    pub per_output: HashMap<String, f64>,
}

impl LoadSpec {
    /// Uniform load on every output.
    pub fn uniform(load: f64) -> LoadSpec {
        LoadSpec {
            default_output_load: load,
            per_output: HashMap::new(),
        }
    }

    /// Load seen by a given output port.
    pub fn load_of(&self, port: &str) -> f64 {
        self.per_output
            .get(port)
            .copied()
            .unwrap_or(self.default_output_load)
    }
}

/// The component-level timing report (the `delay_s` string of §3.3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DelayReport {
    /// Minimum clock width in ns (`CW`), 0 for purely combinational
    /// components.
    pub clock_width: f64,
    /// Clock-to-output (or input-to-output for combinational designs)
    /// delay per output port (`WD`).
    pub output_delays: Vec<(String, f64)>,
    /// Setup time per input port that reaches sequential logic (`SD`).
    pub setup_times: Vec<(String, f64)>,
    /// Worst purely-combinational input→output delay per output port.
    pub comb_delays: Vec<(String, f64)>,
    /// Worst arrival time anywhere in the design.
    pub critical_path: f64,
}

impl DelayReport {
    /// Worst `WD` over all outputs.
    pub fn worst_output_delay(&self) -> f64 {
        self.output_delays
            .iter()
            .map(|(_, d)| *d)
            .fold(0.0, f64::max)
    }

    /// `WD` of one port.
    pub fn output_delay(&self, port: &str) -> Option<f64> {
        self.output_delays
            .iter()
            .find(|(p, _)| p == port)
            .map(|(_, d)| *d)
    }

    /// `SD` of one port.
    pub fn setup_time(&self, port: &str) -> Option<f64> {
        self.setup_times
            .iter()
            .find(|(p, _)| p == port)
            .map(|(_, d)| *d)
    }
}

impl fmt::Display for DelayReport {
    /// Formats exactly like the paper's §3.3 delay string:
    /// `CW 29.0` / `WD Q[4] 8.5` / `SD DWUP 26.7`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.clock_width > 0.0 {
            writeln!(f, "CW {:.1}", self.clock_width)?;
        }
        for (p, d) in &self.output_delays {
            writeln!(f, "WD {p} {d:.1}")?;
        }
        for (p, d) in &self.setup_times {
            writeln!(f, "SD {p} {d:.1}")?;
        }
        Ok(())
    }
}

/// Estimation error.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateError {
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for EstimateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "estimate error: {}", self.message)
    }
}

impl std::error::Error for EstimateError {}

/// Computes the full §3.3 timing report for a mapped netlist.
///
/// # Errors
/// Fails on combinational cycles.
pub fn estimate_delay(
    nl: &GateNetlist,
    lib: &Library,
    loads: &LoadSpec,
) -> Result<DelayReport, EstimateError> {
    Ok(TimingGraph::new(nl, lib, loads)?.report())
}

/// An arrival time, `None` where no path arrives (stored as a non-finite
/// value).
fn arrival(a: f64) -> Option<f64> {
    a.is_finite().then_some(a)
}

/// Arrival times indexed by net.
#[derive(Clone)]
struct Arrivals {
    /// Seeded by the primary inputs (at 0) and the sequential outputs (at
    /// their clock-to-Q delay, accumulated along clock chains).
    all: Vec<f64>,
    /// Seeded by the sequential outputs only: register-to-register paths.
    seq: Vec<f64>,
}

/// The static timing graph of one netlist under one [`LoadSpec`]: the one
/// definition of STA behind both [`estimate_delay`] and transistor sizing.
///
/// The structure (combinational topological order, sequential gates, each
/// net's sinks, port load and driver) is built once; sizing never changes
/// topology. Drive sizes live in the graph. [`TimingGraph::resize`] re-times
/// only the gates whose delay depends on the resized gate — the gate itself
/// and the drivers of its input nets, whose load changed — and then
/// re-propagates the dense per-net arrival times that the objective
/// accessors ([`clock_width`](TimingGraph::clock_width),
/// [`worst_output_delay`](TimingGraph::worst_output_delay), …) read. The
/// full [`DelayReport`], with names, setup and combinational delays, comes
/// from [`TimingGraph::report`].
///
/// Every float is computed with the same operations in the same order as a
/// fresh analysis of the netlist at the graph's sizes, so results are bit
/// identical however many resizes came before.
pub struct TimingGraph<'a> {
    nl: &'a GateNetlist,
    lib: &'a Library,
    /// Combinational gates in topological order.
    order: Vec<usize>,
    /// Sequential gates in netlist order.
    seq: Vec<usize>,
    /// Per net, one sink gate per (gate, pin) use, in [`GateNetlist::fanouts`]
    /// order, so every load sum adds in the same order.
    sinks: Vec<Vec<usize>>,
    /// Per net, the external load of the output port it drives.
    port_load: Vec<Option<f64>>,
    /// Per net, the gate driving it.
    driver: Vec<Option<usize>>,
    sizes: Vec<f64>,
    delays: Vec<f64>,
    /// Seeds of the last timing pass: 0 on primary inputs, the
    /// clock-chain fixpoint on sequential outputs, absent (`NEG_INFINITY`)
    /// elsewhere.
    seeds: Vec<f64>,
    /// Arrivals at the current sizes.
    timed: Arrivals,
    /// Buffers a trial times into, so `timed` survives it.
    spare: Arrivals,
}

impl<'a> TimingGraph<'a> {
    /// Builds and times the graph of `nl` at its current drive sizes.
    ///
    /// # Errors
    /// Fails on combinational cycles.
    pub fn new(
        nl: &'a GateNetlist,
        lib: &'a Library,
        loads: &LoadSpec,
    ) -> Result<TimingGraph<'a>, EstimateError> {
        let order = nl
            .comb_topo_order(lib)
            .map_err(|e| EstimateError { message: e.message })?;
        let nets = nl.net_count();
        let mut sinks = vec![Vec::new(); nets];
        let mut driver = vec![None; nets];
        for (gi, g) in nl.gates.iter().enumerate() {
            for n in &g.inputs {
                sinks[n.index()].push(gi);
            }
            driver[g.output.index()] = Some(gi);
        }
        let mut port_load = vec![None; nets];
        for &o in &nl.outputs {
            port_load[o.index()] = Some(loads.load_of(nl.net_name(o)));
        }
        let mut seeds = vec![f64::NEG_INFINITY; nets];
        for &i in &nl.inputs {
            seeds[i.index()] = 0.0;
        }
        let arrivals = Arrivals {
            all: vec![f64::NEG_INFINITY; nets],
            seq: vec![f64::NEG_INFINITY; nets],
        };
        let mut graph = TimingGraph {
            nl,
            lib,
            order,
            seq: (0..nl.gates.len())
                .filter(|&i| lib.cell(nl.gates[i].cell).function.is_sequential())
                .collect(),
            sinks,
            port_load,
            driver,
            sizes: nl.gates.iter().map(|g| g.size).collect(),
            delays: Vec::new(),
            seeds,
            timed: arrivals.clone(),
            spare: arrivals,
        };
        graph.delays = (0..nl.gates.len()).map(|gi| graph.gate_delay(gi)).collect();
        graph.time();
        Ok(graph)
    }

    /// Drive size of gate `gate`.
    pub fn size(&self, gate: usize) -> f64 {
        self.sizes[gate]
    }

    /// The drive sizes, in gate order.
    pub fn into_sizes(self) -> Vec<f64> {
        self.sizes
    }

    /// Sets gate `gate` to drive `size` and re-times the graph.
    pub fn resize(&mut self, gate: usize, size: f64) {
        self.retime(gate, size);
        self.time();
    }

    /// A trial move: times the graph with gate `gate` at drive `size`,
    /// returns `f` of that timing, and puts the gate back.
    pub fn trial<R>(&mut self, gate: usize, size: f64, f: impl FnOnce(&Self) -> R) -> R {
        let old = self.sizes[gate];
        std::mem::swap(&mut self.timed, &mut self.spare);
        self.resize(gate, size);
        let result = f(self);
        self.retime(gate, old);
        std::mem::swap(&mut self.timed, &mut self.spare);
        result
    }

    /// Minimum clock width (`CW`): the worst register-to-register arrival
    /// at any sequential data or asynchronous pin plus setup, bounded below
    /// by the minimum pulse widths; 0 for combinational designs.
    pub fn clock_width(&self) -> f64 {
        let pulse = self
            .seq
            .iter()
            .map(|&gi| self.seq_timing(gi).min_pulse)
            .fold(0.0, f64::max);
        self.worst_setup(&self.timed.seq)
            .map_or(pulse, |w| pulse.max(w))
    }

    /// Worst `WD` over all outputs.
    pub fn worst_output_delay(&self) -> f64 {
        self.nl
            .outputs
            .iter()
            .filter_map(|o| arrival(self.timed.all[o.index()]))
            .fold(0.0, f64::max)
    }

    /// `WD` of one output port.
    pub fn output_delay(&self, port: &str) -> Option<f64> {
        self.nl
            .outputs
            .iter()
            .filter(|&&o| self.nl.net_name(o) == port)
            .find_map(|o| arrival(self.timed.all[o.index()]))
    }

    /// Worst arrival time anywhere in the design.
    pub fn critical_path(&self) -> f64 {
        self.timed
            .all
            .iter()
            .filter_map(|&a| arrival(a))
            .fold(0.0, f64::max)
    }

    /// The full §3.3 report at the current sizes.
    pub fn report(&self) -> DelayReport {
        let nl = self.nl;
        // Arrival seeded only by PIs: the combinational delay per output.
        let mut arr = vec![f64::NEG_INFINITY; nl.net_count()];
        for &i in &nl.inputs {
            arr[i.index()] = 0.0;
        }
        self.propagate(&mut arr);
        let mut output_delays = Vec::new();
        let mut comb_delays = Vec::new();
        for &o in &nl.outputs {
            let name = nl.net_name(o);
            if let Some(d) = arrival(self.timed.all[o.index()]) {
                output_delays.push((name.to_string(), d));
            }
            if let Some(d) = arrival(arr[o.index()]) {
                comb_delays.push((name.to_string(), d));
            }
        }
        // SD per input: worst path from that input alone to any sequential
        // data/async pin, plus that cell's setup.
        let mut setup_times = Vec::new();
        for &i in &nl.inputs {
            arr.fill(f64::NEG_INFINITY);
            arr[i.index()] = 0.0;
            self.propagate(&mut arr);
            if let Some(w) = self.worst_setup(&arr) {
                setup_times.push((nl.net_name(i).to_string(), w));
            }
        }
        DelayReport {
            clock_width: self.clock_width(),
            output_delays,
            setup_times,
            comb_delays,
            critical_path: self.critical_path(),
        }
    }

    /// Output delay of gate `gi` under the current sizes and loads.
    fn gate_delay(&self, gi: usize) -> f64 {
        let g = &self.nl.gates[gi];
        let out = g.output.index();
        let sinks = &self.sinks[out];
        let mut load: f64 = sinks
            .iter()
            .map(|&s| {
                self.lib
                    .cell(self.nl.gates[s].cell)
                    .input_load(self.sizes[s])
            })
            .sum();
        let mut fanout = sinks.len();
        if let Some(port) = self.port_load[out] {
            load += port;
            fanout += 1;
        }
        self.lib.cell(g.cell).delay(self.sizes[gi], load, fanout)
    }

    /// Sets gate `gate` to drive `size` and re-times each gate whose delay
    /// depends on it once: the gate and the drivers of its input nets. The
    /// gate may drive one of its own pins.
    fn retime(&mut self, gate: usize, size: f64) {
        self.sizes[gate] = size;
        self.delays[gate] = self.gate_delay(gate);
        let nl = self.nl;
        let inputs = &nl.gates[gate].inputs;
        for (k, n) in inputs.iter().enumerate() {
            match self.driver[n.index()] {
                Some(d) if d != gate && !inputs[..k].contains(n) => {
                    self.delays[d] = self.gate_delay(d);
                }
                _ => {}
            }
        }
    }

    /// Re-propagates `timed` from the current delays. Ripple structures
    /// clock one flip-flop from another's Q, so the clock arrival at each
    /// sequential cell accumulates along the clock chain: iterate to a
    /// fixpoint, bounded by the flip-flop count.
    fn time(&mut self) {
        let nl = self.nl;
        for &gi in &self.seq {
            self.seeds[nl.gates[gi].output.index()] = self.delays[gi];
        }
        let mut all = std::mem::take(&mut self.timed.all);
        all.copy_from_slice(&self.seeds);
        self.propagate(&mut all);
        for _ in 0..self.seq.len().max(1) {
            let mut changed = false;
            for &gi in &self.seq {
                let g = &nl.gates[gi];
                let clk_arr = arrival(all[g.inputs[1].index()]).unwrap_or(0.0);
                let q_arr = clk_arr + self.delays[gi];
                let slot = &mut self.seeds[g.output.index()];
                if (q_arr - *slot).abs() > 1e-9 {
                    *slot = q_arr;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
            all.copy_from_slice(&self.seeds);
            self.propagate(&mut all);
        }
        // A combinational design has no register paths: `seq` stays empty.
        let mut seq = std::mem::take(&mut self.timed.seq);
        if !self.seq.is_empty() {
            seq.fill(f64::NEG_INFINITY);
            for &gi in &self.seq {
                seq[nl.gates[gi].output.index()] = self.delays[gi];
            }
            self.propagate(&mut seq);
        }
        self.timed = Arrivals { all, seq };
    }

    /// Longest-path arrival propagation over the combinational gates, in
    /// place: `arr` holds the seeds on entry.
    fn propagate(&self, arr: &mut [f64]) {
        for &gi in &self.order {
            let g = &self.nl.gates[gi];
            let worst_in = g
                .inputs
                .iter()
                .map(|n| arr[n.index()])
                .fold(f64::NEG_INFINITY, f64::max);
            if worst_in.is_finite() {
                let t = worst_in + self.delays[gi];
                let slot = &mut arr[g.output.index()];
                if t > *slot {
                    *slot = t;
                }
            }
        }
    }

    /// Worst arrival in `arr` at any sequential data or asynchronous pin
    /// (every pin but the clock, pin 1) plus that cell's setup.
    fn worst_setup(&self, arr: &[f64]) -> Option<f64> {
        let mut worst: Option<f64> = None;
        for &gi in &self.seq {
            let setup = self.seq_timing(gi).setup;
            for (pi, n) in self.nl.gates[gi].inputs.iter().enumerate() {
                if pi == 1 {
                    continue;
                }
                if let Some(a) = arrival(arr[n.index()]) {
                    worst = Some(worst.map_or(a + setup, |w: f64| w.max(a + setup)));
                }
            }
        }
        worst
    }

    fn seq_timing(&self, gi: usize) -> icdb_cells::SeqTiming {
        self.lib
            .cell(self.nl.gates[gi].cell)
            .seq
            .expect("sequential cell has seq timing")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icdb_logic::synthesize;

    fn netlist(src: &str, params: &[(&str, i64)]) -> (GateNetlist, Library) {
        let lib = Library::standard();
        let m = icdb_iif::parse(src).unwrap();
        let flat = icdb_iif::expand(&m, params, &icdb_iif::NoModules).unwrap();
        let nl = synthesize(&flat, &lib, &Default::default()).unwrap();
        (nl, lib)
    }

    #[test]
    fn combinational_component_has_no_clock_width() {
        let (nl, lib) = netlist("NAME: C; INORDER: A, B; OUTORDER: O; { O = A * B; }", &[]);
        let r = estimate_delay(&nl, &lib, &LoadSpec::uniform(10.0)).unwrap();
        assert_eq!(r.clock_width, 0.0);
        assert!(r.output_delay("O").unwrap() > 0.0);
        assert!(r.setup_times.is_empty());
    }

    #[test]
    fn sequential_component_reports_cw_wd_sd() {
        let (nl, lib) = netlist(
            "NAME: R; INORDER: D, CLK; OUTORDER: Q; { Q = D @(~r CLK); }",
            &[],
        );
        let r = estimate_delay(&nl, &lib, &LoadSpec::uniform(10.0)).unwrap();
        assert!(
            r.clock_width >= 6.0,
            "bounded by min pulse: {}",
            r.clock_width
        );
        assert!(
            r.output_delay("Q").unwrap() >= 3.0,
            "clk-to-q at least intrinsic"
        );
        let sd = r.setup_time("D").unwrap();
        assert!(sd >= 2.0, "setup at least the FF's: {sd}");
    }

    #[test]
    fn longer_carry_chain_has_longer_clock_width() {
        let counter = "
NAME: CNT;
PARAMETER: size;
INORDER: CLK;
OUTORDER: Q[size];
PIIFVARIABLE: C[size+1];
VARIABLE: i;
{
  C[0] = 1;
  #for(i=0;i<size;i++)
  {
    Q[i] = (Q[i] (+) C[i]) @(~r CLK);
    C[i+1] = C[i] * Q[i];
  }
}";
        let lib = Library::standard();
        let mut cws = Vec::new();
        for size in [2i64, 4, 8] {
            let m = icdb_iif::parse(counter).unwrap();
            let flat = icdb_iif::expand(&m, &[("size", size)], &icdb_iif::NoModules).unwrap();
            let nl = synthesize(&flat, &lib, &Default::default()).unwrap();
            let r = estimate_delay(&nl, &lib, &LoadSpec::uniform(10.0)).unwrap();
            cws.push(r.clock_width);
        }
        assert!(
            cws[0] < cws[1] && cws[1] < cws[2],
            "carry chain grows CW: {cws:?}"
        );
    }

    #[test]
    fn heavier_output_load_increases_wd() {
        let (nl, lib) = netlist(
            "NAME: L; INORDER: D, CLK; OUTORDER: Q; { Q = D @(~r CLK); }",
            &[],
        );
        let light = estimate_delay(&nl, &lib, &LoadSpec::uniform(5.0)).unwrap();
        let heavy = estimate_delay(&nl, &lib, &LoadSpec::uniform(50.0)).unwrap();
        assert!(
            heavy.output_delay("Q").unwrap() > light.output_delay("Q").unwrap(),
            "load term must matter"
        );
    }

    #[test]
    fn report_formats_like_the_paper() {
        let (nl, lib) = netlist(
            "NAME: R; INORDER: D, CLK; OUTORDER: Q; { Q = D @(~r CLK); }",
            &[],
        );
        let r = estimate_delay(&nl, &lib, &LoadSpec::uniform(10.0)).unwrap();
        let s = r.to_string();
        assert!(s.contains("CW "), "{s}");
        assert!(s.contains("WD Q "), "{s}");
        assert!(s.contains("SD D "), "{s}");
    }

    #[test]
    fn per_port_load_overrides() {
        let mut loads = LoadSpec::uniform(10.0);
        loads.per_output.insert("Q".into(), 40.0);
        assert_eq!(loads.load_of("Q"), 40.0);
        assert_eq!(loads.load_of("other"), 10.0);
    }
}
