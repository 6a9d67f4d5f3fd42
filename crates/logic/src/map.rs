//! Technology mapping by DAGON-style tree covering (paper §4.3.1 cites
//! Keutzer's DAGON): the subject graph is split into trees at multi-fanout
//! points and each tree is covered with library-cell patterns by dynamic
//! programming. Sequential logic is then reinserted ("Sequential logic is
//! then reinserted", step 4) and interface elements mapped directly.

use crate::decompose::{SubjectGraph, SubjectKind};
use crate::netlist::{GNet, Gate, GateNetlist, NetlistError};
use crate::network::{NetId, Network, Special};
use icdb_cells::{CellFunction, CellId, ClockEdge, LatchLevel, Library, Pattern};
use icdb_iif::ClockKind;
use std::collections::BTreeMap;

/// Objective driving the covering cost function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MapObjective {
    /// Minimize total cell width (the default).
    #[default]
    Area,
    /// Minimize worst-case path intrinsic delay.
    Delay,
}

/// Technology-maps an optimized network onto `lib`.
///
/// # Errors
/// Fails when a required cell is missing from the library, when a latch has
/// asynchronous set/reset (unsupported by the latch cells), or when the
/// result fails validation.
pub fn map_network(
    network: &Network,
    lib: &Library,
    objective: MapObjective,
) -> Result<GateNetlist, NetlistError> {
    let graph = SubjectGraph::from_network(network);
    let mut m = Mapper::new(network, lib, objective, &graph)?;
    m.run()?;
    let nl = m.netlist;
    nl.validate(lib)?;
    Ok(nl)
}

/// Most input pins a mappable cell may have: a match binds its pins in a
/// stack array of this size.
const MAX_PINS: usize = 16;

/// A pin binding that no pattern leaf has claimed yet.
const UNBOUND: u32 = u32::MAX;

struct CellPattern<'l> {
    cell: CellId,
    pattern: &'l Pattern,
    arity: usize,
    cost: f64,
}

struct Mapper<'a, 'l> {
    network: &'a Network,
    lib: &'l Library,
    objective: MapObjective,
    graph: &'a SubjectGraph,
    /// The patterns rooted in an inverter and in a NAND, each in library
    /// order. A pattern rooted in a leaf would bind a node to itself, which
    /// is never solved when it is bound, so none is tried.
    inv_patterns: Vec<CellPattern<'l>>,
    nand_patterns: Vec<CellPattern<'l>>,
    netlist: GateNetlist,
    /// Subject node → netlist net carrying its value (assigned for leaves
    /// and cover roots).
    net_of: Vec<Option<GNet>>,
    /// Subject node → its cheapest cover. A node is solved in exactly one
    /// tree (a tree stops at multi-fanout nodes), so one table serves the
    /// whole map.
    best: Vec<Option<Choice>>,
    inv_cell: CellId,
    buf_cell: CellId,
}

#[derive(Clone, Copy)]
struct Choice {
    cell: CellId,
    /// Subject nodes bound to the cell's input pins, in pin order; the
    /// first `arity` entries are used.
    bindings: [u32; MAX_PINS],
    arity: usize,
    cost: f64,
}

impl<'a, 'l> Mapper<'a, 'l> {
    fn new(
        network: &'a Network,
        lib: &'l Library,
        objective: MapObjective,
        graph: &'a SubjectGraph,
    ) -> Result<Self, NetlistError> {
        let mut inv_patterns = Vec::new();
        let mut nand_patterns = Vec::new();
        for (id, cell) in lib.mappable() {
            if cell.inputs.len() > MAX_PINS {
                return Err(NetlistError {
                    message: format!("cell {} has more than {MAX_PINS} input pins", cell.name),
                });
            }
            for p in &cell.patterns {
                let cost = match objective {
                    MapObjective::Area => cell.geometry.width,
                    MapObjective::Delay => cell.timing.y,
                };
                let cp = CellPattern {
                    cell: id,
                    pattern: p,
                    arity: cell.inputs.len(),
                    cost,
                };
                match p {
                    Pattern::Inv(_) => inv_patterns.push(cp),
                    Pattern::Nand(..) => nand_patterns.push(cp),
                    Pattern::Leaf(_) => {}
                }
            }
        }
        let inv_cell = lib.cell_id("INV").ok_or_else(|| NetlistError {
            message: "library lacks INV".into(),
        })?;
        let buf_cell = lib.cell_id("BUF").ok_or_else(|| NetlistError {
            message: "library lacks BUF".into(),
        })?;
        Ok(Mapper {
            network,
            lib,
            objective,
            graph,
            inv_patterns,
            nand_patterns,
            netlist: GateNetlist::new(network.name.clone()),
            net_of: vec![None; graph.nodes.len()],
            best: vec![None; graph.nodes.len()],
            inv_cell,
            buf_cell,
        })
    }

    fn run(&mut self) -> Result<(), NetlistError> {
        // Ports.
        for &i in &self.network.inputs {
            let g = self.netlist.intern(self.network.net_name(i));
            self.netlist.inputs.push(g);
        }
        for &o in &self.network.outputs {
            let g = self.netlist.intern(self.network.net_name(o));
            self.netlist.outputs.push(g);
        }

        // Constants.
        let tie0 = self.lib.id_by_function(&CellFunction::Tie0);
        let tie1 = self.lib.id_by_function(&CellFunction::Tie1);
        let mut const_nets: Vec<(NetId, bool)> = self
            .network
            .constants
            .iter()
            .map(|(&n, &v)| (n, v))
            .collect();
        const_nets.sort_by_key(|(n, _)| *n);
        for (n, v) in const_nets {
            let cell = if v { tie1 } else { tie0 }.ok_or_else(|| NetlistError {
                message: "library lacks tie cells".into(),
            })?;
            let out = self.netlist.intern(self.network.net_name(n));
            self.netlist.gates.push(Gate {
                cell,
                inputs: vec![],
                output: out,
                size: 1.0,
            });
        }

        // Cover roots: declared roots plus multi-fanout internal nodes.
        let mut root_net: BTreeMap<u32, Vec<NetId>> = BTreeMap::new();
        for &(idx, net) in &self.graph.roots {
            root_net.entry(idx).or_default().push(net);
        }
        let mut cover_roots: Vec<u32> = root_net.keys().copied().collect();
        for (i, n) in self.graph.nodes.iter().enumerate() {
            let i = i as u32;
            if n.fanout > 1 && !matches!(n.kind, SubjectKind::Leaf(_)) && !root_net.contains_key(&i)
            {
                cover_roots.push(i);
            }
        }
        cover_roots.sort_unstable();

        // Assign output nets to every cover root up front so gates can
        // reference them regardless of emission order.
        for &r in &cover_roots {
            let net = match root_net.get(&r).and_then(|v| v.first()) {
                Some(&n) => self.netlist.intern(self.network.net_name(n)),
                None => self.netlist.fresh(&format!("map${r}")),
            };
            self.net_of[r as usize] = Some(net);
        }

        // Cover each tree (children precede parents in the arena, so
        // ascending order is a valid dependency order).
        for &r in &cover_roots {
            self.cover_tree(r)?;
        }

        // Extra roots sharing a subject node get buffers, in ascending
        // subject-node order (the map's order), so the gate order repeats.
        for (&idx, nets) in &root_net {
            if nets.len() > 1 {
                let src = self.net_of[idx as usize].expect("cover roots have nets");
                for &extra in &nets[1..] {
                    let out = self.netlist.intern(self.network.net_name(extra));
                    self.netlist.gates.push(Gate {
                        cell: self.buf_cell,
                        inputs: vec![src],
                        output: out,
                        size: 1.0,
                    });
                }
            }
        }

        self.insert_registers()?;
        self.insert_specials()?;
        Ok(())
    }

    fn is_boundary(&self, idx: u32) -> bool {
        let n = &self.graph.nodes[idx as usize];
        matches!(n.kind, SubjectKind::Leaf(_)) || n.fanout > 1
    }

    /// Net carrying the value of a boundary subject node.
    fn boundary_net(&mut self, idx: u32) -> GNet {
        if let Some(g) = self.net_of[idx as usize] {
            return g;
        }
        match self.graph.nodes[idx as usize].kind {
            SubjectKind::Leaf(n) => {
                let g = self.netlist.intern(self.network.net_name(n));
                self.net_of[idx as usize] = Some(g);
                g
            }
            _ => unreachable!("non-leaf boundaries are pre-assigned"),
        }
    }

    fn cover_tree(&mut self, root: u32) -> Result<(), NetlistError> {
        // Leaf root: a buffer from the leaf's net.
        if let SubjectKind::Leaf(n) = self.graph.nodes[root as usize].kind {
            let src = self.netlist.intern(self.network.net_name(n));
            let out = self.net_of[root as usize].expect("cover roots have nets");
            if src != out {
                self.netlist.gates.push(Gate {
                    cell: self.buf_cell,
                    inputs: vec![src],
                    output: out,
                    size: 1.0,
                });
            }
            return Ok(());
        }

        // Bottom-up DP over tree-internal nodes.
        self.solve(root, root)?;
        self.emit(root);
        Ok(())
    }

    fn solve(&mut self, n: u32, root: u32) -> Result<(), NetlistError> {
        if self.best[n as usize].is_some() {
            return Ok(());
        }
        if n != root && self.is_boundary(n) {
            return Ok(()); // external input for this tree
        }
        // Ensure children solved first; only patterns rooted in the
        // node's own kind can match it.
        let patterns = match self.graph.nodes[n as usize].kind {
            SubjectKind::Leaf(_) => return Ok(()),
            SubjectKind::Inv(a) => {
                self.solve(a, root)?;
                &self.inv_patterns
            }
            SubjectKind::Nand(a, b) => {
                self.solve(a, root)?;
                self.solve(b, root)?;
                &self.nand_patterns
            }
        };
        let mut choice: Option<Choice> = None;
        for cp in patterns {
            let mut bindings = [UNBOUND; MAX_PINS];
            if match_pattern(self.graph, cp.pattern, n, n, &mut bindings) {
                // A bound node is a proper descendant of `n`: a boundary
                // (an input of this tree), or a tree-internal node, which
                // the recursion above has solved.
                let mut cost = cp.cost;
                for &b in &bindings[..cp.arity] {
                    assert_ne!(b, UNBOUND, "pattern leaves fully bound");
                    if self.is_boundary(b) {
                        continue;
                    }
                    let c = self.best[b as usize]
                        .as_ref()
                        .expect("tree-internal nodes are solved before their parents");
                    match self.objective {
                        MapObjective::Area => cost += c.cost,
                        MapObjective::Delay => cost = cost.max(cp.cost + c.cost),
                    }
                }
                if choice.as_ref().is_none_or(|c| cost < c.cost) {
                    choice = Some(Choice {
                        cell: cp.cell,
                        bindings,
                        arity: cp.arity,
                        cost,
                    });
                }
            }
        }
        let choice = choice.ok_or_else(|| NetlistError {
            message: format!("no cell pattern matches subject node {n} (library incomplete?)"),
        })?;
        self.best[n as usize] = Some(choice);
        Ok(())
    }

    fn emit(&mut self, n: u32) {
        let choice = self.best[n as usize].expect("emitted nodes are solved");
        let mut inputs = Vec::with_capacity(choice.arity);
        for &b in &choice.bindings[..choice.arity] {
            let net = if self.is_boundary(b) {
                self.boundary_net(b)
            } else if let Some(net) = self.net_of[b as usize] {
                net
            } else {
                // Internal bound node: emit its own gate on a fresh net.
                let fresh = self.netlist.fresh(&format!("m${b}"));
                self.net_of[b as usize] = Some(fresh);
                self.emit(b);
                fresh
            };
            inputs.push(net);
        }
        let output = self.net_of[n as usize].expect("emitted nodes have nets");
        self.netlist.gates.push(Gate {
            cell: choice.cell,
            inputs,
            output,
            size: 1.0,
        });
    }

    fn net_for(&mut self, n: NetId) -> GNet {
        self.netlist.intern(self.network.net_name(n))
    }

    fn insert_registers(&mut self) -> Result<(), NetlistError> {
        let regs = self.network.registers.clone();
        for r in regs {
            let d = self.net_for(r.d);
            let q = self.net_for(r.q);
            let mut clk = self.net_for(r.clock);
            match r.kind {
                ClockKind::Rising | ClockKind::Falling => {
                    let falling = r.kind == ClockKind::Falling;
                    let has_async = r.set.is_some() || r.reset.is_some();
                    // Falling-edge flops with async controls are built from a
                    // rising-edge cell behind a clock inverter.
                    let edge = if falling && has_async {
                        let inv_out = self
                            .netlist
                            .fresh(&format!("{}$ckn", self.network.net_name(r.q)));
                        self.netlist.gates.push(Gate {
                            cell: self.inv_cell,
                            inputs: vec![clk],
                            output: inv_out,
                            size: 1.0,
                        });
                        clk = inv_out;
                        ClockEdge::Rising
                    } else if falling {
                        ClockEdge::Falling
                    } else {
                        ClockEdge::Rising
                    };
                    let function = CellFunction::Dff {
                        edge,
                        set: r.set.is_some(),
                        reset: r.reset.is_some(),
                    };
                    let cell = self
                        .lib
                        .id_by_function(&function)
                        .ok_or_else(|| NetlistError {
                            message: format!("library lacks {function:?}"),
                        })?;
                    let mut inputs = vec![d, clk];
                    if let Some(s) = r.set {
                        inputs.push(self.net_for(s));
                    }
                    if let Some(s) = r.reset {
                        inputs.push(self.net_for(s));
                    }
                    self.netlist.gates.push(Gate {
                        cell,
                        inputs,
                        output: q,
                        size: 1.0,
                    });
                }
                ClockKind::High | ClockKind::Low => {
                    if r.set.is_some() || r.reset.is_some() {
                        return Err(NetlistError {
                            message: "latches with asynchronous set/reset are not supported".into(),
                        });
                    }
                    let level = if r.kind == ClockKind::High {
                        LatchLevel::High
                    } else {
                        LatchLevel::Low
                    };
                    let cell = self
                        .lib
                        .id_by_function(&CellFunction::Latch { level })
                        .ok_or_else(|| NetlistError {
                            message: "library lacks latch cells".into(),
                        })?;
                    self.netlist.gates.push(Gate {
                        cell,
                        inputs: vec![d, clk],
                        output: q,
                        size: 1.0,
                    });
                }
            }
        }
        Ok(())
    }

    fn insert_specials(&mut self) -> Result<(), NetlistError> {
        let specials = self.network.specials.clone();
        for s in specials {
            match s {
                Special::Buf { input, output } => {
                    let (i, o) = (self.net_for(input), self.net_for(output));
                    self.netlist.gates.push(Gate {
                        cell: self.buf_cell,
                        inputs: vec![i],
                        output: o,
                        size: 1.0,
                    });
                }
                Special::Schmitt { input, output } => {
                    let cell = self.require(&CellFunction::Schmitt)?;
                    let (i, o) = (self.net_for(input), self.net_for(output));
                    self.netlist.gates.push(Gate {
                        cell,
                        inputs: vec![i],
                        output: o,
                        size: 1.0,
                    });
                }
                Special::Delay {
                    input,
                    output,
                    ns: _,
                } => {
                    let cell = self.require(&CellFunction::Delay)?;
                    let (i, o) = (self.net_for(input), self.net_for(output));
                    self.netlist.gates.push(Gate {
                        cell,
                        inputs: vec![i],
                        output: o,
                        size: 1.0,
                    });
                }
                Special::Tristate {
                    data,
                    enable,
                    output,
                } => {
                    let cell = self.require(&CellFunction::Tribuf)?;
                    let (d, e, o) = (
                        self.net_for(data),
                        self.net_for(enable),
                        self.net_for(output),
                    );
                    self.netlist.gates.push(Gate {
                        cell,
                        inputs: vec![d, e],
                        output: o,
                        size: 1.0,
                    });
                }
                Special::WireOr { inputs, output } => {
                    let cell = self.require(&CellFunction::WiredOr(4))?;
                    let arity = self.lib.cell(cell).inputs.len();
                    let tie0 = self.require(&CellFunction::Tie0)?;
                    let mut nets: Vec<GNet> = inputs.iter().map(|&n| self.net_for(n)).collect();
                    let out = self.net_for(output);
                    // Cascade if wider than the cell; pad with constant 0.
                    while nets.len() > arity {
                        let chunk: Vec<GNet> = nets.drain(..arity).collect();
                        let mid = self.netlist.fresh("wor$c");
                        self.netlist.gates.push(Gate {
                            cell,
                            inputs: chunk,
                            output: mid,
                            size: 1.0,
                        });
                        nets.insert(0, mid);
                    }
                    while nets.len() < arity {
                        let zero = self.netlist.fresh("wor$z");
                        self.netlist.gates.push(Gate {
                            cell: tie0,
                            inputs: vec![],
                            output: zero,
                            size: 1.0,
                        });
                        nets.push(zero);
                    }
                    self.netlist.gates.push(Gate {
                        cell,
                        inputs: nets,
                        output: out,
                        size: 1.0,
                    });
                }
            }
        }
        Ok(())
    }

    fn require(&self, f: &CellFunction) -> Result<CellId, NetlistError> {
        self.lib.id_by_function(f).ok_or_else(|| NetlistError {
            message: format!("library lacks {f:?}"),
        })
    }
}

/// Structural pattern match at `node`. Internal pattern nodes may only
/// consume tree-internal subject nodes (fanout 1, except the match root).
fn match_pattern(
    g: &SubjectGraph,
    pattern: &Pattern,
    node: u32,
    match_root: u32,
    bindings: &mut [u32; MAX_PINS],
) -> bool {
    match pattern {
        Pattern::Leaf(i) => {
            let slot = &mut bindings[*i as usize];
            if *slot == UNBOUND {
                *slot = node;
                true
            } else {
                *slot == node
            }
        }
        Pattern::Inv(p) => {
            if node != match_root && is_internal_blocked(g, node) {
                return false;
            }
            match g.nodes[node as usize].kind {
                SubjectKind::Inv(a) => match_pattern(g, p, a, match_root, bindings),
                _ => false,
            }
        }
        Pattern::Nand(pa, pb) => {
            if node != match_root && is_internal_blocked(g, node) {
                return false;
            }
            match g.nodes[node as usize].kind {
                SubjectKind::Nand(a, b) => {
                    let save = *bindings;
                    if match_pattern(g, pa, a, match_root, bindings)
                        && match_pattern(g, pb, b, match_root, bindings)
                    {
                        return true;
                    }
                    *bindings = save;
                    match_pattern(g, pa, b, match_root, bindings)
                        && match_pattern(g, pb, a, match_root, bindings)
                }
                _ => false,
            }
        }
    }
}

fn is_internal_blocked(g: &SubjectGraph, node: u32) -> bool {
    let n = &g.nodes[node as usize];
    matches!(n.kind, SubjectKind::Leaf(_)) || n.fanout > 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use icdb_iif::{expand, parse, NoModules};

    fn synth(src: &str, params: &[(&str, i64)]) -> (Network, GateNetlist, Library) {
        let lib = Library::standard();
        let m = parse(src).unwrap();
        let flat = expand(&m, params, &NoModules).unwrap();
        let mut net = Network::from_flat(&flat).unwrap();
        net.sweep();
        for node in &mut net.nodes {
            node.cover = crate::minimize::minimize(node.cover.clone());
        }
        net.sweep();
        let nl = map_network(&net, &lib, MapObjective::Area).unwrap();
        (net, nl, lib)
    }

    /// Check mapped netlist against network semantics on given inputs.
    fn check_equiv(net: &Network, nl: &GateNetlist, lib: &Library, rounds: usize) {
        use std::collections::HashMap;
        let mut rng: u64 = 0x243F6A8885A308D3;
        for _ in 0..rounds {
            let mut given = HashMap::new();
            for &i in &net.inputs {
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                given.insert(i, rng >> 63 == 1);
            }
            let want = net.eval_comb(&given).unwrap();
            // Evaluate the netlist.
            let order = nl.comb_topo_order(lib).unwrap();
            let mut vals: HashMap<GNet, bool> = HashMap::new();
            for (&n, &v) in &given {
                vals.insert(nl.net_id(net.net_name(n)).unwrap(), v);
            }
            for gi in order {
                let g = &nl.gates[gi];
                let cell = lib.cell(g.cell);
                let ins: Vec<bool> = g.inputs.iter().map(|n| vals[n]).collect();
                let v = eval_cell(&cell.function, &ins);
                vals.insert(g.output, v);
            }
            for &o in &net.outputs {
                let got = vals[&nl.net_id(net.net_name(o)).unwrap()];
                assert_eq!(got, want[&o], "output {} differs", net.net_name(o));
            }
        }
    }

    fn eval_cell(f: &CellFunction, ins: &[bool]) -> bool {
        match f {
            CellFunction::Inv => !ins[0],
            CellFunction::Buf | CellFunction::Schmitt | CellFunction::Delay => ins[0],
            CellFunction::Nand(_) => !ins.iter().all(|&b| b),
            CellFunction::Nor(_) => !ins.iter().any(|&b| b),
            CellFunction::And(_) => ins.iter().all(|&b| b),
            CellFunction::Or(_) => ins.iter().any(|&b| b),
            CellFunction::Xor => ins[0] ^ ins[1],
            CellFunction::Xnor => !(ins[0] ^ ins[1]),
            CellFunction::Aoi21 => !((ins[0] && ins[1]) || ins[2]),
            CellFunction::Aoi22 => !((ins[0] && ins[1]) || (ins[2] && ins[3])),
            CellFunction::Oai21 => !((ins[0] || ins[1]) && ins[2]),
            CellFunction::Oai22 => !((ins[0] || ins[1]) && (ins[2] || ins[3])),
            CellFunction::Mux21 => {
                if ins[2] {
                    ins[1]
                } else {
                    ins[0]
                }
            }
            CellFunction::Tie0 => false,
            CellFunction::Tie1 => true,
            CellFunction::WiredOr(_) => ins.iter().any(|&b| b),
            CellFunction::Tribuf => ins[0],
            other => panic!("sequential cell {other:?} in combinational eval"),
        }
    }

    #[test]
    fn maps_full_adder_correctly() {
        let (net, nl, lib) = synth(
            "NAME: FA; INORDER: A, B, CIN; OUTORDER: S, COUT;
             { S = A (+) B (+) CIN; COUT = A*B + A*CIN + B*CIN; }",
            &[],
        );
        check_equiv(&net, &nl, &lib, 16);
        // XOR cells should be used for the sum.
        let h = nl.cell_histogram(&lib);
        assert!(h.contains_key("XOR2") || h.contains_key("XNOR2"), "{h:?}");
    }

    #[test]
    fn maps_register_to_dff_sr() {
        let (_, nl, lib) = synth(
            "NAME: R; INORDER: D, CIN, CLK, LOAD; OUTORDER: Q;
             { Q = (Q (+) CIN) @(~r CLK) ~a(0/(!LOAD*!D), 1/(!LOAD*D)); }",
            &[],
        );
        let h = nl.cell_histogram(&lib);
        assert_eq!(h.get("DFF_SR"), Some(&1), "{h:?}");
    }

    #[test]
    fn maps_mux_to_mux_cell() {
        let (net, nl, lib) = synth(
            "NAME: M; INORDER: A, B, S; OUTORDER: O; { O = !S*A + S*B; }",
            &[],
        );
        check_equiv(&net, &nl, &lib, 8);
        let h = nl.cell_histogram(&lib);
        assert!(h.contains_key("MUX21"), "expected MUX21 in {h:?}");
    }

    #[test]
    fn complex_gate_beats_discrete_gates_on_area() {
        // !(ab + c) should map to a single AOI21 rather than AND+NOR.
        let (net, nl, lib) = synth(
            "NAME: C; INORDER: A, B, C; OUTORDER: O; { O = !(A*B + C); }",
            &[],
        );
        check_equiv(&net, &nl, &lib, 8);
        let h = nl.cell_histogram(&lib);
        assert!(h.contains_key("AOI21") || h.contains_key("OAI21"), "{h:?}");
        assert!(
            nl.gates.len() <= 2,
            "expected one complex gate, got {:?}",
            h
        );
    }

    #[test]
    fn multi_fanout_node_becomes_shared_gate() {
        let (net, nl, lib) = synth(
            "NAME: F; INORDER: A, B, C, D; OUTORDER: O, P;
             PIIFVARIABLE: T;
             { T = A * B; O = T + C; P = T + D; }",
            &[],
        );
        check_equiv(&net, &nl, &lib, 16);
    }

    #[test]
    fn adder_16_bit_maps_and_verifies() {
        let src = "
NAME: ADDER;
PARAMETER: size;
INORDER: I0[size], I1[size], Cin;
OUTORDER: O[size], Cout;
PIIFVARIABLE: C[size+1];
VARIABLE: i;
{
  C[0] = Cin;
  #for(i=0; i<size; i++)
  {
    O[i] = I0[i] (+) I1[i] (+) C[i];
    C[i+1] = I0[i]*I1[i] + I0[i]*C[i] + I1[i]*C[i];
  }
  Cout = C[size];
}";
        let (net, nl, lib) = synth(src, &[("size", 16)]);
        check_equiv(&net, &nl, &lib, 8);
        assert!(
            nl.gates.len() >= 32,
            "16-bit adder should have plenty of gates"
        );
    }

    #[test]
    fn delay_objective_not_worse_in_depth() {
        let src = "NAME: W; INORDER: A,B,C,D,E,F,G,H; OUTORDER: O;
                   { O = A*B*C*D + E*F*G*H; }";
        let lib = Library::standard();
        let m = parse(src).unwrap();
        let flat = expand(&m, &[], &NoModules).unwrap();
        let mut net = Network::from_flat(&flat).unwrap();
        net.sweep();
        let area = map_network(&net, &lib, MapObjective::Area).unwrap();
        let delay = map_network(&net, &lib, MapObjective::Delay).unwrap();
        area.validate(&lib).unwrap();
        delay.validate(&lib).unwrap();
    }

    #[test]
    fn tristate_and_wor_inserted() {
        let (_, nl, lib) = synth(
            "NAME: T; INORDER: A, B, EN; OUTORDER: O;
             PIIFVARIABLE: X, Y;
             { X = A ~t EN; Y = B ~t !EN; O = X ~w Y; }",
            &[],
        );
        let h = nl.cell_histogram(&lib);
        assert_eq!(h.get("TRIBUF"), Some(&2), "{h:?}");
        assert_eq!(h.get("WOR"), Some(&1), "{h:?}");
    }

    /// Extra outputs that share a subject node get their BUFs in
    /// ascending subject-node order, so every synthesis of a module emits
    /// the same gates in the same order.
    #[test]
    fn shared_root_buffers_come_in_one_order() {
        let src = "NAME: S; INORDER: C, D, E, F; OUTORDER: O1, O2, O3, O4;
                   { O1 = !(C*D); O2 = !(C*D); O3 = !(E*F); O4 = !(E*F); }";
        let lib = Library::standard();
        let flat = expand(&parse(src).unwrap(), &[], &NoModules).unwrap();
        let outputs = || {
            let nl = crate::synthesize(&flat, &lib, &crate::SynthOptions::default()).unwrap();
            let outputs: Vec<String> = nl
                .gates
                .iter()
                .map(|g| nl.net_name(g.output).to_string())
                .collect();
            outputs
        };
        let first = outputs();
        assert!(first.iter().any(|o| o == "O2") && first.iter().any(|o| o == "O4"));
        for _ in 0..50 {
            assert_eq!(outputs(), first);
        }
    }

    #[test]
    fn passthrough_output_gets_buffer() {
        let (_, nl, lib) = synth("NAME: P; INORDER: A; OUTORDER: O; { O = A; }", &[]);
        let h = nl.cell_histogram(&lib);
        assert_eq!(h.get("BUF"), Some(&1), "{h:?}");
        nl.validate(&lib).unwrap();
    }
}
