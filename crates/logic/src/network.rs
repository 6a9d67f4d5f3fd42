//! The multi-level boolean network: the synthesis IR between expanded IIF
//! and the mapped gate netlist.
//!
//! Step 1 of the MILO flow (paper §4.3.1) "removes the sequential
//! constructs, creating a set of boolean equations": building a [`Network`]
//! from a [`FlatModule`] splits every clocked equation into a [`Register`]
//! plus combinational cones for its data, clock and asynchronous set/reset
//! conditions. Interface operators (`~b ~s ~d ~t ~w`) become [`Special`]
//! elements preserved through optimization.

use crate::cube::{Cover, Cube, Polarity};
use icdb_iif::{ClockKind, FlatEquation, FlatExpr, FlatModule};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Maximum cubes allowed while flattening one expression cone; larger
/// intermediates are cut by materializing sub-expressions as nodes.
const MAX_CONE_CUBES: usize = 256;

/// Error produced while building or transforming a network.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkError {
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "network error: {}", self.message)
    }
}

impl std::error::Error for NetworkError {}

fn nerr(message: impl Into<String>) -> NetworkError {
    NetworkError {
        message: message.into(),
    }
}

/// Stable handle for a net inside a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub(crate) u32);

impl NetId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A combinational node: `output = cover(fanins)`.
#[derive(Debug, Clone)]
pub struct Node {
    /// Net driven by this node.
    pub output: NetId,
    /// Ordered fanin nets; cover variable `i` refers to `fanins[i]`.
    pub fanins: Vec<NetId>,
    /// Sum-of-products over the fanins.
    pub cover: Cover,
}

/// A sequential element extracted from a clocked IIF equation.
#[derive(Debug, Clone)]
pub struct Register {
    /// Output net (the flip-flop/latch Q).
    pub q: NetId,
    /// Net carrying the next-state (D) value.
    pub d: NetId,
    /// Net carrying the clock.
    pub clock: NetId,
    /// Edge/level kind (`~r ~f ~h ~l`).
    pub kind: ClockKind,
    /// Net holding the asynchronous set condition (Q := 1), if any.
    pub set: Option<NetId>,
    /// Net holding the asynchronous reset condition (Q := 0), if any.
    pub reset: Option<NetId>,
}

/// Interface elements preserved structurally through synthesis.
#[derive(Debug, Clone)]
pub enum Special {
    /// `~b` buffer.
    Buf {
        /// Input net.
        input: NetId,
        /// Output net.
        output: NetId,
    },
    /// `~s` schmitt trigger.
    Schmitt {
        /// Input net.
        input: NetId,
        /// Output net.
        output: NetId,
    },
    /// `~d` fixed delay element.
    Delay {
        /// Input net.
        input: NetId,
        /// Output net.
        output: NetId,
        /// Delay in ns.
        ns: f64,
    },
    /// `~t` tri-state driver.
    Tristate {
        /// Data input.
        data: NetId,
        /// Active-high enable.
        enable: NetId,
        /// Output net (floats when disabled).
        output: NetId,
    },
    /// `~w` wired-or resolution.
    WireOr {
        /// Driver nets.
        inputs: Vec<NetId>,
        /// Resolved output.
        output: NetId,
    },
}

impl Special {
    /// The output net of the element.
    pub fn output(&self) -> NetId {
        match self {
            Special::Buf { output, .. }
            | Special::Schmitt { output, .. }
            | Special::Delay { output, .. }
            | Special::Tristate { output, .. }
            | Special::WireOr { output, .. } => *output,
        }
    }

    /// The input nets of the element, without allocating: this sits on the
    /// sweep/eliminate/eval hot loops, so it yields ids in place instead of
    /// building a `Vec` per call.
    pub fn inputs(&self) -> SpecialInputs<'_> {
        SpecialInputs {
            special: self,
            next: 0,
        }
    }
}

/// Non-allocating iterator over a [`Special`] element's input nets.
#[derive(Debug, Clone)]
pub struct SpecialInputs<'a> {
    special: &'a Special,
    next: usize,
}

impl Iterator for SpecialInputs<'_> {
    type Item = NetId;

    fn next(&mut self) -> Option<NetId> {
        let i = self.next;
        self.next += 1;
        match self.special {
            Special::Buf { input, .. }
            | Special::Schmitt { input, .. }
            | Special::Delay { input, .. } => (i == 0).then_some(*input),
            Special::Tristate { data, enable, .. } => match i {
                0 => Some(*data),
                1 => Some(*enable),
                _ => None,
            },
            Special::WireOr { inputs, .. } => inputs.get(i).copied(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let total = match self.special {
            Special::Buf { .. } | Special::Schmitt { .. } | Special::Delay { .. } => 1,
            Special::Tristate { .. } => 2,
            Special::WireOr { inputs, .. } => inputs.len(),
        };
        let left = total.saturating_sub(self.next);
        (left, Some(left))
    }
}

impl ExactSizeIterator for SpecialInputs<'_> {}

/// The multi-level boolean network.
///
/// Net names are interned as shared [`Arc<str>`], so clones share name
/// storage instead of reallocating it.
#[derive(Debug, Clone)]
pub struct Network {
    /// Design name.
    pub name: String,
    names: Vec<Arc<str>>,
    by_name: HashMap<Arc<str>, NetId>,
    /// Primary inputs, in port order.
    pub inputs: Vec<NetId>,
    /// Primary outputs, in port order.
    pub outputs: Vec<NetId>,
    /// Combinational nodes.
    pub nodes: Vec<Node>,
    /// Sequential elements.
    pub registers: Vec<Register>,
    /// Interface elements.
    pub specials: Vec<Special>,
    /// Nets tied to a constant.
    pub constants: HashMap<NetId, bool>,
}

impl Network {
    /// Builds a network from an expanded IIF module.
    ///
    /// # Errors
    /// Fails on nested sequential operators, combinational cycles through
    /// node substitution limits, or malformed wired-or/tri-state usage.
    pub fn from_flat(flat: &FlatModule) -> Result<Network, NetworkError> {
        let mut net = Network {
            name: flat.name.clone(),
            names: Vec::new(),
            by_name: HashMap::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            nodes: Vec::new(),
            registers: Vec::new(),
            specials: Vec::new(),
            constants: HashMap::new(),
        };
        for p in &flat.inputs {
            let id = net.intern(p);
            net.inputs.push(id);
        }
        for p in &flat.outputs {
            let id = net.intern(p);
            net.outputs.push(id);
        }
        for eq in &flat.equations {
            net.lower_equation(eq)?;
        }
        Ok(net)
    }

    /// Interns a net name (one shared allocation per distinct name).
    pub fn intern(&mut self, name: &str) -> NetId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = NetId(self.names.len() as u32);
        let shared: Arc<str> = Arc::from(name);
        self.names.push(shared.clone());
        self.by_name.insert(shared, id);
        id
    }

    /// Net id by name.
    pub fn net_id(&self, name: &str) -> Option<NetId> {
        self.by_name.get(name).copied()
    }

    /// Name of a net.
    pub fn net_name(&self, id: NetId) -> &str {
        &self.names[id.index()]
    }

    /// Number of interned nets.
    pub fn net_count(&self) -> usize {
        self.names.len()
    }

    /// Creates a fresh internal net with a unique name derived from `hint`.
    pub fn fresh_net(&mut self, hint: &str) -> NetId {
        let mut name = hint.to_string();
        let mut k = 0;
        while self.by_name.contains_key(name.as_str()) {
            k += 1;
            name = format!("{hint}${k}");
        }
        self.intern(&name)
    }

    /// The combinational node driving `net`, if any.
    pub fn node_for(&self, net: NetId) -> Option<&Node> {
        self.nodes.iter().find(|n| n.output == net)
    }

    /// Total literal count over all node covers (optimization cost metric).
    pub fn literal_count(&self) -> usize {
        self.nodes.iter().map(|n| n.cover.literal_count()).sum()
    }

    fn lower_equation(&mut self, eq: &FlatEquation) -> Result<(), NetworkError> {
        let lhs = self.intern(&eq.lhs);
        match &eq.rhs {
            FlatExpr::At { .. } | FlatExpr::Async { .. } => self.lower_register(lhs, &eq.rhs),
            // Interface operators at the top of an equation drive the
            // target net directly — inserting a buffer node behind a
            // tri-state would destroy its high-impedance state.
            FlatExpr::Tristate { data, enable } => {
                let d = self.materialize(data, &format!("{}$td", eq.lhs))?;
                let e = self.materialize(enable, &format!("{}$te", eq.lhs))?;
                self.specials.push(Special::Tristate {
                    data: d,
                    enable: e,
                    output: lhs,
                });
                Ok(())
            }
            FlatExpr::WireOr(es) => {
                let mut ins = Vec::new();
                for (i, e) in es.iter().enumerate() {
                    ins.push(self.materialize(e, &format!("{}$w{i}", eq.lhs))?);
                }
                self.specials.push(Special::WireOr {
                    inputs: ins,
                    output: lhs,
                });
                Ok(())
            }
            FlatExpr::Buf(e) => {
                let input = self.materialize(e, &format!("{}$bin", eq.lhs))?;
                self.specials.push(Special::Buf { input, output: lhs });
                Ok(())
            }
            FlatExpr::Schmitt(e) => {
                let input = self.materialize(e, &format!("{}$sin", eq.lhs))?;
                self.specials.push(Special::Schmitt { input, output: lhs });
                Ok(())
            }
            FlatExpr::Delay(e, ns) => {
                let input = self.materialize(e, &format!("{}$din", eq.lhs))?;
                self.specials.push(Special::Delay {
                    input,
                    output: lhs,
                    ns: *ns,
                });
                Ok(())
            }
            other => {
                let cone = self.build_cone(other, &eq.lhs)?;
                self.finish_node(lhs, cone);
                Ok(())
            }
        }
    }

    fn lower_register(&mut self, q: NetId, rhs: &FlatExpr) -> Result<(), NetworkError> {
        let (at, asyncs): (&FlatExpr, &[icdb_iif::FlatAsync]) = match rhs {
            FlatExpr::Async { base, entries } => (base, entries),
            at @ FlatExpr::At { .. } => (at, &[]),
            _ => unreachable!(),
        };
        let FlatExpr::At { data, clock } = at else {
            return Err(nerr("~a must wrap a clocked @ expression"));
        };
        let q_name = self.net_name(q).to_string();
        let d = self.materialize(data, &format!("{q_name}$D"))?;
        let clk = self.materialize(&clock.expr, &format!("{q_name}$CK"))?;
        let mut set_conds = Vec::new();
        let mut reset_conds = Vec::new();
        for a in asyncs {
            if a.value {
                set_conds.push(a.cond.clone());
            } else {
                reset_conds.push(a.cond.clone());
            }
        }
        let set = self.materialize_or(&set_conds, &format!("{q_name}$SET"))?;
        let reset = self.materialize_or(&reset_conds, &format!("{q_name}$RST"))?;
        self.registers.push(Register {
            q,
            d,
            clock: clk,
            kind: clock.kind,
            set,
            reset,
        });
        Ok(())
    }

    fn materialize_or(
        &mut self,
        conds: &[FlatExpr],
        hint: &str,
    ) -> Result<Option<NetId>, NetworkError> {
        if conds.is_empty() {
            return Ok(None);
        }
        let expr = if conds.len() == 1 {
            conds[0].clone()
        } else {
            FlatExpr::Or(conds.to_vec())
        };
        Ok(Some(self.materialize(&expr, hint)?))
    }

    /// Lowers `expr` to a net, creating an intermediate node when `expr` is
    /// not already a plain net reference.
    fn materialize(&mut self, expr: &FlatExpr, hint: &str) -> Result<NetId, NetworkError> {
        if let FlatExpr::Net(n) = expr {
            return Ok(self.intern(n));
        }
        let cone = self.build_cone(expr, hint)?;
        // A cone that is exactly one positive literal needs no node.
        if cone.cover.cubes.len() == 1
            && cone.cover.cubes[0].literal_count() == 1
            && cone.fanins.len() == 1
            && cone.cover.cubes[0].get(0) == Polarity::Pos
        {
            return Ok(cone.fanins[0]);
        }
        let out = self.fresh_net(hint);
        self.finish_node(out, cone);
        Ok(out)
    }

    fn finish_node(&mut self, output: NetId, cone: Cone) {
        if cone.fanins.is_empty() {
            let value = !cone.cover.is_zero();
            self.constants.insert(output, value);
            return;
        }
        self.nodes.push(Node {
            output,
            fanins: cone.fanins,
            cover: cone.cover,
        });
    }

    /// Recursively flattens a pure-boolean expression into a cover,
    /// materializing sub-expressions as nodes when the cover would blow up
    /// or when an interface operator forms a boundary.
    fn build_cone(&mut self, expr: &FlatExpr, hint: &str) -> Result<Cone, NetworkError> {
        match expr {
            FlatExpr::Const(b) => Ok(Cone::constant(*b)),
            FlatExpr::Net(n) => {
                let id = self.intern(n);
                Ok(Cone::literal(id))
            }
            FlatExpr::Not(e) => {
                let c = self.build_cone(e, hint)?;
                match c.complement(MAX_CONE_CUBES) {
                    Some(c) => Ok(c),
                    None => {
                        let n = self.materialize(e, &format!("{hint}$n"))?;
                        Ok(Cone::literal(n)
                            .complement(MAX_CONE_CUBES)
                            .expect("literal"))
                    }
                }
            }
            FlatExpr::And(es) => self.build_nary(es, hint, true),
            FlatExpr::Or(es) => self.build_nary(es, hint, false),
            FlatExpr::Xor(a, b) | FlatExpr::Xnor(a, b) => {
                let xnor = matches!(expr, FlatExpr::Xnor(..));
                let ca = self.build_cone_bounded(a, hint)?;
                let cb = self.build_cone_bounded(b, hint)?;
                let combined = Cone::xor(&ca, &cb, xnor, MAX_CONE_CUBES);
                match combined {
                    Some(c) => Ok(c),
                    None => {
                        let na = self.materialize(a, &format!("{hint}$x0"))?;
                        let nb = self.materialize(b, &format!("{hint}$x1"))?;
                        let ca = Cone::literal(na);
                        let cb = Cone::literal(nb);
                        Cone::xor(&ca, &cb, xnor, MAX_CONE_CUBES)
                            .ok_or_else(|| nerr("xor of literals cannot overflow"))
                    }
                }
            }
            FlatExpr::Buf(e) => {
                let input = self.materialize(e, &format!("{hint}$bin"))?;
                let output = self.fresh_net(&format!("{hint}$buf"));
                self.specials.push(Special::Buf { input, output });
                Ok(Cone::literal(output))
            }
            FlatExpr::Schmitt(e) => {
                let input = self.materialize(e, &format!("{hint}$sin"))?;
                let output = self.fresh_net(&format!("{hint}$schmitt"));
                self.specials.push(Special::Schmitt { input, output });
                Ok(Cone::literal(output))
            }
            FlatExpr::Delay(e, ns) => {
                let input = self.materialize(e, &format!("{hint}$din"))?;
                let output = self.fresh_net(&format!("{hint}$delay"));
                self.specials.push(Special::Delay {
                    input,
                    output,
                    ns: *ns,
                });
                Ok(Cone::literal(output))
            }
            FlatExpr::Tristate { data, enable } => {
                let d = self.materialize(data, &format!("{hint}$td"))?;
                let e = self.materialize(enable, &format!("{hint}$te"))?;
                let output = self.fresh_net(&format!("{hint}$tri"));
                self.specials.push(Special::Tristate {
                    data: d,
                    enable: e,
                    output,
                });
                Ok(Cone::literal(output))
            }
            FlatExpr::WireOr(es) => {
                let mut ins = Vec::new();
                for (i, e) in es.iter().enumerate() {
                    ins.push(self.materialize(e, &format!("{hint}$w{i}"))?);
                }
                let output = self.fresh_net(&format!("{hint}$wor"));
                self.specials.push(Special::WireOr {
                    inputs: ins,
                    output,
                });
                Ok(Cone::literal(output))
            }
            FlatExpr::At { .. } | FlatExpr::Async { .. } => Err(nerr(format!(
                "sequential operator nested inside a combinational expression near `{hint}`"
            ))),
        }
    }

    /// Builds a cone but materializes it early if it is not small.
    fn build_cone_bounded(&mut self, e: &FlatExpr, hint: &str) -> Result<Cone, NetworkError> {
        let c = self.build_cone(e, hint)?;
        if c.cover.cubes.len() > 16 {
            let n = self.materialize_cone(c, &format!("{hint}$m"));
            Ok(Cone::literal(n))
        } else {
            Ok(c)
        }
    }

    fn materialize_cone(&mut self, cone: Cone, hint: &str) -> NetId {
        let out = self.fresh_net(hint);
        self.finish_node(out, cone);
        out
    }

    fn build_nary(
        &mut self,
        es: &[FlatExpr],
        hint: &str,
        is_and: bool,
    ) -> Result<Cone, NetworkError> {
        let mut acc = Cone::constant(is_and);
        for (i, e) in es.iter().enumerate() {
            let c = self.build_cone(e, hint)?;
            let next = if is_and {
                Cone::and(&acc, &c, MAX_CONE_CUBES)
            } else {
                Cone::or(&acc, &c, MAX_CONE_CUBES)
            };
            acc = match next {
                Some(n) => n,
                None => {
                    // Split: materialize what we have and the child.
                    let na = self.materialize_cone(acc, &format!("{hint}$a{i}"));
                    let nb = self.materialize(e, &format!("{hint}$b{i}"))?;
                    let ca = Cone::literal(na);
                    let cb = Cone::literal(nb);
                    if is_and {
                        Cone::and(&ca, &cb, MAX_CONE_CUBES).expect("two literals")
                    } else {
                        Cone::or(&ca, &cb, MAX_CONE_CUBES).expect("two literals")
                    }
                }
            };
        }
        Ok(acc)
    }

    /// Constant propagation, buffer aliasing and dead-node removal.
    /// Returns the number of nodes removed.
    pub fn sweep(&mut self) -> usize {
        let before = self.nodes.len();
        loop {
            let mut changed = false;

            // Fold constant fanins into covers.
            let consts = self.constants.clone();
            for node in &mut self.nodes {
                let mut i = 0;
                while i < node.fanins.len() {
                    if let Some(&value) = consts.get(&node.fanins[i]) {
                        node.cover = substitute_constant(&node.cover, i, value);
                        node.fanins.remove(i);
                        node.cover = drop_var(&node.cover, i);
                        changed = true;
                    } else {
                        i += 1;
                    }
                }
            }

            // Nodes that became constant.
            let mut new_consts = Vec::new();
            self.nodes.retain(|n| {
                if n.fanins.is_empty()
                    || n.cover.is_zero()
                    || n.cover.cubes.iter().any(Cube::is_universe)
                {
                    let value = !n.cover.is_zero();
                    new_consts.push((n.output, value));
                    false
                } else {
                    true
                }
            });
            for (net, v) in new_consts {
                self.constants.insert(net, v);
                changed = true;
            }

            // Alias single-positive-literal buffer nodes (unless output is a
            // primary output — those keep their name/driver).
            let mut alias: HashMap<NetId, NetId> = HashMap::new();
            self.nodes.retain(|n| {
                let is_buffer = n.cover.cubes.len() == 1
                    && n.fanins.len() == 1
                    && n.cover.cubes[0].get(0) == Polarity::Pos
                    && n.cover.cubes[0].literal_count() == 1;
                if is_buffer && !self.outputs.contains(&n.output) {
                    alias.insert(n.output, n.fanins[0]);
                    false
                } else {
                    true
                }
            });
            if !alias.is_empty() {
                changed = true;
                let resolve = |mut id: NetId| {
                    let mut guard = 0;
                    while let Some(&next) = alias.get(&id) {
                        id = next;
                        guard += 1;
                        if guard > alias.len() {
                            break;
                        }
                    }
                    id
                };
                for node in &mut self.nodes {
                    for f in &mut node.fanins {
                        *f = resolve(*f);
                    }
                }
                for r in &mut self.registers {
                    r.d = resolve(r.d);
                    r.clock = resolve(r.clock);
                    if let Some(s) = r.set {
                        r.set = Some(resolve(s));
                    }
                    if let Some(s) = r.reset {
                        r.reset = Some(resolve(s));
                    }
                }
                for s in &mut self.specials {
                    match s {
                        Special::Buf { input, .. }
                        | Special::Schmitt { input, .. }
                        | Special::Delay { input, .. } => *input = resolve(*input),
                        Special::Tristate { data, enable, .. } => {
                            *data = resolve(*data);
                            *enable = resolve(*enable);
                        }
                        Special::WireOr { inputs, .. } => {
                            for i in inputs {
                                *i = resolve(*i);
                            }
                        }
                    }
                }
            }

            // Dead-node removal.
            let mut used: std::collections::HashSet<NetId> = self.outputs.iter().copied().collect();
            for n in &self.nodes {
                used.extend(n.fanins.iter().copied());
            }
            for r in &self.registers {
                used.insert(r.d);
                used.insert(r.clock);
                used.extend(r.set);
                used.extend(r.reset);
            }
            for s in &self.specials {
                used.extend(s.inputs());
            }
            let n0 = self.nodes.len();
            self.nodes.retain(|n| used.contains(&n.output));
            if self.nodes.len() != n0 {
                changed = true;
            }

            if !changed {
                break;
            }
        }
        before.saturating_sub(self.nodes.len())
    }

    /// Collapses single-fanout nodes into their consumer when the collapsed
    /// cover stays small (MIS `eliminate`). Returns nodes eliminated.
    pub fn eliminate(&mut self, max_support: usize, max_cubes: usize) -> usize {
        let mut eliminated = 0;
        loop {
            // Count fanouts of each net.
            let mut fanout = vec![0usize; self.net_count()];
            for n in &self.nodes {
                for f in &n.fanins {
                    fanout[f.index()] += 1;
                }
            }
            for r in &self.registers {
                for f in [Some(r.d), Some(r.clock), r.set, r.reset]
                    .into_iter()
                    .flatten()
                {
                    fanout[f.index()] += 1;
                }
            }
            for s in &self.specials {
                for f in s.inputs() {
                    fanout[f.index()] += 1;
                }
            }

            let mut victim: Option<(usize, usize)> = None; // (producer, consumer)
            'search: for (pi, p) in self.nodes.iter().enumerate() {
                if self.outputs.contains(&p.output) {
                    continue;
                }
                if fanout[p.output.index()] != 1 {
                    continue;
                }
                for (ci, c) in self.nodes.iter().enumerate() {
                    if ci != pi && c.fanins.contains(&p.output) {
                        // Estimate collapsed support.
                        let mut support: Vec<NetId> = c
                            .fanins
                            .iter()
                            .filter(|&&f| f != p.output)
                            .copied()
                            .collect();
                        for f in &p.fanins {
                            if !support.contains(f) {
                                support.push(*f);
                            }
                        }
                        if support.len() <= max_support {
                            victim = Some((pi, ci));
                        }
                        break 'search;
                    }
                }
            }

            let Some((pi, ci)) = victim else { break };
            let producer = self.nodes[pi].clone();
            let consumer = self.nodes[ci].clone();
            match collapse(&consumer, &producer, max_cubes) {
                Some(new_node) => {
                    self.nodes[ci] = new_node;
                    self.nodes.remove(pi);
                    eliminated += 1;
                }
                None => break,
            }
        }
        eliminated
    }

    /// Evaluates all combinational nodes given values for primary inputs and
    /// register outputs. Returns the value of every computable net.
    ///
    /// # Errors
    /// Fails on combinational cycles.
    pub fn eval_comb(
        &self,
        given: &HashMap<NetId, bool>,
    ) -> Result<HashMap<NetId, bool>, NetworkError> {
        let mut values: HashMap<NetId, bool> = given.clone();
        for (&n, &v) in &self.constants {
            values.insert(n, v);
        }
        let mut remaining: Vec<usize> = (0..self.nodes.len()).collect();
        let mut specials: Vec<usize> = (0..self.specials.len()).collect();
        loop {
            let mut progressed = false;
            remaining.retain(|&i| {
                let node = &self.nodes[i];
                if node.fanins.iter().all(|f| values.contains_key(f)) {
                    let assignment: Vec<bool> = node.fanins.iter().map(|f| values[f]).collect();
                    values.insert(node.output, node.cover.eval(&assignment));
                    progressed = true;
                    false
                } else {
                    true
                }
            });
            specials.retain(|&i| {
                let s = &self.specials[i];
                if s.inputs().all(|f| values.contains_key(&f)) {
                    let v = match s {
                        Special::Buf { input, .. }
                        | Special::Schmitt { input, .. }
                        | Special::Delay { input, .. } => values[input],
                        Special::Tristate { data, .. } => values[data],
                        Special::WireOr { inputs, .. } => inputs.iter().any(|i| values[i]),
                    };
                    values.insert(s.output(), v);
                    progressed = true;
                    false
                } else {
                    true
                }
            });
            if remaining.is_empty() && specials.is_empty() {
                return Ok(values);
            }
            if !progressed {
                return Err(nerr("combinational cycle or missing input in eval"));
            }
        }
    }
}

/// Substitutes variable `v := value` in a cover (cubes requiring the
/// opposite value vanish; matching literals are dropped).
fn substitute_constant(cover: &Cover, v: usize, value: bool) -> Cover {
    let n = cover.num_vars();
    let mut cubes = Vec::new();
    for c in &cover.cubes {
        match (c.get(v), value) {
            (Polarity::Pos, false) | (Polarity::Neg, true) => {}
            _ => {
                let mut c = c.clone();
                c.set(v, Polarity::DontCare);
                cubes.push(c);
            }
        }
    }
    Cover::from_cubes(n, cubes)
}

/// Removes variable slot `v` from a cover (it must be don't-care in every
/// cube), shrinking the variable space by one.
fn drop_var(cover: &Cover, v: usize) -> Cover {
    let n = cover.num_vars();
    let mut cubes = Vec::new();
    for c in &cover.cubes {
        debug_assert_eq!(c.get(v), Polarity::DontCare);
        let mut nc = Cube::universe(n - 1);
        for i in 0..n {
            if i == v {
                continue;
            }
            let j = if i < v { i } else { i - 1 };
            nc.set(j, c.get(i));
        }
        cubes.push(nc);
    }
    Cover::from_cubes(n - 1, cubes)
}

/// Substitutes `producer`'s function for its output variable inside
/// `consumer`: `f(x := g) = f|x=1·g + f|x=0·!g`.
fn collapse(consumer: &Node, producer: &Node, max_cubes: usize) -> Option<Node> {
    let x = consumer.fanins.iter().position(|&f| f == producer.output)?;
    // New fanin list: consumer minus x, plus producer fanins.
    let mut fanins: Vec<NetId> = consumer
        .fanins
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != x)
        .map(|(_, &f)| f)
        .collect();
    let mut prod_map = Vec::new();
    for f in &producer.fanins {
        let idx = match fanins.iter().position(|g| g == f) {
            Some(i) => i,
            None => {
                fanins.push(*f);
                fanins.len() - 1
            }
        };
        prod_map.push(idx);
    }
    let n = fanins.len();

    // Remap producer cover into the new space.
    let g = remap(&producer.cover, n, &prod_map);
    let g_not = g.complement();
    if g.cubes.len() > max_cubes || g_not.cubes.len() > max_cubes {
        return None;
    }

    // Consumer cofactors (in the new space, with x removed).
    let cons_map: Vec<usize> = (0..consumer.fanins.len())
        .filter(|&i| i != x)
        .enumerate()
        .map(|(newi, _)| newi)
        .collect();
    let f_pos = remap(
        &strip_var(&consumer.cover.cofactor(x, true), x),
        n,
        &cons_map,
    );
    let f_neg = remap(
        &strip_var(&consumer.cover.cofactor(x, false), x),
        n,
        &cons_map,
    );

    let mut cubes = Vec::new();
    for a in &f_pos.cubes {
        for b in &g.cubes {
            if let Some(c) = a.intersect(b) {
                cubes.push(c);
            }
        }
    }
    for a in &f_neg.cubes {
        for b in &g_not.cubes {
            if let Some(c) = a.intersect(b) {
                cubes.push(c);
            }
        }
    }
    if cubes.len() > max_cubes {
        return None;
    }
    let mut cover = Cover::from_cubes(n, cubes);
    cover.remove_contained();
    Some(Node {
        output: consumer.output,
        fanins,
        cover,
    })
}

/// Removes variable `v` (assumed don't-care) by index-shifting.
fn strip_var(cover: &Cover, v: usize) -> Cover {
    drop_var(cover, v)
}

/// Remaps a cover into an `n`-variable space using `map[i] = new index`.
fn remap(cover: &Cover, n: usize, map: &[usize]) -> Cover {
    let mut cubes = Vec::new();
    for c in &cover.cubes {
        let mut nc = Cube::universe(n);
        for (i, &target) in map.iter().enumerate() {
            nc.set(target, c.get(i));
        }
        cubes.push(nc);
    }
    Cover::from_cubes(n, cubes)
}

/// Cone under construction: a cover over an explicit fanin list.
#[derive(Debug, Clone)]
struct Cone {
    fanins: Vec<NetId>,
    cover: Cover,
}

impl Cone {
    fn constant(b: bool) -> Cone {
        Cone {
            fanins: Vec::new(),
            cover: if b { Cover::one(0) } else { Cover::zero(0) },
        }
    }

    fn literal(net: NetId) -> Cone {
        Cone {
            fanins: vec![net],
            cover: Cover::from_cubes(1, vec![Cube::from_literals(1, &[(0, true)])]),
        }
    }

    /// Merges fanin spaces of two cones, returning remapped covers.
    fn unify(a: &Cone, b: &Cone) -> (Vec<NetId>, Cover, Cover) {
        let mut fanins = a.fanins.clone();
        let mut bmap = Vec::new();
        for f in &b.fanins {
            let idx = match fanins.iter().position(|g| g == f) {
                Some(i) => i,
                None => {
                    fanins.push(*f);
                    fanins.len() - 1
                }
            };
            bmap.push(idx);
        }
        let n = fanins.len();
        let amap: Vec<usize> = (0..a.fanins.len()).collect();
        let ca = remap(&a.cover, n, &amap);
        let cb = remap(&b.cover, n, &bmap);
        (fanins, ca, cb)
    }

    fn and(a: &Cone, b: &Cone, limit: usize) -> Option<Cone> {
        let (fanins, ca, cb) = Cone::unify(a, b);
        let mut cubes = Vec::new();
        for x in &ca.cubes {
            for y in &cb.cubes {
                if let Some(c) = x.intersect(y) {
                    cubes.push(c);
                    if cubes.len() > limit {
                        return None;
                    }
                }
            }
        }
        let mut cover = Cover::from_cubes(fanins.len(), cubes);
        cover.remove_contained();
        Some(Cone { fanins, cover }.prune())
    }

    fn or(a: &Cone, b: &Cone, limit: usize) -> Option<Cone> {
        let (fanins, ca, cb) = Cone::unify(a, b);
        let mut cubes = ca.cubes;
        cubes.extend(cb.cubes);
        if cubes.len() > limit {
            return None;
        }
        let mut cover = Cover::from_cubes(fanins.len(), cubes);
        cover.remove_contained();
        Some(Cone { fanins, cover }.prune())
    }

    fn complement(&self, limit: usize) -> Option<Cone> {
        let c = self.cover.complement();
        if c.cubes.len() > limit {
            return None;
        }
        Some(
            Cone {
                fanins: self.fanins.clone(),
                cover: c,
            }
            .prune(),
        )
    }

    fn xor(a: &Cone, b: &Cone, xnor: bool, limit: usize) -> Option<Cone> {
        let na = a.complement(limit)?;
        let nb = b.complement(limit)?;
        let (p, q) = if xnor {
            // a·b + !a·!b
            (Cone::and(a, b, limit)?, Cone::and(&na, &nb, limit)?)
        } else {
            // a·!b + !a·b
            (Cone::and(a, &nb, limit)?, Cone::and(&na, b, limit)?)
        };
        Cone::or(&p, &q, limit)
    }

    /// Drops fanins that no cube references (keeps the variable space tidy).
    fn prune(self) -> Cone {
        let support = self.cover.support();
        if support.len() == self.fanins.len() {
            return self;
        }
        let map: Vec<usize> = (0..support.len()).collect();
        let mut compacted = Cover::zero(support.len());
        let cubes: Vec<Cube> = self
            .cover
            .cubes
            .iter()
            .map(|c| {
                let mut nc = Cube::universe(support.len());
                for (newi, &oldi) in support.iter().enumerate() {
                    nc.set(map[newi], c.get(oldi));
                }
                nc
            })
            .collect();
        compacted.cubes = cubes;
        let fanins = support.iter().map(|&i| self.fanins[i]).collect();
        Cone {
            fanins,
            cover: compacted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icdb_iif::{expand, parse, NoModules};

    fn build(src: &str, params: &[(&str, i64)]) -> Network {
        let m = parse(src).unwrap();
        let flat = expand(&m, params, &NoModules).unwrap();
        Network::from_flat(&flat).unwrap()
    }

    #[test]
    fn adder_builds_combinational_network() {
        let net = build(
            "NAME: ADD1; INORDER: A, B, CIN; OUTORDER: S, COUT;
             { S = A (+) B (+) CIN; COUT = A*B + A*CIN + B*CIN; }",
            &[],
        );
        assert_eq!(net.nodes.len(), 2);
        assert!(net.registers.is_empty());
        // Evaluate: 1 + 1 + 0 = 10b
        let a = net.net_id("A").unwrap();
        let b = net.net_id("B").unwrap();
        let cin = net.net_id("CIN").unwrap();
        let mut given = HashMap::new();
        given.insert(a, true);
        given.insert(b, true);
        given.insert(cin, false);
        let vals = net.eval_comb(&given).unwrap();
        assert!(!vals[&net.net_id("S").unwrap()]);
        assert!(vals[&net.net_id("COUT").unwrap()]);
    }

    #[test]
    fn register_extraction_with_async() {
        let net = build(
            "NAME: R; INORDER: D, CIN, CLK, LOAD; OUTORDER: Q;
             { Q = (Q (+) CIN) @(~r CLK) ~a(0/(!LOAD*!D), 1/(!LOAD*D)); }",
            &[],
        );
        assert_eq!(net.registers.len(), 1);
        let r = &net.registers[0];
        assert_eq!(net.net_name(r.q), "Q");
        assert_eq!(r.kind, ClockKind::Rising);
        assert!(r.set.is_some());
        assert!(r.reset.is_some());
        // D cone must compute Q xor CIN.
        let q = net.net_id("Q").unwrap();
        let cin = net.net_id("CIN").unwrap();
        for (qv, cv) in [(false, false), (false, true), (true, false), (true, true)] {
            let mut given = HashMap::new();
            given.insert(q, qv);
            given.insert(cin, cv);
            given.insert(net.net_id("D").unwrap(), false);
            given.insert(net.net_id("LOAD").unwrap(), true);
            let vals = net.eval_comb(&given).unwrap();
            assert_eq!(vals[&r.d], qv ^ cv);
        }
    }

    #[test]
    fn specials_are_preserved() {
        let net = build(
            "NAME: S; INORDER: A, EN, B; OUTORDER: O, P, Q, W;
             { O = A ~t EN; P = ~b A; Q = ~s B; W = A ~w B; }",
            &[],
        );
        assert_eq!(net.specials.len(), 4);
        assert!(matches!(net.specials[0], Special::Tristate { .. }));
        assert!(matches!(net.specials[1], Special::Buf { .. }));
        assert!(matches!(net.specials[2], Special::Schmitt { .. }));
        assert!(matches!(net.specials[3], Special::WireOr { .. }));
    }

    #[test]
    fn sweep_folds_constants() {
        let mut net = build(
            "NAME: C; INORDER: A; OUTORDER: O;
             PIIFVARIABLE: T;
             { T = 0; O = A * !T; }",
            &[],
        );
        net.sweep();
        // T is constant 0, !T = 1, so O = A: one buffer-ish node or alias.
        let a = net.net_id("A").unwrap();
        let mut given = HashMap::new();
        given.insert(a, true);
        let vals = net.eval_comb(&given).unwrap();
        assert!(vals[&net.net_id("O").unwrap()]);
    }

    #[test]
    fn eliminate_collapses_single_fanout_chain() {
        let mut net = build(
            "NAME: E; INORDER: A, B, C; OUTORDER: O;
             PIIFVARIABLE: T;
             { T = A * B; O = T + C; }",
            &[],
        );
        let before = net.nodes.len();
        let n = net.eliminate(10, 64);
        assert_eq!(n, 1);
        assert_eq!(net.nodes.len(), before - 1);
        // Function preserved: O = A·B + C
        for (a, b, c) in [
            (true, true, false),
            (false, true, false),
            (false, false, true),
        ] {
            let mut given = HashMap::new();
            given.insert(net.net_id("A").unwrap(), a);
            given.insert(net.net_id("B").unwrap(), b);
            given.insert(net.net_id("C").unwrap(), c);
            let vals = net.eval_comb(&given).unwrap();
            assert_eq!(vals[&net.net_id("O").unwrap()], (a && b) || c);
        }
    }

    #[test]
    fn big_xor_chain_splits_instead_of_blowing_up() {
        // 12-input parity: flat SOP would be 2048 cubes; the builder must
        // split into intermediate nodes.
        let src = "NAME: PAR; PARAMETER: size; INORDER: I[size]; OUTORDER: O; VARIABLE: i;
                   { #for(i=0;i<size;i++) O (+)= I[i]; }";
        let net = build(src, &[("size", 12)]);
        // Verify function by evaluation on a few assignments.
        for pattern in [0u32, 1, 0b101010101010, 0xFFF] {
            let mut given = HashMap::new();
            let mut expect = false;
            for i in 0..12 {
                let v = (pattern >> i) & 1 == 1;
                expect ^= v;
                given.insert(net.net_id(&format!("I[{i}]")).unwrap(), v);
            }
            let vals = net.eval_comb(&given).unwrap();
            assert_eq!(
                vals[&net.net_id("O").unwrap()],
                expect,
                "pattern {pattern:b}"
            );
        }
    }

    #[test]
    fn clock_gating_latch_becomes_latch_register() {
        let net = build(
            "NAME: G; INORDER: CLK, ENA; OUTORDER: CLKO;
             { CLKO = CLK @(~l !ENA); }",
            &[],
        );
        assert_eq!(net.registers.len(), 1);
        assert_eq!(net.registers[0].kind, ClockKind::Low);
    }
}
