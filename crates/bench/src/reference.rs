//! Earlier implementations kept as oracles and speedup baselines:
//!
//! * the TILOS sizing loop as it ran before [`icdb::estimate::TimingGraph`]:
//!   every trial move re-runs the full [`estimate_delay`]. It is the oracle
//!   that [`icdb::sizing::size_netlist`] must match bit for bit
//!   (`tests/timing_oracle.rs`) and the baseline of the `explore_sweep`
//!   bench's `sizing` speedup;
//! * the two-level minimizer ([`minimize`] over a heap-allocated
//!   [`Cube`]/[`Cover`]) and the algebraic factoring ([`kernels`],
//!   [`divide`], [`quick_factor`] over sorted literal lists) as they ran
//!   before cubes and products became inline bitsets. They are the oracle
//!   that [`icdb::logic::minimize`] and [`icdb::logic::quick_factor`] must
//!   match exactly (`tests/synthesis_oracle.rs`) and the baseline of the
//!   `explore_sweep` bench's `synthesis` speedup. Literals, polarities and
//!   factor trees are the shipped types.

use icdb::cells::{Library, TECH};
use icdb::estimate::{estimate_delay, DelayReport, LoadSpec};
use icdb::logic::{mk_lit, FactorTree, GateNetlist, Lit, Polarity};
use icdb::sizing::{SizingGoal, SizingResult, Strategy, MAX_MOVES, SIZE_STEP};
use std::collections::BTreeSet;
use std::fmt;

/// Worst violation of `goal` under a full report (≤ 0 means met).
fn violation(goal: &SizingGoal, report: &DelayReport) -> f64 {
    let mut v = f64::NEG_INFINITY;
    if let Some(cw) = goal.clock_width {
        v = v.max(report.clock_width - cw);
    }
    if let Some(d) = goal.worst_delay {
        v = v.max(report.worst_output_delay() - d);
    }
    for (port, bound) in &goal.per_output {
        if let Some(d) = report.output_delay(port) {
            v = v.max(d - bound);
        }
    }
    if v == f64::NEG_INFINITY {
        0.0
    } else {
        v
    }
}

/// Sizes `nl` in place exactly as [`icdb::sizing::size_netlist`] does, with
/// a full static timing analysis per trial move, trying every gate on every
/// move; `trials` counts those analyses.
pub fn size_netlist(
    nl: &mut GateNetlist,
    lib: &Library,
    loads: &LoadSpec,
    strategy: &Strategy,
) -> SizingResult {
    let objective = |report: &DelayReport| -> f64 {
        match strategy {
            Strategy::Constraints(goal) => violation(goal, report),
            Strategy::Fastest => {
                if report.clock_width > 0.0 {
                    report.clock_width.max(report.worst_output_delay())
                } else {
                    report.worst_output_delay().max(report.critical_path)
                }
            }
            Strategy::Cheapest => 0.0,
        }
    };

    let mut report = estimate_delay(nl, lib, loads).expect("sized netlists are acyclic");
    if matches!(strategy, Strategy::Cheapest) {
        let area_width = nl.total_width(lib);
        return SizingResult {
            iterations: 0,
            trials: 0,
            met: true,
            report,
            area_width,
        };
    }

    let (mut iterations, mut trials) = (0, 0);
    loop {
        let current = objective(&report);
        let done = match strategy {
            Strategy::Constraints(_) => current <= 0.0,
            Strategy::Fastest => false,
            Strategy::Cheapest => true,
        };
        if done || iterations >= MAX_MOVES {
            break;
        }

        // Evaluate one bump per gate; keep the best delay/area trade.
        let mut best: Option<(usize, f64, DelayReport)> = None; // (gate, gain ratio, report)
        for gi in 0..nl.gates.len() {
            let old_size = nl.gates[gi].size;
            if old_size >= TECH.max_drive {
                continue;
            }
            let new_size = (old_size * SIZE_STEP).min(TECH.max_drive);
            let cell = lib.cell(nl.gates[gi].cell);
            let area_delta = cell.width(new_size) - cell.width(old_size);
            nl.gates[gi].size = new_size;
            trials += 1;
            let trial = estimate_delay(nl, lib, loads).expect("acyclic");
            nl.gates[gi].size = old_size;
            let gain = current - objective(&trial);
            if gain > 1e-9 {
                let ratio = gain / area_delta.max(1e-9);
                if best.as_ref().is_none_or(|(_, r, _)| ratio > *r) {
                    best = Some((gi, ratio, trial));
                }
            }
        }

        match best {
            Some((gi, _, trial)) => {
                nl.gates[gi].size = (nl.gates[gi].size * SIZE_STEP).min(TECH.max_drive);
                report = trial;
                iterations += 1;
            }
            None => break, // no move improves the objective
        }
    }

    let met = match strategy {
        Strategy::Constraints(goal) => violation(goal, &report) <= 1e-9,
        _ => true,
    };
    let area_width = nl.total_width(lib);
    SizingResult {
        iterations,
        trials,
        met,
        report,
        area_width,
    }
}

// ---------------------------------------------------------------------------
// Two-level minimization: positional-cube algebra over `Vec<u64>` words.
// ---------------------------------------------------------------------------

/// The reference copy of a shipped cover: the same cubes in the same order.
pub fn from_cover(cover: &icdb::logic::Cover) -> Cover {
    let n = cover.num_vars();
    let cubes = cover
        .cubes
        .iter()
        .map(|c| {
            let mut r = Cube::universe(n);
            for v in 0..n {
                r.set(v, c.get(v));
            }
            r
        })
        .collect();
    Cover::from_cubes(n, cubes)
}

const VARS_PER_WORD: usize = 32;

/// A product term over `n` boolean variables.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Cube {
    words: Vec<u64>,
    n: usize,
}

impl Cube {
    /// The universal cube (all don't-cares) over `n` variables.
    pub fn universe(n: usize) -> Cube {
        let nwords = n.div_ceil(VARS_PER_WORD).max(1);
        let mut words = vec![!0u64; nwords];
        // Clear the unused tail so Eq/Hash are canonical.
        let used = n % VARS_PER_WORD;
        if used != 0 {
            words[nwords - 1] = (1u64 << (2 * used)) - 1;
        }
        if n == 0 {
            words[0] = 0;
        }
        Cube { words, n }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.n
    }

    /// Polarity of variable `v`.
    ///
    /// # Panics
    /// Panics if `v >= num_vars()`.
    pub fn get(&self, v: usize) -> Polarity {
        assert!(v < self.n);
        let bits = (self.words[v / VARS_PER_WORD] >> (2 * (v % VARS_PER_WORD))) & 0b11;
        match bits {
            0b01 => Polarity::Neg,
            0b10 => Polarity::Pos,
            0b11 => Polarity::DontCare,
            _ => Polarity::Empty,
        }
    }

    /// Sets the polarity of variable `v`.
    ///
    /// # Panics
    /// Panics if `v >= num_vars()`.
    pub fn set(&mut self, v: usize, p: Polarity) {
        assert!(v < self.n);
        let bits = match p {
            Polarity::Neg => 0b01,
            Polarity::Pos => 0b10,
            Polarity::DontCare => 0b11,
            Polarity::Empty => 0b00,
        };
        let w = v / VARS_PER_WORD;
        let s = 2 * (v % VARS_PER_WORD);
        self.words[w] = (self.words[w] & !(0b11 << s)) | (bits << s);
    }

    /// Builds a cube from `(variable, positive)` literal pairs.
    pub fn from_literals(n: usize, lits: &[(usize, bool)]) -> Cube {
        let mut c = Cube::universe(n);
        for &(v, pos) in lits {
            c.set(v, if pos { Polarity::Pos } else { Polarity::Neg });
        }
        c
    }

    /// True if any variable has the empty (`00`) code.
    pub fn is_empty(&self) -> bool {
        // A variable slot is empty iff both bits are zero.
        for (w, &word) in self.words.iter().enumerate() {
            let vars_here = if (w + 1) * VARS_PER_WORD <= self.n {
                VARS_PER_WORD
            } else {
                self.n - w * VARS_PER_WORD
            };
            for v in 0..vars_here {
                if (word >> (2 * v)) & 0b11 == 0 {
                    return true;
                }
            }
        }
        false
    }

    /// True if every variable is a don't-care (the tautology cube).
    pub fn is_universe(&self) -> bool {
        *self == Cube::universe(self.n)
    }

    /// Number of literals (non-don't-care variables).
    pub fn literal_count(&self) -> usize {
        (0..self.n)
            .filter(|&v| matches!(self.get(v), Polarity::Pos | Polarity::Neg))
            .count()
    }

    /// Bitwise AND of cubes: their intersection as sets of minterms.
    /// Returns `None` when the intersection is empty.
    pub fn intersect(&self, other: &Cube) -> Option<Cube> {
        debug_assert_eq!(self.n, other.n);
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a & b)
            .collect();
        let c = Cube { words, n: self.n };
        if c.is_empty() {
            None
        } else {
            Some(c)
        }
    }

    /// True if `self` contains `other` (every minterm of `other` is in
    /// `self`): bitwise, `other ⊆ self` iff `other & self == other`.
    pub fn contains(&self, other: &Cube) -> bool {
        debug_assert_eq!(self.n, other.n);
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & b == *b)
    }

    /// Number of variables where the two cubes have disjoint codes
    /// (the espresso *distance*; distance 0 means they intersect).
    pub fn distance(&self, other: &Cube) -> usize {
        let mut d = 0;
        for v in 0..self.n {
            let a = self.get(v);
            let b = other.get(v);
            if matches!(
                (a, b),
                (Polarity::Pos, Polarity::Neg) | (Polarity::Neg, Polarity::Pos)
            ) {
                d += 1;
            }
        }
        d
    }

    /// Cofactor of this cube with respect to `literal` of variable `v`.
    /// Returns `None` if the cube requires the opposite literal.
    pub fn cofactor(&self, v: usize, positive: bool) -> Option<Cube> {
        match (self.get(v), positive) {
            (Polarity::Pos, false) | (Polarity::Neg, true) => None,
            _ => {
                let mut c = self.clone();
                c.set(v, Polarity::DontCare);
                Some(c)
            }
        }
    }

    /// Smallest cube containing both (bitwise OR).
    pub fn supercube(&self, other: &Cube) -> Cube {
        debug_assert_eq!(self.n, other.n);
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a | b)
            .collect();
        Cube { words, n: self.n }
    }

    /// Evaluates the cube on an assignment (true = product of literals holds).
    pub fn eval(&self, assignment: &[bool]) -> bool {
        debug_assert_eq!(assignment.len(), self.n);
        (0..self.n).all(|v| match self.get(v) {
            Polarity::Pos => assignment[v],
            Polarity::Neg => !assignment[v],
            Polarity::DontCare => true,
            Polarity::Empty => false,
        })
    }

    /// The variables with a literal in this cube.
    pub fn support(&self) -> Vec<usize> {
        (0..self.n)
            .filter(|&v| matches!(self.get(v), Polarity::Pos | Polarity::Neg))
            .collect()
    }
}

impl fmt::Debug for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for v in 0..self.n {
            let ch = match self.get(v) {
                Polarity::Neg => '0',
                Polarity::Pos => '1',
                Polarity::DontCare => '-',
                Polarity::Empty => '!',
            };
            write!(f, "{ch}")?;
        }
        Ok(())
    }
}

/// A cover: a set of cubes whose union is the represented function.
#[derive(Clone, PartialEq, Eq)]
pub struct Cover {
    /// The product terms.
    pub cubes: Vec<Cube>,
    n: usize,
}

impl Cover {
    /// The empty (constant-0) cover over `n` variables.
    pub fn zero(n: usize) -> Cover {
        Cover {
            cubes: Vec::new(),
            n,
        }
    }

    /// The tautology (constant-1) cover over `n` variables.
    pub fn one(n: usize) -> Cover {
        Cover {
            cubes: vec![Cube::universe(n)],
            n,
        }
    }

    /// A cover from explicit cubes.
    ///
    /// # Panics
    /// Panics if a cube has a different variable count.
    pub fn from_cubes(n: usize, cubes: Vec<Cube>) -> Cover {
        for c in &cubes {
            assert_eq!(c.num_vars(), n, "cube arity mismatch");
        }
        Cover { cubes, n }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.n
    }

    /// True if the cover has no cubes (constant 0).
    pub fn is_zero(&self) -> bool {
        self.cubes.is_empty()
    }

    /// Total literal count (the classic area proxy).
    pub fn literal_count(&self) -> usize {
        self.cubes.iter().map(Cube::literal_count).sum()
    }

    /// Evaluates the cover on an assignment.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        self.cubes.iter().any(|c| c.eval(assignment))
    }

    /// Cofactor of the cover with respect to a literal.
    pub fn cofactor(&self, v: usize, positive: bool) -> Cover {
        let cubes = self
            .cubes
            .iter()
            .filter_map(|c| c.cofactor(v, positive))
            .collect();
        Cover { cubes, n: self.n }
    }

    /// Removes cubes contained in another cube of the cover
    /// (single-cube containment).
    pub fn remove_contained(&mut self) {
        let mut keep = vec![true; self.cubes.len()];
        for i in 0..self.cubes.len() {
            if !keep[i] {
                continue;
            }
            for j in 0..self.cubes.len() {
                if i == j || !keep[j] {
                    continue;
                }
                if self.cubes[j].contains(&self.cubes[i])
                    && (!self.cubes[i].contains(&self.cubes[j]) || i > j)
                {
                    keep[i] = false;
                    break;
                }
            }
        }
        let mut idx = 0;
        self.cubes.retain(|_| {
            let k = keep[idx];
            idx += 1;
            k
        });
    }

    /// Is the cover a tautology (constant 1)?  Unate-recursive paradigm.
    pub fn is_tautology(&self) -> bool {
        // Quick outs.
        if self.cubes.iter().any(Cube::is_universe) {
            return true;
        }
        if self.cubes.is_empty() {
            return false;
        }
        // Unate reduction: a cover unate in a variable is a tautology iff the
        // sub-cover of cubes without that literal is.
        let Some(v) = self.most_binate_var() else {
            // Unate in every variable: tautology iff some universe cube,
            // already checked.
            return false;
        };
        self.cofactor(v, true).is_tautology() && self.cofactor(v, false).is_tautology()
    }

    /// The variable appearing in the most cubes with both polarities;
    /// `None` if the cover is unate.
    fn most_binate_var(&self) -> Option<usize> {
        let mut best: Option<(usize, usize)> = None;
        for v in 0..self.n {
            let mut pos = 0usize;
            let mut neg = 0usize;
            for c in &self.cubes {
                match c.get(v) {
                    Polarity::Pos => pos += 1,
                    Polarity::Neg => neg += 1,
                    _ => {}
                }
            }
            if pos > 0 && neg > 0 {
                let score = pos + neg;
                if best.is_none_or(|(_, s)| score > s) {
                    best = Some((v, score));
                }
            }
        }
        best.map(|(v, _)| v)
    }

    /// Complement via Shannon recursion with single-cube base case.
    pub fn complement(&self) -> Cover {
        if self.cubes.is_empty() {
            return Cover::one(self.n);
        }
        if self.cubes.iter().any(Cube::is_universe) {
            return Cover::zero(self.n);
        }
        if self.cubes.len() == 1 {
            return complement_cube(&self.cubes[0]);
        }
        // Split on the most binate (or first used) variable.
        let v = self
            .most_binate_var()
            .or_else(|| {
                (0..self.n).find(|&v| {
                    self.cubes
                        .iter()
                        .any(|c| matches!(c.get(v), Polarity::Pos | Polarity::Neg))
                })
            })
            .expect("non-trivial cover must use a variable");
        let pos = self.cofactor(v, true).complement();
        let neg = self.cofactor(v, false).complement();
        let mut cubes = Vec::with_capacity(pos.cubes.len() + neg.cubes.len());
        for mut c in pos.cubes {
            c.set(v, Polarity::Pos);
            cubes.push(c);
        }
        for mut c in neg.cubes {
            c.set(v, Polarity::Neg);
            cubes.push(c);
        }
        let mut out = Cover { cubes, n: self.n };
        out.remove_contained();
        out
    }

    /// True if `cube` is covered by this cover (cover ⊇ cube): the cofactor
    /// of the cover with respect to the cube is a tautology.
    pub fn covers_cube(&self, cube: &Cube) -> bool {
        let mut cof = self.clone();
        let mut cubes = Vec::new();
        'next: for c in &cof.cubes {
            let mut r = c.clone();
            for v in 0..self.n {
                match (cube.get(v), c.get(v)) {
                    (Polarity::Pos, Polarity::Neg) | (Polarity::Neg, Polarity::Pos) => {
                        continue 'next;
                    }
                    (Polarity::Pos | Polarity::Neg, _) => r.set(v, Polarity::DontCare),
                    _ => {}
                }
            }
            cubes.push(r);
        }
        cof.cubes = cubes;
        cof.is_tautology()
    }

    /// Union of the variables used by any cube.
    pub fn support(&self) -> Vec<usize> {
        let mut used = vec![false; self.n];
        for c in &self.cubes {
            for v in c.support() {
                used[v] = true;
            }
        }
        (0..self.n).filter(|&v| used[v]).collect()
    }
}

impl fmt::Debug for Cover {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.cubes.is_empty() {
            return write!(f, "0");
        }
        for (i, c) in self.cubes.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            write!(f, "{c:?}")?;
        }
        Ok(())
    }
}

/// De Morgan complement of a single cube: one cube per literal.
fn complement_cube(c: &Cube) -> Cover {
    let n = c.num_vars();
    let mut cubes = Vec::new();
    for v in 0..n {
        match c.get(v) {
            Polarity::Pos => {
                cubes.push(Cube::from_literals(n, &[(v, false)]));
            }
            Polarity::Neg => {
                cubes.push(Cube::from_literals(n, &[(v, true)]));
            }
            _ => {}
        }
    }
    Cover { cubes, n }
}

/// Minimizes `cover` in place, returning the minimized cover.
///
/// The output is logically equivalent to the input (verified by the
/// property tests) and consists of prime, irredundant implicants.
pub fn minimize(cover: Cover) -> Cover {
    let n = cover.num_vars();
    if n == 0 || cover.is_zero() {
        return cover;
    }
    let mut on = cover;
    on.remove_contained();
    if on.cubes.iter().any(Cube::is_universe) {
        return Cover::one(n);
    }
    let off = on.complement();
    if off.is_zero() {
        return Cover::one(n);
    }
    expand(&mut on, &off);
    on.remove_contained();
    irredundant(&mut on);
    on
}

/// EXPAND: greedily raise literals of each cube to don't-care as long as the
/// expanded cube stays disjoint from the OFF-set. Cubes are processed
/// largest-first so big primes absorb small cubes early.
fn expand(on: &mut Cover, off: &Cover) {
    let mut order: Vec<usize> = (0..on.cubes.len()).collect();
    order.sort_by_key(|&i| on.cubes[i].literal_count());
    for idx in order {
        let mut cube = on.cubes[idx].clone();
        // Try raising each literal; prefer raising literals whose removal
        // frees the most OFF-set distance (simple heuristic: fixed order).
        for v in cube.support() {
            let saved = cube.get(v);
            cube.set(v, Polarity::DontCare);
            let hits_off = off.cubes.iter().any(|o| o.intersect(&cube).is_some());
            if hits_off {
                cube.set(v, saved);
            }
        }
        on.cubes[idx] = cube;
    }
}

/// IRREDUNDANT: removes cubes that are covered by the union of the others.
fn irredundant(on: &mut Cover) {
    let mut i = 0;
    while i < on.cubes.len() {
        let cube = on.cubes[i].clone();
        let rest = Cover::from_cubes(
            on.num_vars(),
            on.cubes
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, c)| c.clone())
                .collect(),
        );
        if rest.covers_cube(&cube) {
            on.cubes.remove(i);
        } else {
            i += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Algebraic factoring over sorted literal lists.
// ---------------------------------------------------------------------------

/// A product term: a sorted, duplicate-free set of literals.
pub type Product = Vec<Lit>;

/// An algebraic sum of products.
pub type Sop = Vec<Product>;

/// Converts a [`Cover`] into an algebraic SOP.
pub fn cover_to_sop(cover: &Cover) -> Sop {
    cover
        .cubes
        .iter()
        .map(|c| {
            let mut p: Product = (0..c.num_vars())
                .filter_map(|v| match c.get(v) {
                    Polarity::Pos => Some(mk_lit(v, false)),
                    Polarity::Neg => Some(mk_lit(v, true)),
                    _ => None,
                })
                .collect();
            p.sort_unstable();
            p
        })
        .collect()
}

/// Algebraic division `f / d`: returns `(quotient, remainder)` such that
/// `f = quotient·d + remainder` with algebraic (support-disjoint) products.
pub fn divide(f: &Sop, d: &Sop) -> (Sop, Sop) {
    if d.is_empty() {
        return (Vec::new(), f.clone());
    }
    // Quotient = intersection over divisor cubes of {t \ c | c ⊆ t}.
    let mut quotient: Option<BTreeSet<Product>> = None;
    for c in d {
        let mut set = BTreeSet::new();
        for t in f {
            if is_subset(c, t) {
                set.insert(diff(t, c));
            }
        }
        quotient = Some(match quotient {
            None => set,
            Some(q) => q.intersection(&set).cloned().collect(),
        });
        if quotient.as_ref().is_some_and(BTreeSet::is_empty) {
            break;
        }
    }
    let q: Sop = quotient.unwrap_or_default().into_iter().collect();
    if q.is_empty() {
        return (q, f.clone());
    }
    // Remainder: products of f not generated by q×d.
    let mut generated = BTreeSet::new();
    for qt in &q {
        for dt in d {
            generated.insert(merge(qt, dt));
        }
    }
    let r: Sop = f
        .iter()
        .filter(|t| !generated.contains(*t))
        .cloned()
        .collect();
    (q, r)
}

fn is_subset(small: &Product, big: &Product) -> bool {
    small.iter().all(|l| big.binary_search(l).is_ok())
}

fn diff(t: &Product, c: &Product) -> Product {
    t.iter()
        .filter(|l| c.binary_search(l).is_err())
        .copied()
        .collect()
}

fn merge(a: &Product, b: &Product) -> Product {
    let mut m: Product = a.iter().chain(b).copied().collect();
    m.sort_unstable();
    m.dedup();
    m
}

/// Literals common to every product of `f` (the largest common cube).
pub fn common_cube(f: &Sop) -> Product {
    let Some(first) = f.first() else {
        return Vec::new();
    };
    let mut common: Product = first.clone();
    for t in &f[1..] {
        common.retain(|l| t.binary_search(l).is_ok());
    }
    common
}

/// True if no literal appears in every product.
pub fn is_cube_free(f: &Sop) -> bool {
    f.len() > 1 && common_cube(f).is_empty() || f.len() == 1 && f[0].is_empty()
}

/// Enumerates the kernels of `f` (cube-free primary divisors), including
/// `f` itself when cube-free. Brayton–McMullen recursive enumeration.
pub fn kernels(f: &Sop) -> Vec<Sop> {
    let mut out = Vec::new();
    let mut seen = BTreeSet::new();
    kernels_rec(f, 0, &mut out, &mut seen);
    if is_cube_free(f) {
        push_kernel(f.clone(), &mut out, &mut seen);
    }
    out
}

fn push_kernel(k: Sop, out: &mut Vec<Sop>, seen: &mut BTreeSet<Vec<Product>>) {
    let mut key = k.clone();
    key.sort();
    if seen.insert(key) {
        out.push(k);
    }
}

fn kernels_rec(f: &Sop, min_lit: Lit, out: &mut Vec<Sop>, seen: &mut BTreeSet<Vec<Product>>) {
    let max_lit = f.iter().flatten().copied().max().unwrap_or(0);
    for l in min_lit..=max_lit {
        let with_l: Vec<&Product> = f.iter().filter(|t| t.binary_search(&l).is_ok()).collect();
        if with_l.len() < 2 {
            continue;
        }
        let stripped: Sop = with_l
            .iter()
            .map(|t| t.iter().filter(|&&x| x != l).copied().collect())
            .collect();
        let c = common_cube(&stripped);
        // Skip if the common cube contains a smaller literal: that kernel is
        // enumerated at the smaller literal already.
        if c.iter().any(|&x| x < l) {
            continue;
        }
        let kernel: Sop = stripped.iter().map(|t| diff(t, &c)).collect();
        kernels_rec(&kernel, l + 1, out, seen);
        push_kernel(kernel, out, seen);
    }
}

/// Quick-factor: factors `f` into a [`FactorTree`] using the best kernel as
/// divisor at each step, falling back to most-frequent-literal division.
pub fn quick_factor(f: &Sop) -> FactorTree {
    if f.is_empty() {
        return FactorTree::Const(false);
    }
    if f.iter().any(Vec::is_empty) {
        // A product with no literals is the constant 1.
        return FactorTree::Const(true);
    }
    if f.len() == 1 {
        return product_tree(&f[0]);
    }
    // Choose a divisor: the best kernel by saved literals, if any.
    let divisor = best_kernel(f);
    match divisor {
        Some(d) if !(d.len() == 1 && d[0].len() == 1) => {
            let (q, r) = divide(f, &d);
            if q.is_empty() {
                literal_factor(f)
            } else {
                build_qdr(&q, &d, &r)
            }
        }
        _ => literal_factor(f),
    }
}

fn build_qdr(q: &Sop, d: &Sop, r: &Sop) -> FactorTree {
    let qt = quick_factor(q);
    let dt = quick_factor(d);
    let mut and_terms = Vec::new();
    match qt {
        FactorTree::And(es) => and_terms.extend(es),
        other => and_terms.push(other),
    }
    match dt {
        FactorTree::And(es) => and_terms.extend(es),
        other => and_terms.push(other),
    }
    let product = if and_terms.len() == 1 {
        and_terms.pop().expect("non-empty")
    } else {
        FactorTree::And(and_terms)
    };
    if r.is_empty() {
        product
    } else {
        let rt = quick_factor(r);
        let mut or_terms = vec![product];
        match rt {
            FactorTree::Or(es) => or_terms.extend(es),
            other => or_terms.push(other),
        }
        FactorTree::Or(or_terms)
    }
}

/// Fallback: divide by the most frequent literal.
fn literal_factor(f: &Sop) -> FactorTree {
    let mut counts = std::collections::HashMap::new();
    for t in f {
        for &l in t {
            *counts.entry(l).or_insert(0usize) += 1;
        }
    }
    let best = counts
        .iter()
        .max_by_key(|(_, c)| **c)
        .map(|(&l, &c)| (l, c));
    match best {
        Some((l, c)) if c >= 2 => {
            let d: Sop = vec![vec![l]];
            let (q, r) = divide(f, &d);
            if q.is_empty() {
                flat_or(f)
            } else {
                build_qdr(&q, &d, &r)
            }
        }
        _ => flat_or(f),
    }
}

fn flat_or(f: &Sop) -> FactorTree {
    let mut terms: Vec<FactorTree> = f.iter().map(product_tree).collect();
    if terms.len() == 1 {
        terms.pop().expect("non-empty")
    } else {
        FactorTree::Or(terms)
    }
}

fn product_tree(t: &Product) -> FactorTree {
    if t.is_empty() {
        return FactorTree::Const(true);
    }
    if t.len() == 1 {
        return FactorTree::Lit(t[0]);
    }
    FactorTree::And(t.iter().map(|&l| FactorTree::Lit(l)).collect())
}

/// The kernel with the highest extraction value
/// (`(|quotient|−1) · literals(kernel)`), or `None` when `f` has no
/// multi-cube kernels.
fn best_kernel(f: &Sop) -> Option<Sop> {
    let ks = kernels(f);
    let mut f_sorted = f.clone();
    f_sorted.sort();
    let mut best: Option<(usize, Sop)> = None;
    for k in ks {
        if k.len() < 2 {
            continue;
        }
        // Dividing f by itself recurses forever; the trivial quotient 1
        // gains nothing anyway.
        let mut k_sorted = k.clone();
        k_sorted.sort();
        if k_sorted == f_sorted {
            continue;
        }
        let (q, _r) = divide(f, &k);
        if q.is_empty() {
            continue;
        }
        let lits_k: usize = k.iter().map(Vec::len).sum();
        let value = q.len().saturating_sub(1) * lits_k;
        if best.as_ref().is_none_or(|(v, _)| value > *v) {
            best = Some((value, k));
        }
    }
    best.map(|(_, k)| k)
}
