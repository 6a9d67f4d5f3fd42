//! Cube and cover (sum-of-products) algebra in the positional-cube notation
//! used by espresso-family two-level minimizers.
//!
//! Each variable occupies two bits of a 64-bit word, 32 variables per word:
//! `01` = the cube requires the variable to be **0** (negative literal),
//! `10` = requires **1** (positive literal), `11` = don't-care (variable
//! absent from the product), `00` = contradiction (empty cube). Slots past
//! the last variable stay `00`. The words live inline in the cube up to
//! [`INLINE_WORDS`] words and spill to one heap block beyond, so cloning,
//! intersecting and cofactoring a cube allocate nothing for covers of up
//! to 64 variables; emptiness, literal counts, support and distance are
//! computed a word at a time.

use std::fmt;

const VARS_PER_WORD: usize = 32;

/// Words stored inline: two hold a cube over 64 variables or a product
/// over 128 literals, far above any cover the builtin library minimizes.
pub(crate) const INLINE_WORDS: usize = 2;

/// The low bit of every two-bit slot.
pub(crate) const LOW: u64 = 0x5555_5555_5555_5555;

/// Fixed-length word storage for cubes and literal sets: inline up to
/// [`INLINE_WORDS`] words, one heap block beyond. Unused inline words stay
/// zero, so the derived equality and hash are canonical.
#[derive(Clone, PartialEq, Eq, Hash)]
pub(crate) enum Words {
    Inline(u8, [u64; INLINE_WORDS]),
    Heap(Box<[u64]>),
}

impl Words {
    /// `len` zero words.
    pub(crate) fn zeroed(len: usize) -> Words {
        if len <= INLINE_WORDS {
            Words::Inline(len as u8, [0; INLINE_WORDS])
        } else {
            Words::Heap(vec![0; len].into_boxed_slice())
        }
    }

    pub(crate) fn as_slice(&self) -> &[u64] {
        match self {
            Words::Inline(len, w) => &w[..*len as usize],
            Words::Heap(w) => w,
        }
    }

    pub(crate) fn as_mut_slice(&mut self) -> &mut [u64] {
        match self {
            Words::Inline(len, w) => &mut w[..*len as usize],
            Words::Heap(w) => w,
        }
    }

    /// `op` applied word by word to two equally long word strings.
    pub(crate) fn zip(&self, other: &Words, op: impl Fn(u64, u64) -> u64) -> Words {
        let mut out = self.clone();
        for (a, &b) in out.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a = op(*a, b);
        }
        out
    }
}

/// Words needed for `n` variables (at least one).
pub(crate) fn word_count(n: usize) -> usize {
    n.div_ceil(VARS_PER_WORD).max(1)
}

/// Positions of the set bits of `m`, lowest first.
pub(crate) fn bits(mut m: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (m != 0).then(|| {
            let b = m.trailing_zeros() as usize;
            m &= m - 1;
            b
        })
    })
}

/// Both bits of every slot that word `i` uses for `n` variables.
fn used_slots(n: usize, i: usize) -> u64 {
    let used = n.saturating_sub(i * VARS_PER_WORD).min(VARS_PER_WORD);
    if used == VARS_PER_WORD {
        !0
    } else {
        (1u64 << (2 * used)) - 1
    }
}

/// The low bit of every slot holding a literal (`01` or `10`).
fn literal_bits(w: u64) -> u64 {
    (w ^ (w >> 1)) & LOW
}

/// The low bit of every slot holding `00`.
fn empty_bits(w: u64) -> u64 {
    !(w | (w >> 1)) & LOW
}

/// A product term over `n` boolean variables.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Cube {
    words: Words,
    n: usize,
}

/// Polarity of one variable inside a cube.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Polarity {
    /// Variable appears complemented (`01`).
    Neg,
    /// Variable appears un-complemented (`10`).
    Pos,
    /// Variable does not appear (`11`).
    DontCare,
    /// Both bits cleared: the cube is empty.
    Empty,
}

impl Cube {
    /// The universal cube (all don't-cares) over `n` variables.
    pub fn universe(n: usize) -> Cube {
        let mut words = Words::zeroed(word_count(n));
        for (i, w) in words.as_mut_slice().iter_mut().enumerate() {
            *w = used_slots(n, i);
        }
        Cube { words, n }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.n
    }

    /// The positional-cube words, 32 variables each.
    pub(crate) fn words(&self) -> &[u64] {
        self.words.as_slice()
    }

    /// Polarity of variable `v`.
    ///
    /// # Panics
    /// Panics if `v >= num_vars()`.
    pub fn get(&self, v: usize) -> Polarity {
        assert!(v < self.n);
        let bits = (self.words()[v / VARS_PER_WORD] >> (2 * (v % VARS_PER_WORD))) & 0b11;
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
        let w = &mut self.words.as_mut_slice()[v / VARS_PER_WORD];
        let s = 2 * (v % VARS_PER_WORD);
        *w = (*w & !(0b11 << s)) | (bits << s);
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
        self.words()
            .iter()
            .enumerate()
            .any(|(i, &w)| empty_bits(w) & used_slots(self.n, i) != 0)
    }

    /// True if every variable is a don't-care (the tautology cube).
    pub fn is_universe(&self) -> bool {
        self.words()
            .iter()
            .enumerate()
            .all(|(i, &w)| w == used_slots(self.n, i))
    }

    /// Number of literals (non-don't-care variables).
    pub fn literal_count(&self) -> usize {
        self.words()
            .iter()
            .map(|&w| literal_bits(w).count_ones() as usize)
            .sum()
    }

    /// Bitwise AND of cubes: their intersection as sets of minterms.
    /// Returns `None` when the intersection is empty.
    pub fn intersect(&self, other: &Cube) -> Option<Cube> {
        debug_assert_eq!(self.n, other.n);
        let c = Cube {
            words: self.words.zip(&other.words, |a, b| a & b),
            n: self.n,
        };
        (!c.is_empty()).then_some(c)
    }

    /// True if the cubes share a minterm: [`Cube::intersect`] without
    /// building the intersection.
    pub(crate) fn intersects(&self, other: &Cube) -> bool {
        debug_assert_eq!(self.n, other.n);
        !self
            .words()
            .iter()
            .zip(other.words())
            .enumerate()
            .any(|(i, (&a, &b))| empty_bits(a & b) & used_slots(self.n, i) != 0)
    }

    /// True if `self` contains `other` (every minterm of `other` is in
    /// `self`): bitwise, `other ⊆ self` iff `other & self == other`.
    pub fn contains(&self, other: &Cube) -> bool {
        debug_assert_eq!(self.n, other.n);
        self.words()
            .iter()
            .zip(other.words())
            .all(|(a, b)| a & b == *b)
    }

    /// Number of variables where the two cubes have disjoint codes
    /// (the espresso *distance*; distance 0 means they intersect).
    pub fn distance(&self, other: &Cube) -> usize {
        self.words()
            .iter()
            .zip(other.words())
            .map(|(&a, &b)| {
                (literal_bits(a) & literal_bits(b) & empty_bits(a & b)).count_ones() as usize
            })
            .sum()
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
        Cube {
            words: self.words.zip(&other.words, |a, b| a | b),
            n: self.n,
        }
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
        self.words()
            .iter()
            .enumerate()
            .flat_map(|(i, &w)| bits(literal_bits(w)).map(move |b| i * VARS_PER_WORD + b / 2))
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

    /// The variable appearing in the most cubes with both polarities (the
    /// lowest on a tie); `None` if the cover is unate.
    fn most_binate_var(&self) -> Option<usize> {
        let mut counts = vec![(0usize, 0usize); self.n];
        for c in &self.cubes {
            for (i, &w) in c.words().iter().enumerate() {
                for b in bits((w >> 1) & !w & LOW) {
                    counts[i * VARS_PER_WORD + b / 2].0 += 1;
                }
                for b in bits(w & !(w >> 1) & LOW) {
                    counts[i * VARS_PER_WORD + b / 2].1 += 1;
                }
            }
        }
        let mut best: Option<(usize, usize)> = None;
        for (v, &(pos, neg)) in counts.iter().enumerate() {
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
            .or_else(|| self.support().first().copied())
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
        cube_cofactor(self.n, self.cubes.iter(), cube).is_tautology()
    }

    /// True if the cubes other than `i` cover cube `i`: the IRREDUNDANT
    /// test, without building the rest of the cover.
    pub(crate) fn others_cover(&self, i: usize) -> bool {
        let others = self
            .cubes
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, c)| c);
        cube_cofactor(self.n, others, &self.cubes[i]).is_tautology()
    }

    /// Union of the variables used by any cube.
    pub fn support(&self) -> Vec<usize> {
        let mut used = Words::zeroed(word_count(self.n));
        for c in &self.cubes {
            used = used.zip(&c.words, |u, w| u | literal_bits(w));
        }
        used.as_slice()
            .iter()
            .enumerate()
            .flat_map(|(i, &w)| bits(w).map(move |b| i * VARS_PER_WORD + b / 2))
            .collect()
    }
}

/// The cofactor of `cubes` with respect to `cube`: cubes at a non-zero
/// distance from it drop out, and its literal variables become
/// don't-cares in the rest.
fn cube_cofactor<'a>(n: usize, cubes: impl Iterator<Item = &'a Cube>, cube: &Cube) -> Cover {
    let mut raise = cube.words.clone();
    for w in raise.as_mut_slice() {
        let lits = literal_bits(*w);
        *w = lits | (lits << 1);
    }
    let cubes = cubes
        .filter(|c| c.distance(cube) == 0)
        .map(|c| Cube {
            words: c.words.zip(&raise, |a, r| a | r),
            n,
        })
        .collect();
    Cover { cubes, n }
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
    let cubes = c
        .support()
        .into_iter()
        .map(|v| Cube::from_literals(n, &[(v, c.get(v) == Polarity::Neg)]))
        .collect();
    Cover { cubes, n }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_assignments(n: usize) -> impl Iterator<Item = Vec<bool>> {
        (0..1u32 << n).map(move |m| (0..n).map(|v| (m >> v) & 1 == 1).collect())
    }

    #[test]
    fn universe_and_literals() {
        let u = Cube::universe(3);
        assert!(u.is_universe());
        assert_eq!(u.literal_count(), 0);
        let c = Cube::from_literals(3, &[(0, true), (2, false)]);
        assert_eq!(c.literal_count(), 2);
        assert_eq!(c.get(0), Polarity::Pos);
        assert_eq!(c.get(1), Polarity::DontCare);
        assert_eq!(c.get(2), Polarity::Neg);
    }

    #[test]
    fn intersect_and_contains() {
        let a = Cube::from_literals(3, &[(0, true)]);
        let b = Cube::from_literals(3, &[(1, false)]);
        let ab = a.intersect(&b).unwrap();
        assert_eq!(ab.get(0), Polarity::Pos);
        assert_eq!(ab.get(1), Polarity::Neg);
        assert!(a.contains(&ab));
        assert!(!ab.contains(&a));
        let na = Cube::from_literals(3, &[(0, false)]);
        assert!(a.intersect(&na).is_none());
        assert_eq!(a.distance(&na), 1);
    }

    #[test]
    fn complement_of_cube_is_correct() {
        let n = 4;
        let c = Cube::from_literals(n, &[(0, true), (3, false)]);
        let comp = complement_cube(&c);
        for a in all_assignments(n) {
            assert_eq!(comp.eval(&a), !c.eval(&a), "assignment {a:?}");
        }
    }

    #[test]
    fn tautology_detection() {
        // x + !x is a tautology.
        let c = Cover::from_cubes(
            2,
            vec![
                Cube::from_literals(2, &[(0, true)]),
                Cube::from_literals(2, &[(0, false)]),
            ],
        );
        assert!(c.is_tautology());
        // x + !x*y misses (x=0, y=0).
        let c2 = Cover::from_cubes(
            2,
            vec![
                Cube::from_literals(2, &[(0, true)]),
                Cube::from_literals(2, &[(0, false), (1, true)]),
            ],
        );
        assert!(!c2.is_tautology());
        assert!(Cover::one(3).is_tautology());
        assert!(!Cover::zero(3).is_tautology());
    }

    #[test]
    fn complement_matches_truth_table() {
        let n = 4;
        // f = ab + !c*d + a!d
        let f = Cover::from_cubes(
            n,
            vec![
                Cube::from_literals(n, &[(0, true), (1, true)]),
                Cube::from_literals(n, &[(2, false), (3, true)]),
                Cube::from_literals(n, &[(0, true), (3, false)]),
            ],
        );
        let g = f.complement();
        for a in all_assignments(n) {
            assert_eq!(g.eval(&a), !f.eval(&a), "assignment {a:?}");
        }
    }

    #[test]
    fn covers_cube_checks() {
        let n = 3;
        // f = a + b covers cube ab but not c.
        let f = Cover::from_cubes(
            n,
            vec![
                Cube::from_literals(n, &[(0, true)]),
                Cube::from_literals(n, &[(1, true)]),
            ],
        );
        assert!(f.covers_cube(&Cube::from_literals(n, &[(0, true), (1, true)])));
        assert!(!f.covers_cube(&Cube::from_literals(n, &[(2, true)])));
    }

    #[test]
    fn remove_contained_keeps_maximal() {
        let n = 3;
        let mut f = Cover::from_cubes(
            n,
            vec![
                Cube::from_literals(n, &[(0, true)]),
                Cube::from_literals(n, &[(0, true), (1, true)]),
                Cube::from_literals(n, &[(2, false)]),
            ],
        );
        f.remove_contained();
        assert_eq!(f.cubes.len(), 2);
    }

    #[test]
    fn supercube_is_smallest_superset() {
        let a = Cube::from_literals(3, &[(0, true), (1, true)]);
        let b = Cube::from_literals(3, &[(0, true), (1, false)]);
        let s = a.supercube(&b);
        assert_eq!(s.get(0), Polarity::Pos);
        assert_eq!(s.get(1), Polarity::DontCare);
    }

    #[test]
    fn many_variable_cubes_cross_word_boundary() {
        let n = 70;
        let c = Cube::from_literals(n, &[(0, true), (35, false), (69, true)]);
        assert_eq!(c.literal_count(), 3);
        assert_eq!(c.get(35), Polarity::Neg);
        assert_eq!(c.get(69), Polarity::Pos);
        assert!(!c.is_empty());
        assert!(Cube::universe(n).contains(&c));
    }
}
