//! Algebraic factoring: kernel extraction and quick-factor, the MIS-style
//! second phase of the MILO flow (paper §4.3.1 — "reduce the number of
//! levels along the longest paths by performing factoring").
//!
//! Functions here operate on *algebraic* sum-of-products: a [`Product`] is
//! a set of literal ids (`2·var + negated`) stored as a bitmask, one bit
//! per literal, so subset, difference and union are word operations; a
//! SOP is a list of products. Factoring never changes the boolean function
//! (verified by evaluation in the tests), it only restructures it into a
//! tree with fewer literals, which the decomposition step then turns into
//! a subject graph.

use crate::cube::{bits, word_count, Cover, Words, LOW};
use std::cmp::Ordering;
use std::collections::HashSet;
use std::fmt;

/// A literal id: `2·var` for the positive literal, `2·var + 1` for the
/// complemented literal.
pub type Lit = u32;

/// Variable index of a literal.
pub fn lit_var(l: Lit) -> usize {
    (l / 2) as usize
}

/// True if the literal is complemented.
pub fn lit_neg(l: Lit) -> bool {
    l % 2 == 1
}

/// Builds a literal id.
pub fn mk_lit(var: usize, neg: bool) -> Lit {
    (var as u32) * 2 + u32::from(neg)
}

/// A product term: a set of literals, bit `l` set for literal `l`.
///
/// The products of one [`Sop`] have the same word count, fixed by the
/// variable count they were built for. Products are ordered as their
/// ascending literal lists are, lexicographically.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Product(Words);

impl Product {
    /// The product of `lits` over `num_vars` variables.
    ///
    /// # Panics
    /// Panics if a literal's variable is not below `num_vars`.
    pub fn from_lits(num_vars: usize, lits: &[Lit]) -> Product {
        let mut words = Words::zeroed(word_count(num_vars));
        for &l in lits {
            assert!(
                lit_var(l) < num_vars,
                "literal {l} outside {num_vars} variables"
            );
            words.as_mut_slice()[l as usize / 64] |= 1 << (l % 64);
        }
        Product(words)
    }

    /// The literals, ascending.
    pub fn lits(&self) -> impl Iterator<Item = Lit> + '_ {
        self.0
            .as_slice()
            .iter()
            .enumerate()
            .flat_map(|(i, &w)| bits(w).map(move |b| (i * 64 + b) as Lit))
    }

    /// Number of literals.
    pub fn len(&self) -> usize {
        self.0
            .as_slice()
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// True for the product of no literals (the constant 1).
    pub fn is_empty(&self) -> bool {
        self.0.as_slice().iter().all(|&w| w == 0)
    }

    fn contains_lit(&self, l: usize) -> bool {
        self.0.as_slice()[l / 64] & (1 << (l % 64)) != 0
    }

    /// `self ⊆ other`.
    fn is_subset(&self, other: &Product) -> bool {
        self.0
            .as_slice()
            .iter()
            .zip(other.0.as_slice())
            .all(|(a, b)| a & !b == 0)
    }

    fn is_disjoint(&self, other: &Product) -> bool {
        self.0
            .as_slice()
            .iter()
            .zip(other.0.as_slice())
            .all(|(a, b)| a & b == 0)
    }

    fn and(&self, other: &Product) -> Product {
        Product(self.0.zip(&other.0, |a, b| a & b))
    }

    fn or(&self, other: &Product) -> Product {
        Product(self.0.zip(&other.0, |a, b| a | b))
    }

    fn minus(&self, other: &Product) -> Product {
        Product(self.0.zip(&other.0, |a, b| a & !b))
    }

    /// The product of literal `l` alone, with `self`'s word count.
    fn lit_like(&self, l: usize) -> Product {
        let mut words = Words::zeroed(self.0.as_slice().len());
        words.as_mut_slice()[l / 64] = 1 << (l % 64);
        Product(words)
    }
}

impl Ord for Product {
    /// Lexicographic on the ascending literal lists. Below the lowest
    /// literal that only one of the two holds, the lists agree; the one
    /// holding it is smaller unless the other list ends there, being a
    /// prefix of it.
    fn cmp(&self, other: &Product) -> Ordering {
        let (a, b) = (self.0.as_slice(), other.0.as_slice());
        debug_assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            let diff = a[i] ^ b[i];
            if diff == 0 {
                continue;
            }
            let low = diff & diff.wrapping_neg();
            let (holder_is_self, rest) = if a[i] & low != 0 {
                (true, b)
            } else {
                (false, a)
            };
            let rest_goes_on =
                rest[i] & !(low | (low - 1)) != 0 || rest[i + 1..].iter().any(|&w| w != 0);
            return if holder_is_self == rest_goes_on {
                Ordering::Less
            } else {
                Ordering::Greater
            };
        }
        Ordering::Equal
    }
}

impl PartialOrd for Product {
    fn partial_cmp(&self, other: &Product) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for Product {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.lits()).finish()
    }
}

/// An algebraic sum of products.
pub type Sop = Vec<Product>;

/// Converts a [`Cover`] into an algebraic SOP: a variable's positive slot
/// code `10` becomes literal bit `2·var`, its negative code `01` bit
/// `2·var + 1`, so cube word `i` maps onto product word `i`.
pub fn cover_to_sop(cover: &Cover) -> Sop {
    cover
        .cubes
        .iter()
        .map(|c| {
            let mut words = Words::zeroed(c.words().len());
            for (p, &w) in words.as_mut_slice().iter_mut().zip(c.words()) {
                let pos = (w >> 1) & !w & LOW;
                let neg = w & !(w >> 1) & LOW;
                *p = pos | (neg << 1);
            }
            Product(words)
        })
        .collect()
}

/// A factored boolean expression over literals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FactorTree {
    /// Constant 0 or 1.
    Const(bool),
    /// A single literal.
    Lit(Lit),
    /// Conjunction.
    And(Vec<FactorTree>),
    /// Disjunction.
    Or(Vec<FactorTree>),
}

impl FactorTree {
    /// Number of literal leaves (the classic factored-form cost).
    pub fn literal_count(&self) -> usize {
        match self {
            FactorTree::Const(_) => 0,
            FactorTree::Lit(_) => 1,
            FactorTree::And(es) | FactorTree::Or(es) => {
                es.iter().map(FactorTree::literal_count).sum()
            }
        }
    }

    /// Evaluates the tree under an assignment.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        match self {
            FactorTree::Const(b) => *b,
            FactorTree::Lit(l) => assignment[lit_var(*l)] ^ lit_neg(*l),
            FactorTree::And(es) => es.iter().all(|e| e.eval(assignment)),
            FactorTree::Or(es) => es.iter().any(|e| e.eval(assignment)),
        }
    }
}

/// Algebraic division `f / d`: returns `(quotient, remainder)` such that
/// `f = quotient·d + remainder` with algebraic (support-disjoint) products.
/// The quotient is sorted and duplicate-free.
pub fn divide(f: &Sop, d: &Sop) -> (Sop, Sop) {
    let q = quotient(&sorted(f), d);
    if q.is_empty() {
        return (q, f.clone());
    }
    let r = remainder(f, &q, d);
    (q, r)
}

fn sorted(f: &Sop) -> Sop {
    let mut f = f.clone();
    f.sort_unstable();
    f
}

/// The quotient of `f / d`, given `f` sorted: the intersection over
/// divisor cubes `c` of `{t \ c | c ⊆ t ∈ f}`. A product `p` is in that
/// set for `c` exactly when `p` and `c` are disjoint and `p ∪ c` is in `f`.
fn quotient(sorted_f: &[Product], d: &Sop) -> Sop {
    let Some((first, rest)) = d.split_first() else {
        return Vec::new();
    };
    let mut q: Sop = sorted_f
        .iter()
        .filter(|t| first.is_subset(t))
        .map(|t| t.minus(first))
        .collect();
    q.sort_unstable();
    q.dedup();
    q.retain(|p| {
        rest.iter()
            .all(|c| p.is_disjoint(c) && sorted_f.binary_search(&p.or(c)).is_ok())
    });
    q
}

/// The products of `f` that `q·d` does not generate, in `f`'s order. Every
/// quotient product is disjoint from every divisor cube, so `t` is
/// generated exactly when some divisor cube `c ⊆ t` leaves `t \ c` in `q`.
fn remainder(f: &Sop, q: &Sop, d: &Sop) -> Sop {
    f.iter()
        .filter(|t| {
            !d.iter()
                .any(|c| c.is_subset(t) && q.binary_search(&t.minus(c)).is_ok())
        })
        .cloned()
        .collect()
}

/// Literals common to every product of `f` (the largest common cube).
pub fn common_cube(f: &Sop) -> Product {
    let Some((first, rest)) = f.split_first() else {
        return Product::from_lits(0, &[]);
    };
    rest.iter().fold(first.clone(), |c, t| c.and(t))
}

/// True if no literal appears in every product.
pub fn is_cube_free(f: &Sop) -> bool {
    f.len() > 1 && common_cube(f).is_empty() || f.len() == 1 && f[0].is_empty()
}

/// Enumerates the kernels of `f` (cube-free primary divisors), including
/// `f` itself when cube-free. Brayton–McMullen recursive enumeration.
pub fn kernels(f: &Sop) -> Vec<Sop> {
    let mut out = Vec::new();
    let mut seen = HashSet::new();
    let mut push = |k: Sop| {
        let mut key = k.clone();
        key.sort_unstable();
        if seen.insert(key) {
            out.push(k);
        }
    };
    proper_kernels(f, 0, &mut push);
    if is_cube_free(f) {
        push(f.clone());
    }
    out
}

/// Visits the kernels of `f` found by dividing out a literal `≥ min_lit`,
/// duplicates included, each after the kernels found inside it. None of
/// them equals `f`: `f` holds at least two products with the literal
/// divided out, and the kernel none.
fn proper_kernels(f: &Sop, min_lit: usize, visit: &mut impl FnMut(Sop)) {
    let Some(first) = f.first() else {
        return;
    };
    // Literals in at least two products, ascending.
    let mut once = Product(Words::zeroed(first.0.as_slice().len()));
    let mut twice = once.clone();
    for t in f {
        twice = twice.or(&once.and(t));
        once = once.or(t);
    }
    for l in twice.lits().map(|l| l as usize).filter(|&l| l >= min_lit) {
        let lit = first.lit_like(l);
        let with_l = || f.iter().filter(|t| t.contains_lit(l));
        // `once` holds every literal of `f`, so it seeds the intersection.
        let c = with_l().fold(once.clone(), |c, t| c.and(t)).minus(&lit);
        // Skip if the common cube contains a smaller literal: that kernel is
        // enumerated at the smaller literal already.
        if c.lits().next().is_some_and(|x| (x as usize) < l) {
            continue;
        }
        let strip = c.or(&lit);
        let kernel: Sop = with_l().map(|t| t.minus(&strip)).collect();
        proper_kernels(&kernel, l + 1, visit);
        visit(kernel);
    }
}

/// Quick-factor: factors `f` into a [`FactorTree`] using the best kernel as
/// divisor at each step. Without a multi-cube kernel, no literal occurs in
/// two products, and `f` stays a flat sum of products.
///
/// ```
/// use icdb_logic::{quick_factor, mk_lit, Product};
/// // f = a·c + a·d + b·c + b·d  →  (a + b)·(c + d)
/// let p = |x, y| Product::from_lits(4, &[mk_lit(x, false), mk_lit(y, false)]);
/// let f = vec![p(0, 2), p(0, 3), p(1, 2), p(1, 3)];
/// let t = quick_factor(&f);
/// assert_eq!(t.literal_count(), 4); // 8 literals flat, 4 factored
/// ```
pub fn quick_factor(f: &Sop) -> FactorTree {
    if f.is_empty() {
        return FactorTree::Const(false);
    }
    if f.iter().any(Product::is_empty) {
        // A product with no literals is the constant 1.
        return FactorTree::Const(true);
    }
    if f.len() == 1 {
        return product_tree(&f[0]);
    }
    match best_kernel(f) {
        Some((d, q)) => {
            let r = remainder(f, &q, &d);
            build_qdr(&q, &d, &r)
        }
        None => flat_or(f),
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

fn flat_or(f: &Sop) -> FactorTree {
    let mut terms: Vec<FactorTree> = f.iter().map(product_tree).collect();
    if terms.len() == 1 {
        terms.pop().expect("non-empty")
    } else {
        FactorTree::Or(terms)
    }
}

fn product_tree(t: &Product) -> FactorTree {
    let mut lits: Vec<FactorTree> = t.lits().map(FactorTree::Lit).collect();
    match lits.len() {
        0 => FactorTree::Const(true),
        1 => lits.pop().expect("one literal"),
        _ => FactorTree::And(lits),
    }
}

/// The kernel with the highest extraction value
/// (`(|quotient|−1) · literals(kernel)`, the first on a tie) and its
/// quotient, or `None` when `f` has no multi-cube kernel other than
/// itself. Dividing `f` by itself would recurse forever, and its trivial
/// quotient 1 gains nothing, so only [`proper_kernels`] compete; a
/// repeated kernel never beats its first occurrence.
fn best_kernel(f: &Sop) -> Option<(Sop, Sop)> {
    let sorted_f = sorted(f);
    let mut best: Option<(usize, Sop, Sop)> = None;
    proper_kernels(f, 0, &mut |k| {
        let q = quotient(&sorted_f, &k);
        if q.is_empty() {
            return;
        }
        let lits_k: usize = k.iter().map(Product::len).sum();
        let value = (q.len() - 1) * lits_k;
        if best.as_ref().is_none_or(|(v, ..)| value > *v) {
            best = Some((value, k, q));
        }
    });
    best.map(|(_, k, q)| (k, q))
}

/// Evaluates an algebraic SOP under an assignment (test helper and invariant
/// anchor for the factoring code).
pub fn sop_eval(f: &Sop, assignment: &[bool]) -> bool {
    f.iter()
        .any(|t| t.lits().all(|l| assignment[lit_var(l)] ^ lit_neg(l)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sop(products: &[&[(usize, bool)]]) -> Sop {
        products
            .iter()
            .map(|p| {
                let lits: Vec<Lit> = p.iter().map(|&(v, n)| mk_lit(v, n)).collect();
                Product::from_lits(8, &lits)
            })
            .collect()
    }

    fn all_assignments(n: usize) -> impl Iterator<Item = Vec<bool>> {
        (0..1u32 << n).map(move |m| (0..n).map(|v| (m >> v) & 1 == 1).collect())
    }

    #[test]
    fn division_exact() {
        // f = ac + ad + bc + bd, d = a + b → q = c + d, r = 0
        let f = sop(&[
            &[(0, false), (2, false)],
            &[(0, false), (3, false)],
            &[(1, false), (2, false)],
            &[(1, false), (3, false)],
        ]);
        let d = sop(&[&[(0, false)], &[(1, false)]]);
        let (q, r) = divide(&f, &d);
        assert_eq!(q.len(), 2);
        assert!(r.is_empty());
    }

    #[test]
    fn division_with_remainder() {
        // f = ab + ac + e, d = b + c → q = a, r = e
        let f = sop(&[
            &[(0, false), (1, false)],
            &[(0, false), (2, false)],
            &[(4, false)],
        ]);
        let d = sop(&[&[(1, false)], &[(2, false)]]);
        let (q, r) = divide(&f, &d);
        assert_eq!(q, sop(&[&[(0, false)]]));
        assert_eq!(r, sop(&[&[(4, false)]]));
    }

    #[test]
    fn kernels_of_textbook_example() {
        // f = adf + aef + bdf + bef + cdf + cef + g
        //   = (a+b+c)(d+e)f + g — kernels include (a+b+c), (d+e), f itself.
        let f = sop(&[
            &[(0, false), (3, false), (5, false)],
            &[(0, false), (4, false), (5, false)],
            &[(1, false), (3, false), (5, false)],
            &[(1, false), (4, false), (5, false)],
            &[(2, false), (3, false), (5, false)],
            &[(2, false), (4, false), (5, false)],
            &[(6, false)],
        ]);
        let ks = kernels(&f);
        let has = |target: &Sop| {
            ks.iter().any(|k| {
                let mut a = k.clone();
                a.sort();
                let mut b = target.clone();
                b.sort();
                a == b
            })
        };
        assert!(
            has(&sop(&[&[(0, false)], &[(1, false)], &[(2, false)]])),
            "missing a+b+c"
        );
        assert!(has(&sop(&[&[(3, false)], &[(4, false)]])), "missing d+e");
        assert!(has(&f), "f itself is cube-free and must be a kernel");
    }

    #[test]
    fn quick_factor_reduces_literals_and_preserves_function() {
        let f = sop(&[
            &[(0, false), (2, false)],
            &[(0, false), (3, false)],
            &[(1, false), (2, false)],
            &[(1, false), (3, false)],
        ]);
        let t = quick_factor(&f);
        assert_eq!(t.literal_count(), 4);
        for a in all_assignments(4) {
            assert_eq!(t.eval(&a), sop_eval(&f, &a));
        }
    }

    #[test]
    fn factoring_preserves_function_with_remainder() {
        // f = ab + ac + de + g
        let f = sop(&[
            &[(0, false), (1, false)],
            &[(0, false), (2, false)],
            &[(3, false), (4, false)],
            &[(6, false)],
        ]);
        let t = quick_factor(&f);
        for a in all_assignments(7) {
            assert_eq!(t.eval(&a), sop_eval(&f, &a), "at {a:?}");
        }
        assert!(t.literal_count() <= 7);
    }

    #[test]
    fn single_cube_and_constants() {
        assert_eq!(quick_factor(&vec![]), FactorTree::Const(false));
        assert_eq!(quick_factor(&sop(&[&[]])), FactorTree::Const(true));
        let one_lit = quick_factor(&sop(&[&[(2, true)]]));
        assert_eq!(one_lit, FactorTree::Lit(mk_lit(2, true)));
    }

    #[test]
    fn factoring_handles_negated_literals() {
        // f = !a·b + !a·c = !a(b + c)
        let f = sop(&[&[(0, true), (1, false)], &[(0, true), (2, false)]]);
        let t = quick_factor(&f);
        assert_eq!(t.literal_count(), 3);
        for a in all_assignments(3) {
            assert_eq!(t.eval(&a), sop_eval(&f, &a));
        }
    }

    #[test]
    fn cover_to_sop_roundtrip_eval() {
        use crate::cube::{Cover, Cube};
        let f = Cover::from_cubes(
            3,
            vec![
                Cube::from_literals(3, &[(0, true), (1, false)]),
                Cube::from_literals(3, &[(2, true)]),
            ],
        );
        let s = cover_to_sop(&f);
        for a in all_assignments(3) {
            assert_eq!(f.eval(&a), sop_eval(&s, &a));
        }
    }
}
