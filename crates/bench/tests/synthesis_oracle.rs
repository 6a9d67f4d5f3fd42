//! Oracles for the bit-parallel cube algebra, the minimizer and the
//! algebraic factoring, against their definitions and against the
//! implementations they replaced (`icdb_bench::reference`):
//!
//! * `cube_operations_match_their_per_variable_definitions` — for n = 0–70
//!   variables, across both word boundaries and the inline/heap boundary,
//!   every bit-parallel `Cube` operation agrees with its definition in
//!   terms of `get()`;
//! * `products_order_as_their_literal_lists` — a `Product` orders as its
//!   ascending literal list does, so sorted quotients come out in the
//!   reference's `BTreeSet` order;
//! * `random_covers_minimize_and_factor_as_the_reference_does` — random
//!   covers of 1–70 variables minimize to the same cubes in the same order
//!   (compared as text), have the same kernels in the same order, divide by
//!   each kernel into the same quotient and remainder, and factor to an
//!   equal `FactorTree`, raw and minimized;
//! * `builtin_covers_minimize_and_factor_as_the_reference_does` — the same
//!   for every cover `optimize` minimizes or leaves for factoring, for
//!   every builtin implementation.
//!
//! Debug builds cover builtin widths 1–3; `cargo test --release --test
//! synthesis_oracle` covers widths 1–8.

use icdb::logic::{cover_to_sop, divide, kernels, minimize, quick_factor};
use icdb::logic::{Cover, Cube, Lit, Polarity, Product, Sop};
use icdb::Icdb;
use icdb_bench::{builtin_flat, reference, synthesis_covers};
use proptest::prelude::*;

/// Widest builtin width the builtin-cover oracle covers.
const MAX_WIDTH: i64 = if cfg!(debug_assertions) { 3 } else { 8 };

/// Random cases per property.
const CASES: u32 = if cfg!(debug_assertions) { 256 } else { 2048 };

/// A splitmix64 stream: each proptest case draws one seed and builds its
/// input from it, so a failure reports a reproducible `(n, seed)`.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// The two-bit slot code of a polarity.
fn code(p: Polarity) -> u8 {
    match p {
        Polarity::Empty => 0b00,
        Polarity::Neg => 0b01,
        Polarity::Pos => 0b10,
        Polarity::DontCare => 0b11,
    }
}

fn polarity(code: u8) -> Polarity {
    match code {
        0b00 => Polarity::Empty,
        0b01 => Polarity::Neg,
        0b10 => Polarity::Pos,
        _ => Polarity::DontCare,
    }
}

fn is_literal(p: Polarity) -> bool {
    matches!(p, Polarity::Pos | Polarity::Neg)
}

/// A cube with the given slot code per variable, built through `set`.
fn cube_of(codes: &[u8]) -> Cube {
    let mut c = Cube::universe(codes.len());
    for (v, &k) in codes.iter().enumerate() {
        c.set(v, polarity(k));
    }
    c
}

/// Random slot codes: mostly literals and don't-cares, empty with `empty`
/// chance in 64.
fn random_codes(rng: &mut Rng, n: usize, empty: usize) -> Vec<u8> {
    (0..n)
        .map(|_| {
            if rng.below(64) < empty {
                0b00
            } else {
                1 + rng.below(3) as u8
            }
        })
        .collect()
}

/// A random cover over `n` variables whose cubes use at most eight active
/// variables spread over the whole range, so complements stay small while
/// words and literal sets cross every boundary.
fn random_cover(rng: &mut Rng, n: usize) -> Cover {
    let mut active: Vec<usize> = Vec::new();
    for _ in 0..1 + rng.below(8) {
        let v = rng.below(n);
        if !active.contains(&v) {
            active.push(v);
        }
    }
    let cubes = (0..1 + rng.below(10))
        .map(|_| {
            let lits: Vec<(usize, bool)> = active
                .iter()
                .filter_map(|&v| match rng.below(4) {
                    0 => Some((v, false)),
                    1 => Some((v, true)),
                    _ => None,
                })
                .collect();
            Cube::from_literals(n, &lits)
        })
        .collect();
    Cover::from_cubes(n, cubes)
}

fn lit_lists(sop: &Sop) -> Vec<Vec<Lit>> {
    sop.iter().map(|p| p.lits().collect()).collect()
}

/// Checks minimize, kernels, divide and quick_factor on `cover` against
/// the reference; `Err` names the first difference.
fn check_against_reference(cover: &Cover) -> Result<(), String> {
    let old = reference::from_cover(cover);
    let got = minimize(cover.clone());
    let want = reference::minimize(old.clone());
    if format!("{got:?}") != format!("{want:?}") {
        return Err(format!("minimize({cover:?}) = {got:?}, reference {want:?}"));
    }
    for (cover, old) in [(cover.clone(), old), (got, want)] {
        let sop = cover_to_sop(&cover);
        let old_sop = reference::cover_to_sop(&old);
        if lit_lists(&sop) != old_sop {
            return Err(format!("cover_to_sop({cover:?}) differs"));
        }
        let ks = kernels(&sop);
        let old_ks = reference::kernels(&old_sop);
        let ks_lits: Vec<Vec<Vec<Lit>>> = ks.iter().map(lit_lists).collect();
        if ks_lits != old_ks {
            return Err(format!(
                "kernels of {cover:?}: {ks_lits:?}, reference {old_ks:?}"
            ));
        }
        for (k, old_k) in ks.iter().zip(&old_ks) {
            let (q, r) = divide(&sop, k);
            let (old_q, old_r) = reference::divide(&old_sop, old_k);
            if (lit_lists(&q), lit_lists(&r)) != (old_q.clone(), old_r.clone()) {
                return Err(format!(
                    "{cover:?} / {old_k:?} = ({q:?}, {r:?}), reference ({old_q:?}, {old_r:?})"
                ));
            }
        }
        let tree = quick_factor(&sop);
        let old_tree = reference::quick_factor(&old_sop);
        if tree != old_tree {
            return Err(format!(
                "quick_factor({cover:?}) = {tree:?}, reference {old_tree:?}"
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn cube_operations_match_their_per_variable_definitions(
        n in 0..=70usize,
        seed in any::<u64>()
    ) {
        let mut rng = Rng(seed);
        let empty = [0, 0, 1, 4][rng.below(4)];
        let (ka, kb) = (random_codes(&mut rng, n, empty), random_codes(&mut rng, n, empty));
        let (a, b) = (cube_of(&ka), cube_of(&kb));
        for (v, &k) in ka.iter().enumerate() {
            prop_assert_eq!(code(a.get(v)), k);
        }
        prop_assert_eq!(a.is_empty(), ka.contains(&0b00));
        prop_assert_eq!(a.is_universe(), ka.iter().all(|&k| k == 0b11));
        let support: Vec<usize> = (0..n).filter(|&v| is_literal(a.get(v))).collect();
        prop_assert_eq!(a.literal_count(), support.len());
        prop_assert_eq!(a.support(), support);
        let distance = (0..n)
            .filter(|&v| is_literal(a.get(v)) && is_literal(b.get(v)) && a.get(v) != b.get(v))
            .count();
        prop_assert_eq!(a.distance(&b), distance);
        prop_assert_eq!(a.contains(&b), (0..n).all(|v| kb[v] & ka[v] == kb[v]));
        let and: Vec<u8> = (0..n).map(|v| ka[v] & kb[v]).collect();
        let meet = (!and.contains(&0b00)).then(|| cube_of(&and));
        prop_assert_eq!(a.intersect(&b), meet);
        let or: Vec<u8> = (0..n).map(|v| ka[v] | kb[v]).collect();
        prop_assert_eq!(a.supercube(&b), cube_of(&or));
        prop_assert_eq!(Cube::universe(n), cube_of(&vec![0b11; n]));
        if n > 0 {
            let v = rng.below(n);
            let positive = rng.below(2) == 0;
            let cofactor = match (a.get(v), positive) {
                (Polarity::Pos, false) | (Polarity::Neg, true) => None,
                _ => {
                    let mut k = ka.clone();
                    k[v] = 0b11;
                    Some(cube_of(&k))
                }
            };
            prop_assert_eq!(a.cofactor(v, positive), cofactor);
        }
        let union: Vec<usize> = (0..n)
            .filter(|&v| is_literal(a.get(v)) || is_literal(b.get(v)))
            .collect();
        prop_assert_eq!(Cover::from_cubes(n, vec![a.clone(), b.clone()]).support(), union);
    }

    #[test]
    fn products_order_as_their_literal_lists(n in 0..=70usize, seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let lits: Vec<Lit> = (0..2 * n as Lit).filter(|_| rng.below(3) == 0).collect();
        let mut other = lits.clone();
        for _ in 0..rng.below(3) {
            if n > 0 {
                let l = rng.below(2 * n) as Lit;
                match other.binary_search(&l) {
                    Ok(i) => {
                        other.remove(i);
                    }
                    Err(i) => other.insert(i, l),
                }
            }
        }
        let (a, b) = (Product::from_lits(n, &lits), Product::from_lits(n, &other));
        prop_assert_eq!(a.lits().collect::<Vec<_>>(), lits.clone());
        prop_assert_eq!(a.len(), lits.len());
        prop_assert_eq!(a.cmp(&b), lits.cmp(&other));
        prop_assert_eq!(b.cmp(&a), other.cmp(&lits));
        prop_assert_eq!(a == b, lits == other);
    }

    #[test]
    fn random_covers_minimize_and_factor_as_the_reference_does(
        n in 1..=70usize,
        seed in any::<u64>()
    ) {
        let cover = random_cover(&mut Rng(seed), n);
        check_against_reference(&cover).map_err(TestCaseError::fail)?;
    }
}

#[test]
fn builtin_covers_minimize_and_factor_as_the_reference_does() {
    let icdb = Icdb::new();
    let names: Vec<String> = icdb.library.iter().map(|c| c.name.clone()).collect();
    let mut checked = 0;
    for name in &names {
        for width in 1..=MAX_WIDTH {
            let Some(flat) = builtin_flat(&icdb, name, width) else {
                continue;
            };
            let (minimized, factored) = synthesis_covers(&flat);
            for cover in minimized.iter().chain(&factored) {
                if let Err(e) = check_against_reference(cover) {
                    panic!("{name} size={width}: {e}");
                }
                checked += 1;
            }
        }
    }
    assert!(checked > 500, "only {checked} covers checked");
}
