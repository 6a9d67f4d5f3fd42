//! Espresso-style heuristic two-level minimization.
//!
//! The MILO flow's first phase (paper §4.3.1) minimizes the boolean
//! equations obtained after removing the sequential constructs. This module
//! implements the classic loop on single-output covers:
//!
//! 1. single-cube containment,
//! 2. **EXPAND** each cube against the OFF-set (computed by complement),
//! 3. single-cube containment again,
//! 4. **IRREDUNDANT**: drop cubes covered by the rest of the cover.
//!
//! The result is a prime and irredundant cover equivalent to the input.

use crate::cube::{Cover, Cube, Polarity};

/// Minimizes `cover` in place, returning the minimized cover.
///
/// The output is logically equivalent to the input (verified by the
/// property tests) and consists of prime, irredundant implicants.
///
/// ```
/// use icdb_logic::{Cover, Cube, minimize};
/// // f = a·b + a·!b  minimizes to  f = a
/// let f = Cover::from_cubes(2, vec![
///     Cube::from_literals(2, &[(0, true), (1, true)]),
///     Cube::from_literals(2, &[(0, true), (1, false)]),
/// ]);
/// let g = minimize(f);
/// assert_eq!(g.cubes.len(), 1);
/// assert_eq!(g.literal_count(), 1);
/// ```
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
            let hits_off = off.cubes.iter().any(|o| o.intersects(&cube));
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
        if on.others_cover(i) {
            on.cubes.remove(i);
        } else {
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_assignments(n: usize) -> impl Iterator<Item = Vec<bool>> {
        (0..1u32 << n).map(move |m| (0..n).map(|v| (m >> v) & 1 == 1).collect())
    }

    fn assert_equiv(a: &Cover, b: &Cover) {
        assert_eq!(a.num_vars(), b.num_vars());
        for asg in all_assignments(a.num_vars()) {
            assert_eq!(a.eval(&asg), b.eval(&asg), "differ at {asg:?}");
        }
    }

    #[test]
    fn merges_adjacent_cubes() {
        let f = Cover::from_cubes(
            2,
            vec![
                Cube::from_literals(2, &[(0, true), (1, true)]),
                Cube::from_literals(2, &[(0, true), (1, false)]),
            ],
        );
        let g = minimize(f.clone());
        assert_equiv(&f, &g);
        assert_eq!(g.cubes.len(), 1);
    }

    #[test]
    fn detects_tautology() {
        let f = Cover::from_cubes(
            1,
            vec![
                Cube::from_literals(1, &[(0, true)]),
                Cube::from_literals(1, &[(0, false)]),
            ],
        );
        let g = minimize(f);
        assert!(g.cubes[0].is_universe());
    }

    #[test]
    fn keeps_xor_two_cubes() {
        // XOR is already minimal at 2 cubes / 4 literals.
        let f = Cover::from_cubes(
            2,
            vec![
                Cube::from_literals(2, &[(0, true), (1, false)]),
                Cube::from_literals(2, &[(0, false), (1, true)]),
            ],
        );
        let g = minimize(f.clone());
        assert_equiv(&f, &g);
        assert_eq!(g.cubes.len(), 2);
        assert_eq!(g.literal_count(), 4);
    }

    #[test]
    fn removes_redundant_consensus_cube() {
        // f = ab + !a c + bc; bc is the consensus term, redundant.
        let f = Cover::from_cubes(
            3,
            vec![
                Cube::from_literals(3, &[(0, true), (1, true)]),
                Cube::from_literals(3, &[(0, false), (2, true)]),
                Cube::from_literals(3, &[(1, true), (2, true)]),
            ],
        );
        let g = minimize(f.clone());
        assert_equiv(&f, &g);
        assert_eq!(g.cubes.len(), 2);
    }

    #[test]
    fn classic_minimization_example() {
        // f = !a!b!c + !a!b c + a!b!c + a b c  → !b!c + !a!b + abc
        let f = Cover::from_cubes(
            3,
            vec![
                Cube::from_literals(3, &[(0, false), (1, false), (2, false)]),
                Cube::from_literals(3, &[(0, false), (1, false), (2, true)]),
                Cube::from_literals(3, &[(0, true), (1, false), (2, false)]),
                Cube::from_literals(3, &[(0, true), (1, true), (2, true)]),
            ],
        );
        let g = minimize(f.clone());
        assert_equiv(&f, &g);
        assert!(g.cubes.len() <= 3);
        assert!(g.literal_count() < f.literal_count());
    }

    #[test]
    fn zero_and_one_fixed_points() {
        assert!(minimize(Cover::zero(3)).is_zero());
        let one = minimize(Cover::one(3));
        assert_eq!(one.cubes.len(), 1);
        assert!(one.cubes[0].is_universe());
    }

    #[test]
    fn exhaustive_three_variable_functions_preserved() {
        // All 256 functions of 3 variables, built from minterms.
        for func in 0u32..256 {
            let mut cubes = Vec::new();
            for m in 0..8u32 {
                if (func >> m) & 1 == 1 {
                    cubes.push(Cube::from_literals(
                        3,
                        &[
                            (0, m & 1 == 1),
                            (1, (m >> 1) & 1 == 1),
                            (2, (m >> 2) & 1 == 1),
                        ],
                    ));
                }
            }
            let f = Cover::from_cubes(3, cubes);
            let g = minimize(f.clone());
            for asg in all_assignments(3) {
                assert_eq!(f.eval(&asg), g.eval(&asg), "func {func:08b} at {asg:?}");
            }
        }
    }
}
