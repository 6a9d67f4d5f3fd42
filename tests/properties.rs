//! Property-based tests over the core invariants of the generation path:
//! random boolean behaviors survive the *entire* pipeline (IIF text →
//! parse → expand → optimize → map → simulate) unchanged; estimators obey
//! their monotonicity contracts; the floorplanner is exactly optimal.

use icdb::cells::Library;
use icdb::layout::{best_by_area, SlicingTree};
use icdb::logic::{minimize, quick_factor, sop_eval, Cover, Cube, GateNetlist};
use icdb::sim::{Logic, Simulator};
use proptest::prelude::*;

// ---------------------------------------------------------------- helpers

/// A random expression tree over `n` variables, rendered as IIF text.
#[derive(Debug, Clone)]
enum Expr {
    Var(usize),
    Not(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
}

impl Expr {
    fn eval(&self, asg: &[bool]) -> bool {
        match self {
            Expr::Var(v) => asg[*v],
            Expr::Not(e) => !e.eval(asg),
            Expr::And(a, b) => a.eval(asg) && b.eval(asg),
            Expr::Or(a, b) => a.eval(asg) || b.eval(asg),
            Expr::Xor(a, b) => a.eval(asg) ^ b.eval(asg),
        }
    }

    fn to_iif(&self) -> String {
        match self {
            Expr::Var(v) => format!("I[{v}]"),
            Expr::Not(e) => format!("!({})", e.to_iif()),
            Expr::And(a, b) => format!("({} * {})", a.to_iif(), b.to_iif()),
            Expr::Or(a, b) => format!("({} + {})", a.to_iif(), b.to_iif()),
            Expr::Xor(a, b) => format!("({} (+) {})", a.to_iif(), b.to_iif()),
        }
    }
}

fn arb_expr(vars: usize, depth: u32) -> impl Strategy<Value = Expr> {
    let leaf = (0..vars).prop_map(Expr::Var);
    leaf.prop_recursive(depth, 24, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| Expr::Xor(Box::new(a), Box::new(b))),
        ]
    })
}

/// Runs the full pipeline on an expression and returns the mapped netlist.
fn synthesize_expr(expr: &Expr, vars: usize) -> (GateNetlist, Library) {
    let src = format!(
        "NAME: RND; INORDER: I[{vars}]; OUTORDER: O; {{ O = {}; }}",
        expr.to_iif()
    );
    let lib = Library::standard();
    let module = icdb::iif::parse(&src).expect("generated IIF parses");
    let flat = icdb::iif::expand(&module, &[], &icdb::iif::NoModules).expect("expands");
    let nl = icdb::logic::synthesize(&flat, &lib, &Default::default()).expect("synthesizes");
    (nl, lib)
}

/// A random cover over `n` variables.
fn arb_cover(n: usize, max_cubes: usize) -> impl Strategy<Value = Cover> {
    proptest::collection::vec(proptest::collection::vec(0..3u8, n), 1..=max_cubes).prop_map(
        move |cubes| {
            let cubes: Vec<Cube> = cubes
                .into_iter()
                .map(|codes| {
                    let lits: Vec<(usize, bool)> = codes
                        .iter()
                        .enumerate()
                        .filter_map(|(v, c)| match c {
                            0 => Some((v, false)),
                            1 => Some((v, true)),
                            _ => None,
                        })
                        .collect();
                    Cube::from_literals(n, &lits)
                })
                .collect();
            Cover::from_cubes(n, cubes)
        },
    )
}

fn all_assignments(n: usize) -> impl Iterator<Item = Vec<bool>> {
    (0..1u32 << n).map(move |m| (0..n).map(|v| (m >> v) & 1 == 1).collect())
}

// ------------------------------------------------------------- properties

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// End-to-end: random behavior in, identical behavior out of the
    /// mapped gate netlist — expansion, minimization, factoring, subject
    /// graph construction and tree covering together never change the
    /// function.
    #[test]
    fn pipeline_preserves_random_functions(expr in arb_expr(5, 4)) {
        let vars = 5;
        let (nl, lib) = synthesize_expr(&expr, vars);
        let mut sim = Simulator::new(&nl, &lib).expect("acyclic");
        for asg in all_assignments(vars) {
            for (v, &bit) in asg.iter().enumerate() {
                sim.set_by_name(&format!("I[{v}]"), Logic::from_bool(bit)).unwrap();
            }
            sim.propagate();
            let got = sim.get_by_name("O").unwrap().to_bool().expect("defined");
            prop_assert_eq!(got, expr.eval(&asg), "assignment {:?}", asg);
        }
    }

    /// The espresso-style minimizer is function-preserving and never
    /// increases cube count.
    #[test]
    fn minimize_preserves_and_shrinks(cover in arb_cover(6, 10)) {
        let minimized = minimize(cover.clone());
        for asg in all_assignments(6) {
            prop_assert_eq!(minimized.eval(&asg), cover.eval(&asg));
        }
        prop_assert!(minimized.cubes.len() <= cover.cubes.len().max(1));
    }

    /// Algebraic factoring preserves the function and never increases the
    /// literal count.
    #[test]
    fn factoring_preserves_function(cover in arb_cover(6, 8)) {
        let sop = icdb::logic::cover_to_sop(&cover);
        let tree = quick_factor(&sop);
        for asg in all_assignments(6) {
            prop_assert_eq!(tree.eval(&asg), sop_eval(&sop, &asg));
        }
        let flat_lits: usize = sop.iter().map(icdb::logic::Product::len).sum();
        prop_assert!(tree.literal_count() <= flat_lits.max(1));
    }

    /// Shape functions are monotone staircases for arbitrary adder sizes.
    #[test]
    fn shape_functions_are_staircases(size in 2i64..10) {
        let lib = Library::standard();
        let m = icdb::iif::parse(
            "NAME: A; PARAMETER: size; INORDER: I0[size], I1[size], Cin;
             OUTORDER: O[size], Cout; PIIFVARIABLE: C[size+1]; VARIABLE: i;
             { C[0] = Cin;
               #for(i=0;i<size;i++)
               { O[i] = I0[i] (+) I1[i] (+) C[i];
                 C[i+1] = I0[i]*I1[i] + I0[i]*C[i] + I1[i]*C[i]; }
               Cout = C[size]; }").unwrap();
        let flat = icdb::iif::expand(&m, &[("size", size)], &icdb::iif::NoModules).unwrap();
        let nl = icdb::logic::synthesize(&flat, &lib, &Default::default()).unwrap();
        let sf = icdb::estimate::estimate_shape(&nl, &lib, 8).unwrap();
        prop_assert!(sf.is_staircase(), "{:?}", sf);
        prop_assert!(!sf.alternatives.is_empty());
    }

    /// Stockmeyer floorplanning is exactly optimal on two-level trees:
    /// compare against brute force over every shape choice.
    #[test]
    fn floorplan_is_optimal(
        a in proptest::collection::vec((5.0f64..50.0, 5.0f64..50.0), 1..4),
        b in proptest::collection::vec((5.0f64..50.0, 5.0f64..50.0), 1..4),
        c in proptest::collection::vec((5.0f64..50.0, 5.0f64..50.0), 1..4),
        vertical_first in any::<bool>(),
    ) {
        let sub = if vertical_first {
            SlicingTree::beside(
                SlicingTree::leaf_shapes("a", a.clone()),
                SlicingTree::leaf_shapes("b", b.clone()),
            )
        } else {
            SlicingTree::stack(
                SlicingTree::leaf_shapes("a", a.clone()),
                SlicingTree::leaf_shapes("b", b.clone()),
            )
        };
        let tree = SlicingTree::stack(sub, SlicingTree::leaf_shapes("c", c.clone()));
        let fp = best_by_area(&tree).unwrap();
        let mut brute = f64::INFINITY;
        for &(wa, ha) in &a {
            for &(wb, hb) in &b {
                let (w1, h1) = if vertical_first {
                    (wa + wb, ha.max(hb))
                } else {
                    (wa.max(wb), ha + hb)
                };
                for &(wc, hc) in &c {
                    brute = brute.min(w1.max(wc) * (h1 + hc));
                }
            }
        }
        prop_assert!((fp.area() - brute).abs() < 1e-6,
                     "floorplan {} vs brute force {}", fp.area(), brute);
    }

    /// Transistor sizing under a uniform drive never breaks netlist
    /// validity, and `fastest` never makes the worst delay worse.
    #[test]
    fn sizing_is_safe_and_helpful(size in 2i64..6) {
        let lib = Library::standard();
        let m = icdb::iif::parse(
            "NAME: C; PARAMETER: size; INORDER: CLK; OUTORDER: Q[size];
             PIIFVARIABLE: K[size+1]; VARIABLE: i;
             { K[0] = 1;
               #for(i=0;i<size;i++)
               { Q[i] = (Q[i] (+) K[i]) @(~r CLK); K[i+1] = K[i] * Q[i]; } }").unwrap();
        let flat = icdb::iif::expand(&m, &[("size", size)], &icdb::iif::NoModules).unwrap();
        let mut nl = icdb::logic::synthesize(&flat, &lib, &Default::default()).unwrap();
        let loads = icdb::estimate::LoadSpec::uniform(20.0);
        let before = icdb::estimate::estimate_delay(&nl, &lib, &loads).unwrap();
        let r = icdb::sizing::size_netlist(
            &mut nl, &lib, &loads, &icdb::sizing::Strategy::Fastest);
        nl.validate(&lib).unwrap();
        prop_assert!(r.report.clock_width <= before.clock_width + 1e-9);
    }
}

/// CIF output is well-formed for every builtin at default attributes —
/// run as one deterministic test (layouts are deterministic).
#[test]
fn cif_well_formed_for_all_builtins() {
    let mut icdb = icdb::Icdb::new();
    let names: Vec<String> = icdb.library.iter().map(|c| c.name.clone()).collect();
    for imp in names {
        let inst = icdb
            .request_component(&icdb::ComponentRequest::by_implementation(&imp))
            .unwrap();
        let cif = icdb.cif_layout(&inst).unwrap();
        assert!(
            icdb::layout::cif_is_well_formed(&cif),
            "{imp} CIF malformed"
        );
    }
}
