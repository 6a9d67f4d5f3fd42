//! Property-based suite for the design-space exploration subsystem: the
//! Pareto front is exactly the undominated set and is order-invariant, a
//! parallel sweep is point-for-point identical to a sequential one, and a
//! warm re-exploration is answered from the generation cache.

use icdb::explore::{dominates, pareto_front, DesignPoint, Explorer, Objective};
use icdb::{ComponentRequest, ExploreSpec, Icdb};
use proptest::prelude::*;

/// Random metric triples; small ranges force plenty of ties and
/// duplicates, the interesting cases for exact dominance.
fn arb_metrics() -> impl Strategy<Value = Vec<(u32, u32, u32)>> {
    proptest::collection::vec((0u32..12, 0u32..12, 0u32..12), 1..24)
}

fn points_from(metrics: &[(u32, u32, u32)]) -> Vec<DesignPoint> {
    metrics
        .iter()
        .enumerate()
        .map(|(i, &(a, d, p))| DesignPoint {
            implementation: format!("P{i:02}"),
            strategy: "cheapest".to_string(),
            area: f64::from(a),
            delay: f64::from(d),
            power: f64::from(p),
            gates: i,
            met: true,
            ..DesignPoint::default()
        })
        .collect()
}

/// A deterministic sweep spec covering ≥3 counter implementations ×
/// ≥3 bit-widths × both sizing strategies.
fn counter_sweep() -> ExploreSpec {
    ExploreSpec::by_component("counter")
        .widths([3, 4, 5])
        .strategies(["cheapest", "fastest"])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The front is *exactly* the undominated set: every excluded point is
    /// dominated by some front point, and no front point is dominated.
    #[test]
    fn front_is_exactly_the_undominated_set(metrics in arb_metrics()) {
        let points = points_from(&metrics);
        let front = pareto_front(&points);
        prop_assert!(!front.is_empty(), "a non-empty set has a front");
        for i in 0..points.len() {
            let dominated = points.iter().any(|q| dominates(q, &points[i]));
            prop_assert_eq!(
                front.contains(&i),
                !dominated,
                "point {} front membership must equal undominatedness", i
            );
            if !front.contains(&i) {
                // Every dominated point is beaten by a *front* point too
                // (dominance is transitive on the finite set).
                prop_assert!(
                    front.iter().any(|&f| dominates(&points[f], &points[i])),
                    "excluded point {} must be dominated by a front point", i
                );
            }
        }
    }

    /// Shuffling the insertion order never changes the finished report:
    /// the explorer canonicalizes before computing front and winner.
    #[test]
    fn finished_report_is_insertion_order_invariant(
        metrics in arb_metrics(),
        rotation in 0usize..24,
    ) {
        let points = points_from(&metrics);
        let mut forward = Explorer::new(Objective::default());
        for p in &points {
            forward.add_point(p.clone());
        }
        let mut permuted = Explorer::new(Objective::default());
        let k = rotation % points.len().max(1);
        for p in points[k..].iter().chain(&points[..k]).rev() {
            permuted.add_point(p.clone());
        }
        let (a, b) = (forward.finish(), permuted.finish());
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.to_table(), b.to_table());
    }

    /// The winner under a delay bound is the minimum-area feasible point,
    /// and it sits on the front.
    #[test]
    fn winner_is_min_area_feasible(metrics in arb_metrics(), bound in 0u32..12) {
        let points = points_from(&metrics);
        let mut ex = Explorer::new(Objective::MinAreaUnderDelay(f64::from(bound)));
        for p in &points {
            ex.add_point(p.clone());
        }
        let report = ex.finish();
        let feasible: Vec<&DesignPoint> =
            report.points.iter().filter(|p| p.delay <= f64::from(bound)).collect();
        match report.winner {
            None => prop_assert!(feasible.is_empty()),
            Some(w) => {
                prop_assert!(report.on_front(w), "winner must be Pareto-optimal");
                let winner = &report.points[w];
                prop_assert!(winner.delay <= f64::from(bound));
                for p in feasible {
                    prop_assert!(winner.area <= p.area, "winner is min-area feasible");
                }
            }
        }
    }
}

proptest! {
    // Real sweeps run the generation pipeline; keep the case count small.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// A parallel sweep is byte-identical to a sequential one, point for
    /// point — worker count (0 included, clamped to sequential) never
    /// changes the report.
    #[test]
    fn parallel_sweep_equals_sequential(workers in 0usize..6) {
        let sequential = Icdb::new()
            .explore(&counter_sweep().workers(1))
            .unwrap();
        let parallel = Icdb::new()
            .explore(&counter_sweep().workers(workers))
            .unwrap();
        prop_assert_eq!(&sequential, &parallel);
        prop_assert_eq!(sequential.to_table(), parallel.to_table());
    }
}

proptest! {
    // Real sweeps again — small case count, wide grid coverage.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Corpus-pruned sweeps return the exact same report — points, front,
    /// winner and rendered table — as unpruned ones, across random grids,
    /// with every saved evaluation counted.
    #[test]
    fn pruned_sweeps_match_unpruned_across_random_grids(
        wmask in 1u8..8,
        both_strategies in any::<bool>(),
    ) {
        let widths: Vec<i64> = [3i64, 4, 5]
            .iter()
            .enumerate()
            .filter(|(i, _)| wmask & (1 << i) != 0)
            .map(|(_, w)| *w)
            .collect();
        let strategies = if both_strategies {
            vec!["cheapest", "fastest"]
        } else {
            vec!["cheapest"]
        };
        let spec = ExploreSpec::by_component("counter")
            .widths(widths)
            .strategies(strategies);

        let mut icdb = Icdb::new();
        let (cold, cold_stats) = icdb
            .explore_with_stats(&spec.clone().prune(false))
            .unwrap();
        prop_assert_eq!(cold_stats.evaluated, cold_stats.grid);
        prop_assert_eq!(cold_stats.pruned, 0, "prune:0 evaluates everything");
        prop_assert_eq!(cold_stats.recorded, cold_stats.grid);
        icdb.flush_corpus().unwrap();
        prop_assert_eq!(icdb.corpus_len(), cold_stats.grid);

        let (warm, warm_stats) = icdb.explore_with_stats(&spec).unwrap();
        prop_assert_eq!(&cold, &warm, "pruned report must equal unpruned");
        prop_assert_eq!(cold.to_table(), warm.to_table());
        prop_assert_eq!(
            warm_stats.evaluated, 0,
            "a fully-warm corpus answers every grid point"
        );
        prop_assert_eq!(warm_stats.corpus_hits, warm_stats.grid);
        prop_assert_eq!(warm_stats.pruned, warm_stats.grid);
    }
}

/// A partly covered grid — the shape of an overlapping sliding-window
/// sweep: the corpus answers the covered two thirds exactly, the rest is
/// evaluated and recorded, and the report equals the `prune:0` one.
#[test]
fn partly_covered_grid_evaluates_and_records_only_the_misses() {
    let mut icdb = Icdb::new();
    let narrow = ExploreSpec::by_component("counter")
        .widths([3, 4])
        .strategies(["cheapest", "fastest"]);
    icdb.explore(&narrow).unwrap();
    icdb.flush_corpus().unwrap();

    let (pruned, stats) = icdb.explore_with_stats(&counter_sweep()).unwrap();
    let third = stats.grid / 3;
    assert_eq!(stats.grid, third * 3);
    assert_eq!(stats.corpus_hits, 2 * third);
    assert_eq!(
        (stats.evaluated, stats.corpus_misses, stats.recorded),
        (third, third, third)
    );

    // prune:0 counts the same hits, evaluates the whole grid, and records
    // nothing new (the misses are already queued).
    let (unpruned, full) = icdb
        .explore_with_stats(&counter_sweep().prune(false))
        .unwrap();
    assert_eq!(pruned, unpruned);
    assert_eq!(pruned.to_table(), unpruned.to_table());
    assert_eq!((full.corpus_hits, full.corpus_misses), (2 * third, third));
    assert_eq!((full.evaluated, full.recorded), (full.grid, 0));
}

/// A failing sweep reports its first failing grid point in grid order,
/// whether that point fails at generation (COUNTER at size 0) or at
/// resolution (ADDER has no `enable` attribute) — on a fresh server and
/// with part of the grid already in the corpus.
#[test]
fn failing_sweep_reports_the_first_failing_point_in_grid_order() {
    fn failure(icdb: &Icdb, names: [&str; 2]) -> String {
        icdb.explore(
            &ExploreSpec::by_implementations(names)
                .widths([0, 4])
                .attribute("enable", "0"),
        )
        .unwrap_err()
        .to_string()
    }
    let mut icdb = Icdb::new();
    for corpus_warm in [false, true] {
        let counter_first = failure(&icdb, ["COUNTER", "ADDER"]);
        assert!(
            counter_first.contains("output `Q[0]` is never driven"),
            "corpus warm {corpus_warm}: {counter_first}"
        );
        let adder_first = failure(&icdb, ["ADDER", "COUNTER"]);
        assert!(
            adder_first.contains("has no attribute `enable`"),
            "corpus warm {corpus_warm}: {adder_first}"
        );
        let counter4 = ExploreSpec::by_implementations(["COUNTER"])
            .widths([4])
            .attribute("enable", "0");
        icdb.explore(&counter4).unwrap();
        icdb.flush_corpus().unwrap();
        assert_eq!(icdb.corpus_len(), 1);
    }
}

#[test]
fn sweep_covers_three_counters_and_three_widths() {
    let icdb = Icdb::new();
    let counters = icdb.library.by_component_type("counter");
    assert!(counters.len() >= 3, "{:?}", counters.len());
    let report = icdb.explore(&counter_sweep()).unwrap();
    assert_eq!(report.points.len(), counters.len() * 3 * 2);
    // All three implementations and all three widths appear.
    for imp in ["COUNTER", "RIPPLE_COUNTER", "JOHNSON_COUNTER"] {
        assert!(
            report.points.iter().any(|p| p.implementation == imp),
            "{imp} missing from the sweep"
        );
    }
    for width in [3i64, 4, 5] {
        assert!(report
            .points
            .iter()
            .any(|p| p.params.iter().any(|(k, v)| k == "size" && *v == width)));
    }
    assert!(report.winner.is_some());
}

#[test]
fn warm_re_exploration_hits_the_generation_cache() {
    let icdb = Icdb::new();
    let cold = icdb.explore(&counter_sweep()).unwrap();
    let cold_stats = icdb.cache_stats().result;
    assert_eq!(cold_stats.misses, cold.points.len() as u64);

    let warm = icdb.explore(&counter_sweep()).unwrap();
    let warm_stats = icdb.cache_stats().result;
    assert_eq!(
        warm_stats.hits - cold_stats.hits,
        cold.points.len() as u64,
        "every warm grid point must be a result-layer hit"
    );
    assert_eq!(warm_stats.misses, cold_stats.misses, "no new cold work");
    assert_eq!(cold, warm, "payload-derived points are identical");
    assert_eq!(cold.to_table(), warm.to_table());
}

/// A cold sweep builds each distinct netlist once, at any worker count:
/// the `cheapest` and `fastest` points of one width share their netlist
/// entry, and each entry is built before any point is sized. So the
/// netlist layer is looked up and missed once per distinct
/// (implementation, width) pair, and the result layer misses once per grid
/// point. A batch of one key under both strategies synthesizes once too.
#[test]
fn sweeps_and_batches_build_each_distinct_netlist_once() {
    let sweep = |widths: [i64; 3], workers| {
        ExploreSpec::by_component("counter")
            .widths(widths)
            .strategies(["cheapest", "fastest"])
            .workers(workers)
    };
    let mut reports = Vec::new();
    for workers in [1, 2, 8] {
        let icdb = Icdb::new();
        let counters = icdb.library.by_component_type("counter").len() as u64;
        reports.push(icdb.explore(&sweep([3, 4, 5], workers)).unwrap());
        let cold = icdb.cache_stats();
        let distinct = 3 * counters;
        assert_eq!(
            (
                cold.netlist.lookups(),
                cold.netlist.misses,
                cold.result.misses
            ),
            (distinct, distinct, 2 * distinct),
            "workers={workers}: {cold:?}"
        );

        icdb.explore(&sweep([4, 5, 6], workers)).unwrap();
        let next = icdb.cache_stats();
        assert_eq!(
            next.netlist.misses - cold.netlist.misses,
            counters,
            "workers={workers}: only width 6 is new: {next:?}"
        );
    }
    assert!(reports.windows(2).all(|w| w[0] == w[1]));

    let mut icdb = Icdb::new();
    let request = ComponentRequest::by_implementation("COUNTER").attribute("size", "5");
    let twins = [
        request.clone().strategy("cheapest"),
        request.strategy("fastest"),
    ];
    icdb.request_components_batch(&twins, 2).unwrap();
    let stats = icdb.cache_stats();
    assert_eq!(
        (stats.netlist.misses, stats.result.misses),
        (1, 2),
        "{stats:?}"
    );
}

/// An exploration sweep shares cache entries with plain component
/// requests: generating a swept configuration first makes the sweep's
/// evaluation of it warm, and vice versa.
#[test]
fn sweeps_share_the_cache_with_plain_requests() {
    let mut icdb = Icdb::new();
    icdb.request_component(
        &ComponentRequest::by_implementation("RIPPLE_COUNTER")
            .attribute("size", "4")
            .strategy("cheapest"),
    )
    .unwrap();
    let before = icdb.cache_stats().result;
    icdb.explore(&counter_sweep()).unwrap();
    let after = icdb.cache_stats().result;
    assert!(
        after.hits > before.hits,
        "the pre-generated grid point must be served warm"
    );
}

#[test]
fn served_explore_publishes_only_on_request() {
    use icdb::cql::CqlArg;
    let service = icdb::IcdbService::shared();
    let session = service.open_session();

    // The plain served command (and an explicit `publish:0`) runs under
    // the shared lock and leaves the relational mirror untouched…
    for command in [
        "command:explore; component:counter; widths:(4); winner:?s",
        "command:explore; component:counter; widths:(4); publish:0; winner:?s",
    ] {
        let mut args = vec![CqlArg::OutStr(None)];
        session.execute(command, &mut args).unwrap();
        let rows = service
            .read()
            .db
            .query("SELECT candidate FROM exploration")
            .unwrap();
        assert!(rows.is_empty(), "shared-lock explore must not publish");
    }

    // …while `publish:1` routes to the exclusive path and mirrors every
    // point into the `exploration` table.
    let mut args = vec![CqlArg::OutStr(None), CqlArg::OutInt(None)];
    session
        .execute(
            "command:explore; component:counter; widths:(4); publish:1; winner:?s; points:?d",
            &mut args,
        )
        .unwrap();
    let CqlArg::OutInt(Some(points)) = &args[1] else {
        panic!("no point count");
    };
    let rows = service
        .read()
        .db
        .query("SELECT candidate FROM exploration")
        .unwrap();
    assert_eq!(rows.len(), *points as usize);
}

#[test]
fn cql_explore_rejects_malformed_bounds() {
    let mut icdb = Icdb::new();
    let mut args = vec![icdb::cql::CqlArg::OutStr(None)];
    // A present-but-unparsable bound must error, not silently fall back
    // to the default weighted objective.
    let err = icdb
        .execute(
            "command:explore; component:counter; widths:(4); max_delay:40ns; winner:?s",
            &mut args,
        )
        .unwrap_err();
    assert!(err.to_string().contains("max_delay"), "{err}");
    let err = icdb
        .execute(
            "command:explore; component:counter; widths:(4); max_area:big; winner:?s",
            &mut args,
        )
        .unwrap_err();
    assert!(err.to_string().contains("max_area"), "{err}");
    // Two objective families at once cannot silently shadow each other.
    let err = icdb
        .execute(
            "command:explore; component:counter; widths:(4); max_delay:40; max_area:20000; \
             winner:?s",
            &mut args,
        )
        .unwrap_err();
    assert!(
        err.to_string().contains("one objective"),
        "conflicting objectives must error: {err}"
    );
    // Non-finite weights would poison every score.
    let err = icdb
        .execute(
            "command:explore; component:counter; widths:(4); weights:(area:nan,delay:1); \
             winner:?s",
            &mut args,
        )
        .unwrap_err();
    assert!(err.to_string().contains("finite"), "{err}");
    // Negative weights would reward dominated points that the
    // front-restricted selection can never return.
    let err = icdb
        .execute(
            "command:explore; component:counter; widths:(4); weights:(area:-1,delay:1); \
             winner:?s",
            &mut args,
        )
        .unwrap_err();
    assert!(err.to_string().contains("non-negative"), "{err}");
    // A positional (non-attribute) weights list must not silently fall
    // back to the default objective.
    let err = icdb
        .execute(
            "command:explore; component:counter; widths:(4); weights:(2,1,0); winner:?s",
            &mut args,
        )
        .unwrap_err();
    assert!(err.to_string().contains("attribute list"), "{err}");
    // A non-integer publish flag must not silently mean "don't publish".
    let err = icdb
        .execute(
            "command:explore; component:counter; widths:(4); publish:yes; winner:?s",
            &mut args,
        )
        .unwrap_err();
    assert!(err.to_string().contains("publish"), "{err}");
}

#[test]
fn cql_explore_rejects_unknown_weight_keys() {
    let mut icdb = Icdb::new();
    let mut args = vec![icdb::cql::CqlArg::OutStr(None)];
    // A typoed weight key must error, not silently score everything 0.
    let err = icdb
        .execute(
            "command:explore; component:counter; widths:(4); weights:(aera:2,delay:1); winner:?s",
            &mut args,
        )
        .unwrap_err();
    assert!(err.to_string().contains("aera"), "{err}");
    // Well-formed weights work.
    icdb.execute(
        "command:explore; component:counter; widths:(4); weights:(area:1,delay:2,power:1); \
         winner:?s",
        &mut args,
    )
    .unwrap();
    let icdb::cql::CqlArg::OutStr(Some(winner)) = &args[0] else {
        panic!("no winner");
    };
    assert!(!winner.is_empty());
}

#[test]
fn cql_explore_matches_the_direct_api_and_publishes() {
    let mut icdb = Icdb::new();
    let direct = icdb
        .explore(&counter_sweep().objective(Objective::MinAreaUnderDelay(1e9)))
        .unwrap();

    let mut args = vec![
        icdb::cql::CqlArg::InReal(1e9),
        icdb::cql::CqlArg::OutStr(None),
        icdb::cql::CqlArg::OutStrList(None),
        icdb::cql::CqlArg::OutInt(None),
        icdb::cql::CqlArg::OutReal(None),
    ];
    icdb.execute(
        "command:explore; component:counter; widths:(3,4,5); \
         strategies:(cheapest,fastest); max_delay:%r; publish:1; \
         winner:?s; front:?s[]; points:?d; area:?r",
        &mut args,
    )
    .unwrap();
    let icdb::cql::CqlArg::OutStr(Some(winner)) = &args[1] else {
        panic!("no winner");
    };
    let icdb::cql::CqlArg::OutStrList(Some(front)) = &args[2] else {
        panic!("no front");
    };
    let icdb::cql::CqlArg::OutInt(Some(points)) = &args[3] else {
        panic!("no point count");
    };
    let icdb::cql::CqlArg::OutReal(Some(area)) = &args[4] else {
        panic!("no area");
    };
    assert_eq!(winner, &direct.winner_point().unwrap().label());
    assert_eq!(front, &direct.front_lines());
    assert_eq!(*points as usize, direct.points.len());
    assert_eq!(*area, direct.winner_point().unwrap().area);

    // `publish:1` also mirrored the report into the relational
    // `exploration` table.
    let rows = icdb
        .db
        .query("SELECT candidate FROM exploration WHERE pareto = 1")
        .unwrap();
    assert_eq!(rows.len(), direct.front.len());
}
