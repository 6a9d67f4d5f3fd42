//! The exploration sweep driver: turns the knowledge base into a design
//! space and drives `icdb-explore`'s Pareto selection over it.
//!
//! [`Icdb::explore`] resolves candidate implementations (by explicit
//! names, component type, or required functions) and crosses them with
//! the requested bit-widths and sizing strategies. Each grid point is
//! resolved once and looked up once in the durable exploration corpus by
//! its canonical key; the misses are prepared as one batch and queued for
//! the corpus. The batch looks each point up once in the generation
//! cache's result layer and generates the rest in two phases on scoped
//! worker threads: each distinct netlist among them (the `cheapest` and
//! `fastest` points of one width share one) is expanded, synthesized and
//! rendered once, then each point is sized and estimated. So a cold sweep
//! misses the netlist layer exactly once per distinct missing netlist, at
//! any worker count. Estimated `(area, delay, power)` metrics
//! feed an [`icdb_explore::Explorer`], which computes the exact Pareto
//! front and selects a winner under the sweep's [`Objective`].
//!
//! The sweep is read-only (`&self`): no instance is installed, so the
//! concurrent [`crate::service::IcdbService`] runs every served sweep on
//! its lock-free epoch snapshot. [`Icdb::publish_exploration`]
//! additionally mirrors a report into the relational `exploration` table
//! (like `cache_stats`); only that journaling enters the commit section.

use crate::error::IcdbError;
use crate::server::Resolved;
use crate::spec::ComponentRequest;
use crate::Icdb;
use icdb_explore::{DesignPoint, ExplorationReport, Explorer, Objective};
use icdb_store::corpus::CorpusPoint;
use icdb_store::Value;

/// The grid attribute swept by [`ExploreSpec::widths`].
const WIDTH_ATTR: &str = "size";

/// What to sweep: candidate implementations, parameter ranges, sizing
/// strategies, and the selection objective.
///
/// Candidates come from `implementations` when non-empty, else from
/// `component` (a component-type name, e.g. `counter`), else from
/// `functions` (implementations executing all of them).
#[derive(Debug, Clone)]
pub struct ExploreSpec {
    /// Component-type candidate filter (`counter`).
    pub component: Option<String>,
    /// Explicit candidate implementations (overrides `component`).
    pub implementations: Vec<String>,
    /// Function-based candidate filter (used when the other two are
    /// empty).
    pub functions: Vec<String>,
    /// `size` attribute values to sweep. Candidates without a `size`
    /// parameter are evaluated once at their defaults. Empty = defaults
    /// only.
    pub widths: Vec<i64>,
    /// Sizing strategies to sweep (`cheapest`, `fastest`). Empty =
    /// `cheapest` only.
    pub strategies: Vec<String>,
    /// Extra attribute overrides applied to every request in the grid.
    pub attributes: Vec<(String, String)>,
    /// Winner-selection objective.
    pub objective: Objective,
    /// Scoped worker threads for the cold evaluations; clamped, in each
    /// phase, to `1..=` the number of distinct netlists or of points that
    /// phase generates (0 means sequential, like
    /// [`Icdb::request_components_batch`]).
    pub workers: usize,
    /// Whether the sweep may answer grid points from the durable
    /// exploration corpus instead of evaluating them. Exact: a point is
    /// reused only when its serialized canonical request key matches a
    /// stored one byte for byte, and that key — which embeds the
    /// knowledge-base and cell-library versions — determines the whole
    /// generation pipeline, so the reused point equals a fresh
    /// evaluation. The `prune:0` escape hatch turns reuse off: every
    /// point is then evaluated, though corpus lookups and recording
    /// still happen.
    pub prune: bool,
}

impl Default for ExploreSpec {
    fn default() -> ExploreSpec {
        ExploreSpec {
            component: None,
            implementations: Vec::new(),
            functions: Vec::new(),
            widths: Vec::new(),
            strategies: Vec::new(),
            attributes: Vec::new(),
            objective: Objective::default(),
            workers: 4,
            prune: true,
        }
    }
}

impl ExploreSpec {
    /// A sweep over every implementation of a component type.
    pub fn by_component(name: impl Into<String>) -> ExploreSpec {
        ExploreSpec {
            component: Some(name.into()),
            ..ExploreSpec::default()
        }
    }

    /// A sweep over explicitly named implementations.
    pub fn by_implementations<S: Into<String>>(names: impl IntoIterator<Item = S>) -> ExploreSpec {
        ExploreSpec {
            implementations: names.into_iter().map(Into::into).collect(),
            ..ExploreSpec::default()
        }
    }

    /// Sets the `size` values to sweep.
    pub fn widths(mut self, widths: impl IntoIterator<Item = i64>) -> Self {
        self.widths = widths.into_iter().collect();
        self
    }

    /// Sets the sizing strategies to sweep.
    pub fn strategies<S: Into<String>>(mut self, names: impl IntoIterator<Item = S>) -> Self {
        self.strategies = names.into_iter().map(Into::into).collect();
        self
    }

    /// Adds an attribute override applied to every candidate.
    pub fn attribute(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.attributes.push((key.into(), value.into()));
        self
    }

    /// Sets the winner-selection objective.
    pub fn objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Sets the worker-thread count for cold evaluations.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Enables or disables corpus-based pruning (`prune:0` escape hatch).
    pub fn prune(mut self, prune: bool) -> Self {
        self.prune = prune;
        self
    }
}

/// Out-of-band accounting of one sweep — kept separate from
/// [`ExplorationReport`] so pruned and unpruned sweeps can return
/// *equal* reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Grid points in the sweep (candidates × widths × strategies).
    pub grid: usize,
    /// Points actually run through the generation pipeline (cache-warm
    /// or cold).
    pub evaluated: usize,
    /// Points the corpus saved from evaluation (reconstructed from an
    /// exact-key match).
    pub pruned: usize,
    /// Exact-key corpus lookups that hit.
    pub corpus_hits: usize,
    /// Exact-key corpus lookups that missed.
    pub corpus_misses: usize,
    /// Freshly evaluated points queued for the next corpus flush.
    pub recorded: usize,
}

impl Icdb {
    /// Runs a design-space exploration sweep: evaluates every candidate ×
    /// width × strategy grid point through the generation cache and
    /// returns the Pareto front plus the winner under the spec's
    /// objective. Read-only — no instance is installed.
    ///
    /// # Errors
    /// Fails when no candidate matches the spec, and propagates the error
    /// of the first failing grid point in grid order.
    pub fn explore(&self, spec: &ExploreSpec) -> Result<ExplorationReport, IcdbError> {
        Ok(self.explore_with_stats(spec)?.0)
    }

    /// [`Icdb::explore`] returning the sweep's out-of-band accounting
    /// (evaluated/pruned/hit/miss counts) alongside the report.
    ///
    /// The full sweep: look up, evaluate the misses, record. Each grid
    /// point is resolved once and looked up once in the corpus by its
    /// canonical key; the points the corpus cannot answer (every point
    /// under `prune:0`) are evaluated as one batch through the generation
    /// cache (one result-layer lookup each, then one netlist-layer lookup
    /// per distinct netlist among the misses); fresh evaluations are
    /// queued for the next journaled flush ([`Icdb::flush_corpus`]).
    ///
    /// The report equals an unpruned sweep's (see [`ExploreSpec::prune`]).
    ///
    /// # Errors
    /// As [`Icdb::explore`], whether the first failing grid point fails at
    /// resolution or at generation.
    pub fn explore_with_stats(
        &self,
        spec: &ExploreSpec,
    ) -> Result<(ExplorationReport, SweepStats), IcdbError> {
        let grid = self.explore_grid(spec)?;
        let mut stats = SweepStats {
            grid: grid.len(),
            ..SweepStats::default()
        };

        // Look up: resolve each grid point once and look its key up once.
        // Lookups run (and count) even under `prune:0`, so the hit-rate
        // metrics describe corpus coverage independently of the dial.
        let resolved: Vec<Result<Resolved, IcdbError>> = grid
            .iter()
            .map(|(_, request)| self.resolve(request))
            .collect();
        let stored: Vec<Option<CorpusPoint>> = resolved
            .iter()
            .map(|r| self.corpus.lookup(&r.as_ref().ok()?.key))
            .collect();
        stats.corpus_hits = stored.iter().flatten().count();
        stats.corpus_misses = resolved.iter().flatten().count() - stats.corpus_hits;

        // Evaluate the points the corpus does not answer (its misses, or
        // every point under `prune:0`) as one batch. Worker threads start
        // only when some point misses both memos.
        let todo: Vec<_> = grid
            .iter()
            .zip(&resolved)
            .zip(&stored)
            .filter(|(_, stored)| !spec.prune || stored.is_none())
            .filter_map(|(((_, request), resolved), _)| Some((resolved.as_ref().ok()?, request)))
            .collect();
        stats.evaluated = todo.len();
        stats.pruned = stats.grid - stats.evaluated;
        let mut prepared = self.prepare_all(&todo, spec.workers).into_iter();

        // Record: assemble the report in grid order (the explorer sorts
        // points canonically, so stored and evaluated points mix
        // deterministically) and queue fresh evaluations for the corpus.
        let mut explorer = Explorer::new(spec.objective.clone());
        for (((strategy, _), resolved), stored) in grid.into_iter().zip(&resolved).zip(stored) {
            let resolved = resolved.as_ref().map_err(IcdbError::clone)?;
            let missed = stored.is_none();
            if let Some(p) = stored.filter(|_| spec.prune) {
                explorer.add_point(DesignPoint {
                    implementation: p.implementation,
                    params: p.params,
                    strategy,
                    area: p.area,
                    delay: p.delay,
                    power: p.power,
                    gates: p.gates as usize,
                    met: p.met,
                });
                continue;
            }
            let payload = prepared
                .next()
                .expect("every unanswered point was evaluated")?;
            let mut params = payload.params.clone();
            params.sort();
            let delay = if payload.report.clock_width > 0.0 {
                payload.report.clock_width
            } else {
                payload.report.worst_output_delay()
            };
            let point = DesignPoint {
                implementation: payload.implementation.clone(),
                params,
                strategy,
                area: payload.shape.best_area().map(|a| a.area()).unwrap_or(0.0),
                delay,
                power: payload.power_uw,
                gates: payload.netlist.gates.len(),
                met: payload.met,
            };
            // A point the corpus already answered is not re-recorded, and
            // neither is one already queued: equal keys carry equal points.
            if missed
                && self.corpus.queue(&resolved.key, || CorpusPoint {
                    implementation: point.implementation.clone(),
                    width: resolved.key.width().unwrap_or(-1),
                    params: point.params.clone(),
                    strategy: point.strategy.clone(),
                    area: point.area,
                    delay: point.delay,
                    power: point.power,
                    gates: point.gates as u64,
                    met: point.met,
                    library_version: payload.lib_version,
                    cells_version: payload.cells_version,
                    seq: 0, // assigned at apply time
                    request: Vec::new(),
                })
            {
                stats.recorded += 1;
            }
            explorer.add_point(point);
        }
        self.corpus.note_pruned(stats.pruned as u64);
        Ok((explorer.finish(), stats))
    }

    /// Expands a spec into its request grid, in deterministic candidate ×
    /// width × strategy order: the strategy label of each grid point (the
    /// rest of the point identity comes back with its payload) and its
    /// request.
    fn explore_grid(
        &self,
        spec: &ExploreSpec,
    ) -> Result<Vec<(String, ComponentRequest)>, IcdbError> {
        let candidates: Vec<&crate::library::ComponentImpl> = if !spec.implementations.is_empty() {
            // Names resolve case-insensitively, so two spellings can name
            // one candidate: keep its first occurrence.
            let mut candidates: Vec<&crate::library::ComponentImpl> = Vec::new();
            for name in &spec.implementations {
                let imp = self
                    .library
                    .implementation(name)
                    .ok_or_else(|| IcdbError::NotFound(format!("implementation `{name}`")))?;
                if !candidates.iter().any(|c| c.name == imp.name) {
                    candidates.push(imp);
                }
            }
            candidates
        } else if let Some(ty) = spec.component.as_deref().filter(|t| !t.is_empty()) {
            self.library.by_component_type(ty)
        } else if !spec.functions.is_empty() {
            self.library.by_functions(&spec.functions)
        } else {
            return Err(IcdbError::Cql(
                "explore needs candidates: implementation:(…), component:<type> \
                     or function:(…)"
                    .into(),
            ));
        };
        if candidates.is_empty() {
            return Err(IcdbError::NotFound(format!(
                "no implementation matches component {:?} functions {:?}",
                spec.component, spec.functions
            )));
        }

        // Validate and dedupe the grid axes up front. Unknown strategy
        // names would silently alias to cheapest sizing downstream
        // (`ComponentRequest::sizing_strategy`), and duplicate axis values
        // (like duplicate candidates above) would double-count grid points
        // in the report.
        let strategies: Vec<String> = if spec.strategies.is_empty() {
            vec!["cheapest".to_string()]
        } else {
            let mut seen = Vec::new();
            for s in &spec.strategies {
                if !["cheapest", "fastest"].contains(&s.as_str()) {
                    return Err(IcdbError::Cql(format!(
                        "explore knows strategies cheapest/fastest, not `{s}`"
                    )));
                }
                if !seen.contains(s) {
                    seen.push(s.clone());
                }
            }
            seen
        };
        let mut widths_dedup = Vec::new();
        for w in &spec.widths {
            if !widths_dedup.contains(w) {
                widths_dedup.push(*w);
            }
        }

        let mut grid = Vec::new();
        for imp in candidates {
            // Candidates without the swept width attribute are evaluated
            // once at their parameter defaults.
            let widths: Vec<Option<i64>> =
                if widths_dedup.is_empty() || !imp.params.iter().any(|p| p.name == WIDTH_ATTR) {
                    vec![None]
                } else {
                    widths_dedup.iter().copied().map(Some).collect()
                };
            for width in widths {
                for strategy in &strategies {
                    let mut request = ComponentRequest::by_implementation(&imp.name);
                    request.attributes = spec.attributes.clone();
                    if let Some(w) = width {
                        request.attributes.push((WIDTH_ATTR.into(), w.to_string()));
                    }
                    request.strategy = Some(strategy.clone());
                    grid.push((strategy.clone(), request));
                }
            }
        }
        Ok(grid)
    }

    /// Mirrors an exploration report into the relational `exploration`
    /// table (one row per point, with Pareto/winner flags), so results are
    /// queryable through the store layer like `cache_stats`. Journaled as
    /// a [`crate::MutationEvent::PublishTable`] carrying the computed rows
    /// (the report itself is not durable state), so a recovered server
    /// serves the same table.
    ///
    /// # Errors
    /// Propagates store errors (the table exists on every fresh server).
    pub fn publish_exploration(&mut self, report: &ExplorationReport) -> Result<(), IcdbError> {
        let rows = report
            .points
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let width = p
                    .params
                    .iter()
                    .find(|(k, _)| k == WIDTH_ATTR)
                    .map(|(_, v)| *v)
                    .unwrap_or(0);
                vec![
                    Value::Text(p.label()),
                    Value::Text(p.implementation.clone()),
                    Value::Int(width),
                    Value::Text(p.strategy.clone()),
                    Value::Real(p.area),
                    Value::Real(p.delay),
                    Value::Real(p.power),
                    Value::Int(p.gates as i64),
                    Value::Int(i64::from(p.met)),
                    Value::Int(i64::from(report.on_front(i))),
                    Value::Int(i64::from(report.winner == Some(i))),
                ]
            })
            .collect();
        self.commit(&crate::MutationEvent::PublishTable {
            table: "exploration".to_string(),
            rows,
        })?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter_spec() -> ExploreSpec {
        ExploreSpec::by_component("counter")
            .widths([3, 4])
            .strategies(["cheapest", "fastest"])
    }

    #[test]
    fn sweep_covers_the_full_grid() {
        let icdb = Icdb::new();
        let counters = icdb.library.by_component_type("counter").len();
        assert!(counters >= 3, "need >=3 counter implementations");
        let report = icdb.explore(&counter_spec()).unwrap();
        // candidates × widths × strategies, every point evaluated.
        assert_eq!(report.points.len(), counters * 2 * 2);
        assert!(!report.front.is_empty());
        assert!(report.winner.is_some());
        // Every front point is undominated (exactness spot check).
        for fp in report.front_points() {
            assert!(!report.points.iter().any(|q| icdb_explore::dominates(q, fp)));
        }
    }

    #[test]
    fn sweep_runs_through_the_generation_cache() {
        let icdb = Icdb::new();
        let cold = icdb.explore(&counter_spec()).unwrap();
        let before = icdb.cache_stats().result;
        let warm = icdb.explore(&counter_spec()).unwrap();
        let after = icdb.cache_stats().result;
        assert_eq!(cold, warm, "warm re-exploration is identical");
        assert_eq!(
            after.hits - before.hits,
            cold.points.len() as u64,
            "every warm grid point is a result-layer hit"
        );
    }

    #[test]
    fn zero_workers_is_clamped_not_hung() {
        let icdb = Icdb::new();
        let seq = icdb.explore(&counter_spec().workers(1)).unwrap();
        let zero = icdb.explore(&counter_spec().workers(0)).unwrap();
        assert_eq!(seq, zero);
    }

    #[test]
    fn constrained_selection_picks_cheapest_feasible() {
        let icdb = Icdb::new();
        // Find an achievable bound from an unconstrained sweep first.
        let free = icdb.explore(&counter_spec()).unwrap();
        let median_delay = {
            let mut delays: Vec<f64> = free.points.iter().map(|p| p.delay).collect();
            delays.sort_by(f64::total_cmp);
            delays[delays.len() / 2]
        };
        let spec = counter_spec().objective(Objective::MinAreaUnderDelay(median_delay));
        let report = icdb.explore(&spec).unwrap();
        let winner = report.winner_point().expect("median bound is feasible");
        assert!(winner.delay <= median_delay);
        for p in &report.points {
            if p.delay <= median_delay {
                assert!(winner.area <= p.area, "winner is min-area feasible");
            }
        }
        // An impossible bound selects nothing.
        let spec = counter_spec().objective(Objective::MinAreaUnderDelay(0.001));
        assert!(icdb.explore(&spec).unwrap().winner.is_none());
    }

    #[test]
    fn unknown_strategies_error_and_duplicate_axes_dedupe() {
        let icdb = Icdb::new();
        // A typoed strategy must not silently alias to cheapest sizing.
        let err = icdb
            .explore(&ExploreSpec::by_component("counter").strategies(["cheapest", "fastes"]))
            .unwrap_err();
        assert!(err.to_string().contains("fastes"), "{err}");
        // Duplicate widths/strategies do not double-count grid points.
        let deduped = icdb
            .explore(
                &ExploreSpec::by_component("counter")
                    .widths([4, 4])
                    .strategies(["cheapest", "cheapest"]),
            )
            .unwrap();
        let plain = icdb
            .explore(
                &ExploreSpec::by_component("counter")
                    .widths([4])
                    .strategies(["cheapest"]),
            )
            .unwrap();
        assert_eq!(deduped, plain);
        // So do duplicate candidates, however they are spelled.
        let once = ExploreSpec::by_implementations(["COUNTER"]).widths([4]);
        let once = icdb.explore(&once).unwrap();
        for names in [["COUNTER", "COUNTER"], ["COUNTER", "counter"]] {
            let spec = ExploreSpec::by_implementations(names).widths([4]);
            let (twice, stats) = icdb.explore_with_stats(&spec).unwrap();
            assert_eq!((&twice, stats.grid, stats.evaluated), (&once, 1, 1));
        }
    }

    #[test]
    fn unknown_candidates_error() {
        let icdb = Icdb::new();
        assert!(icdb.explore(&ExploreSpec::default()).is_err());
        assert!(icdb
            .explore(&ExploreSpec::by_implementations(["GHOST"]))
            .is_err());
        assert!(icdb
            .explore(&ExploreSpec::by_component("no_such_type"))
            .is_err());
    }

    /// The embedded `explore` publishes only with `publish:1`, as the
    /// served one does.
    #[test]
    fn embedded_explore_publishes_only_with_publish_one() {
        let mut icdb = Icdb::new();
        let rows = |icdb: &Icdb| icdb.db.query("SELECT candidate FROM exploration").unwrap();
        let sweep = |publish: &str| {
            format!("command:explore; component:counter; widths:(4);{publish} winner:?s")
        };
        let mut args = [icdb_cql::CqlArg::OutStr(None)];
        icdb.execute(&sweep(" publish:0;"), &mut args).unwrap();
        assert!(rows(&icdb).is_empty(), "publish:0 leaves the table alone");
        icdb.execute(&sweep(""), &mut args).unwrap();
        assert!(rows(&icdb).is_empty(), "no publish: term leaves it alone");
        icdb.execute(&sweep(" publish:1;"), &mut args).unwrap();
        assert!(!rows(&icdb).is_empty(), "publish:1 publishes");
    }

    #[test]
    fn publish_exploration_lands_in_the_store() {
        let mut icdb = Icdb::new();
        let report = icdb.explore(&counter_spec()).unwrap();
        icdb.publish_exploration(&report).unwrap();
        let rows = icdb.db.query("SELECT candidate FROM exploration").unwrap();
        assert_eq!(rows.len(), report.points.len());
        let winners = icdb
            .db
            .query("SELECT candidate FROM exploration WHERE winner = 1")
            .unwrap();
        assert_eq!(winners.len(), 1);
        assert_eq!(
            winners[0][0].as_text().unwrap(),
            report.winner_point().unwrap().label()
        );
    }
}
