//! CQL command executors: the `ICDB("command:…", vars)` entry point
//! (paper §3.2 and Appendix B). Every command of the paper runs through
//! [`Icdb::execute`]: component / function / instance queries, component
//! requests (from library specs, inline IIF, or VHDL clusters), connection
//! queries and component-list management.
//!
//! Which lock a command needs comes from its row in the request-verb
//! table ([`icdb_cql::COMMANDS`]), escalated by its terms in [`route`].
//! Each command has one handler: [`Icdb::dispatch_read`] answers the
//! read-only rows through `&self` — so the concurrent
//! [`crate::service::IcdbService`] can serve them from an epoch snapshot
//! or under a shared lock — and `dispatch_in` runs the mutating rows plus
//! the exclusive-only side effects of the read-only ones (layout
//! generation, relational publishing, checkpoints) before handing over to
//! the same read handler.

use crate::error::IcdbError;
use crate::space::NsId;
use crate::spec::{ComponentRequest, Source, TargetLevel};
use crate::Icdb;
use icdb_cql::{
    bind_outputs, command_spec, parse_command, Command, CommandSpec, CqlArg, CqlValue, Response,
    Tier,
};

/// The row a parsed command runs under: its [`icdb_cql::COMMANDS`] row
/// with the tier escalated by its terms. An `explore` with a `publish:`
/// term leaves the epoch snapshot for the shared lock, and a non-zero one
/// mutates the relational catalog, so it needs the exclusive section; so
/// does a `persist` that checkpoints, clears a fault or promotes. An
/// unknown verb gets an exclusive row, so it meets the commit gate before
/// the dispatcher rejects it. (An `instance_query` for an ungenerated
/// layout escalates later, when [`Icdb::dispatch_read`] finds the layout
/// missing.)
pub(crate) fn route(cmd: &Command) -> Result<CommandSpec, IcdbError> {
    let Some(&spec) = command_spec(&cmd.name) else {
        return Ok(CommandSpec {
            name: "other",
            tier: Tier::Exclusive,
            rearms: false,
        });
    };
    let tier = match spec.name {
        "explore" if cmd.int_term("publish").unwrap_or(0) != 0 => Tier::Exclusive,
        "explore" if cmd.has("publish") => Tier::Shared,
        "persist"
            if flag(cmd, "checkpoint", false)?
                || flag(cmd, "clear_fault", false)?
                || flag(cmd, "promote", false)? =>
        {
            Tier::Exclusive
        }
        _ => spec.tier,
    };
    Ok(CommandSpec { tier, ..spec })
}

impl Icdb {
    /// Executes one CQL command, substituting `%` inputs from `args` and
    /// writing `?` outputs back into them — the reproduction of the C
    /// `ICDB()` call.
    ///
    /// # Errors
    /// CQL syntax errors, unknown commands/entities, and generation
    /// failures all surface as [`IcdbError`].
    pub fn execute(&mut self, command: &str, args: &mut [CqlArg]) -> Result<(), IcdbError> {
        self.execute_in(NsId::ROOT, command, args)
    }

    /// Executes one CQL command against an explicit session namespace.
    ///
    /// # Errors
    /// As [`Icdb::execute`]; also fails on unknown namespaces.
    pub fn execute_in(
        &mut self,
        ns: NsId,
        command: &str,
        args: &mut [CqlArg],
    ) -> Result<(), IcdbError> {
        let (cmd, outs) = parse_command(command, args)?;
        let response = self.dispatch_in(ns, &cmd)?;
        bind_outputs(&response, &outs, args)?;
        Ok(())
    }

    /// Runs one parsed command with exclusive access: a mutating command's
    /// handler, or a read-only command's exclusive-only side effects
    /// followed by its shared handler.
    pub(crate) fn dispatch_in(&mut self, ns: NsId, cmd: &Command) -> Result<Response, IcdbError> {
        match cmd.name.as_str() {
            "request_component" => return self.exec_request_component(ns, cmd),
            "insert_component" => return self.exec_insert_component(cmd),
            "start_a_design" => {
                self.start_design_in(ns, &design_of(cmd)?)?;
                return Ok(Response::new());
            }
            "start_a_transaction" => {
                self.start_transaction_in(ns, &design_of(cmd)?)?;
                return Ok(Response::new());
            }
            "put_in_component_list" => {
                let design = design_of(cmd)?;
                let inst = cmd
                    .str_term("instance")
                    .ok_or_else(|| IcdbError::Cql("missing instance:".into()))?
                    .to_string();
                self.put_in_component_list_in(ns, &design, &inst)?;
                return Ok(Response::new());
            }
            "end_a_transaction" => {
                self.end_transaction_in(ns, &design_of(cmd)?)?;
                return Ok(Response::new());
            }
            "end_a_design" => {
                self.end_design_in(ns, &design_of(cmd)?)?;
                return Ok(Response::new());
            }
            "explore" => {
                // Also mirror the report into the relational `exploration`
                // table and journal the sweep's fresh evaluations into the
                // durable corpus (a lock-free sweep's recordings flush on
                // the service's next exclusive pass instead).
                let (report, resp) = self.exec_explore(ns, cmd)?;
                self.publish_exploration(&report)?;
                self.flush_corpus()?;
                return Ok(resp);
            }
            // Generate the layout up front if the query wants CIF.
            "instance_query" if cmd.pending_keys().contains(&"CIF_layout") => {
                let name = instance_query_target(cmd)?;
                self.cif_layout_in(ns, &name)?;
            }
            // Also refresh the relational `cache_stats` table.
            "cache_query" => {
                self.publish_cache_stats()?;
            }
            // Fold pending sweep recordings in first, so the answered
            // counts include the latest sweep.
            "corpus" => {
                self.flush_corpus()?;
            }
            // `checkpoint:1` snapshots + rotates the WAL before reporting;
            // `clear_fault:1` checkpoints only when a durability fault is
            // latched — the explicit operator action re-arming a degraded
            // server; `promote:1` turns a follower into a primary.
            "persist" => {
                if flag(cmd, "promote", false)? {
                    self.promote_journal()?;
                } else if flag(cmd, "checkpoint", false)? {
                    self.checkpoint()?;
                } else if flag(cmd, "clear_fault", false)? {
                    self.clear_journal_fault()?;
                }
            }
            _ => {}
        }
        self.dispatch_read(ns, cmd)?.ok_or_else(|| {
            IcdbError::Unsupported(
                "instance_query still needs exclusive access after layout generation".into(),
            )
        })
    }

    /// Answers one parsed read-only command through `&self`. Returns
    /// `Ok(None)` when it needs exclusive access after all — an
    /// `instance_query` asking for a CIF layout that has not been
    /// generated yet.
    pub(crate) fn dispatch_read(
        &self,
        ns: NsId,
        cmd: &Command,
    ) -> Result<Option<Response>, IcdbError> {
        let response = match cmd.name.as_str() {
            "component_query" => self.exec_component_query(cmd)?,
            "function_query" => self.exec_function_query(cmd)?,
            "instance_query" => return self.exec_instance_query(ns, cmd),
            "connect_component" => self.exec_connect(ns, cmd)?,
            "merge_query" => self.exec_merge_query(cmd)?,
            "tool_query" => self.exec_tool_query(cmd)?,
            "cache_query" => self.exec_cache_query(cmd)?,
            "explore" => self.exec_explore(ns, cmd)?.1,
            "corpus" => self.exec_corpus(cmd)?,
            "persist" => self.exec_persist(cmd)?,
            "metrics" => self.exec_metrics(cmd)?,
            other => return Err(IcdbError::Cql(format!("unknown command `{other}`"))),
        };
        Ok(Some(response))
    }

    /// `component_query` (§3.2.1): what implementations exist for a
    /// component/function set, or what functions an implementation (or a
    /// generated component) performs.
    fn exec_component_query(&self, cmd: &Command) -> Result<Response, IcdbError> {
        let mut resp = Response::new();
        let functions = cmd.list_term("function").unwrap_or_default();

        // Candidate implementations.
        let candidates: Vec<&crate::library::ComponentImpl> =
            if let Some(name) = cmd.str_term("implementation") {
                self.library.implementation(name).into_iter().collect()
            } else if let Some(name) = cmd
                .str_term("ICDB_components")
                .or_else(|| cmd.str_term("ICDBcomponents"))
            {
                // A previously returned implementation name.
                self.library.implementation(name).into_iter().collect()
            } else if let Some(ty) = cmd.str_term("component") {
                let mut v = self.library.by_component_type(ty);
                if v.is_empty() {
                    v = self.library.implementation(ty).into_iter().collect();
                }
                v
            } else {
                self.library.iter().collect()
            };
        let matching: Vec<&crate::library::ComponentImpl> = candidates
            .into_iter()
            .filter(|c| {
                functions
                    .iter()
                    .all(|f| c.functions.iter().any(|cf| cf.eq_ignore_ascii_case(f)))
            })
            .collect();

        for key in cmd.pending_keys() {
            match key {
                "ICDB_components" | "ICDBcomponents" | "implementation" | "implementations" => {
                    resp.set(
                        key,
                        CqlValue::StrList(matching.iter().map(|c| c.name.clone()).collect()),
                    );
                }
                "function" | "functions" => {
                    let fs: Vec<String> = matching
                        .iter()
                        .flat_map(|c| c.functions.iter().cloned())
                        .collect();
                    let mut dedup = Vec::new();
                    for f in fs {
                        if !dedup.contains(&f) {
                            dedup.push(f);
                        }
                    }
                    resp.set(key, CqlValue::StrList(dedup));
                }
                other => {
                    return Err(IcdbError::Cql(format!(
                        "component_query cannot answer `{other}`"
                    )))
                }
            }
        }
        Ok(resp)
    }

    /// `function_query` (Appendix B §5.1): components / implementations
    /// that can execute a function set.
    fn exec_function_query(&self, cmd: &Command) -> Result<Response, IcdbError> {
        let functions = cmd
            .list_term("function")
            .ok_or_else(|| IcdbError::Cql("function_query needs function:(…)".into()))?;
        let impls = self.library.by_functions(&functions);
        let mut resp = Response::new();
        for key in cmd.pending_keys() {
            match key {
                "implementation" | "implementations" | "implemntation" => {
                    // (the paper itself spells it `implemntation` once)
                    resp.set(
                        key,
                        CqlValue::StrList(impls.iter().map(|c| c.name.clone()).collect()),
                    );
                }
                "component" | "components" => {
                    let mut types: Vec<String> =
                        impls.iter().map(|c| c.component_type.clone()).collect();
                    types.dedup();
                    resp.set(key, CqlValue::StrList(types));
                }
                other => {
                    return Err(IcdbError::Cql(format!(
                        "function_query cannot answer `{other}`"
                    )))
                }
            }
        }
        Ok(resp)
    }

    /// `request_component` (§3.2.2, Appendix B §6): generate an instance,
    /// or regenerate a layout for an existing instance.
    fn exec_request_component(&mut self, ns: NsId, cmd: &Command) -> Result<Response, IcdbError> {
        let mut resp = Response::new();

        // Layout-regeneration form: `instance:%s; alternative:3;
        // port_position:%s; CIF_layout:?s`.
        if let Some(instance) = cmd.str_term("instance").map(str::to_string) {
            if cmd.pending_keys().contains(&"CIF_layout") {
                let alternative = cmd.int_term("alternative").map(|v| v as usize);
                let ports = cmd
                    .str_term("port_position")
                    .or_else(|| cmd.str_term("pin_position"))
                    .map(str::to_string);
                let cif = self.generate_layout_in(ns, &instance, alternative, ports.as_deref())?;
                resp.set("CIF_layout", CqlValue::Str(cif.to_string()));
                return Ok(resp);
            }
        }

        let source = if let Some(iif) = cmd.str_term("IIF") {
            Source::Iif(iif.to_string())
        } else if let Some(v) = cmd.str_term("VHDL_net_list") {
            // Either inline VHDL text or a design-data file name.
            let text = if v.contains("entity") {
                v.to_string()
            } else {
                self.files
                    .read(v)
                    .map(str::to_string)
                    .map_err(|_| IcdbError::NotFound(format!("VHDL netlist `{v}`")))?
            };
            Source::VhdlNetlist(text)
        } else {
            Source::Library {
                component_name: cmd.str_term("component_name").map(str::to_string),
                implementation: cmd
                    .str_term("implementation")
                    .or_else(|| cmd.str_term("implemntation"))
                    .map(str::to_string),
                functions: cmd.list_term("function").unwrap_or_default(),
            }
        };

        let mut request = ComponentRequest::by_component("");
        request.source = source;
        if let Some(attrs) = cmd.attrs_term("attribute") {
            request.attributes = attrs.to_vec();
        }
        // Bare `size:4` terms also act as attributes (Appendix B §4 example).
        for key in [
            "size",
            "shift_distance",
            "n",
            "type",
            "load",
            "enable",
            "up_or_down",
        ] {
            if let Some(v) = cmd.int_term(key) {
                request.attributes.push((key.to_string(), v.to_string()));
            }
        }
        if let Some(cw) = cmd
            .real_term("clock_width")
            .or_else(|| cmd.real_term("clk_width"))
        {
            request.constraints.clock_width = Some(cw);
        }
        if let Some(su) = cmd
            .real_term("set_up_time")
            .or_else(|| cmd.real_term("seq_delay"))
        {
            request.constraints.set_up_time = Some(su);
        }
        match cmd.real_term("comb_delay") {
            Some(worst) => request.constraints.comb_delay = Some(worst),
            None => {
                if let Some(text) = cmd.str_term("comb_delay") {
                    request.constraints.parse_delay_text(text)?;
                }
            }
        }
        if let Some(s) = cmd.str_term("strategy") {
            request.strategy = Some(s.to_string());
        }
        if let Some(t) = cmd.str_term("target") {
            request.target = match t {
                "layout" => TargetLevel::Layout,
                _ => TargetLevel::Logic,
            };
        }
        if let Some(p) = cmd
            .str_term("port_position")
            .or_else(|| cmd.str_term("pin_position"))
        {
            request.port_positions = Some(p.to_string());
        }
        if let Some(a) = cmd.int_term("alternative") {
            request.alternative = Some(a as usize);
        }
        if let Some(n) = cmd.str_term("naming") {
            request.instance_name = Some(n.to_string());
        }

        let name = self.request_component_in(ns, &request)?;
        for key in cmd.pending_keys() {
            match key {
                "generated_component" | "instance" | "component_instance" => {
                    resp.set(key, CqlValue::Str(name.clone()));
                }
                "CIF_layout" => {
                    let cif = self.cif_layout_in(ns, &name)?;
                    resp.set(key, CqlValue::Str(cif.to_string()));
                }
                other => {
                    return Err(IcdbError::Cql(format!(
                        "request_component cannot answer `{other}`"
                    )))
                }
            }
        }
        Ok(resp)
    }

    /// `instance_query` (§3.3, Appendix B §5.3): delay, area, shape
    /// function, functions, VHDL views, connection info, CIF. Read-only:
    /// asks for exclusive access when the query wants a CIF layout that
    /// has not been generated yet.
    fn exec_instance_query(&self, ns: NsId, cmd: &Command) -> Result<Option<Response>, IcdbError> {
        let name = instance_query_target(cmd)?;
        let mut resp = Response::new();
        for key in cmd.pending_keys() {
            let key = key.to_string();
            match key.as_str() {
                "delay" => resp.set(key, CqlValue::Str(self.delay_string_in(ns, &name)?)),
                "shape_function" => resp.set(key, CqlValue::Str(self.shape_string_in(ns, &name)?)),
                "area" => resp.set(key, CqlValue::Str(self.area_string_in(ns, &name)?)),
                "function" | "functions" => {
                    resp.set(
                        key,
                        CqlValue::StrList(self.instance_in(ns, &name)?.functions.clone()),
                    );
                }
                "VHDL_net_list" => resp.set(key, CqlValue::Str(self.vhdl_netlist_in(ns, &name)?)),
                "VHDL_head" => resp.set(key, CqlValue::Str(self.vhdl_head_in(ns, &name)?)),
                "connect" => resp.set(key, CqlValue::Str(self.connect_string_in(ns, &name)?)),
                "CIF_layout" => match self.cif_layout_cached_in(ns, &name)? {
                    Some(cif) => resp.set(key, CqlValue::Str(cif.to_string())),
                    None => return Ok(None),
                },
                "clock_width" => {
                    resp.set(
                        key,
                        CqlValue::Real(self.instance_in(ns, &name)?.report.clock_width),
                    );
                }
                "power" => resp.set(key, CqlValue::Str(self.power_string_in(ns, &name)?)),
                other => {
                    return Err(IcdbError::Cql(format!(
                        "instance_query cannot answer `{other}`"
                    )))
                }
            }
        }
        Ok(Some(resp))
    }

    /// `insert_component` (the §2.2 knowledge-acquisition path): insert a
    /// new parameterized implementation from IIF text with its ICDB data.
    fn exec_insert_component(&mut self, cmd: &Command) -> Result<Response, IcdbError> {
        let iif = cmd
            .str_term("IIF")
            .ok_or_else(|| IcdbError::Cql("insert_component needs IIF:%s".into()))?
            .to_string();
        let component_type = cmd
            .str_term("component")
            .unwrap_or("Logic_unit")
            .to_string();
        let functions: Vec<String> = cmd.list_term("function").unwrap_or_default();
        let function_refs: Vec<&str> = functions.iter().map(String::as_str).collect();
        let mut defaults = Vec::new();
        if let Some(attrs) = cmd
            .attrs_term("parameter")
            .or_else(|| cmd.attrs_term("attribute"))
        {
            for (k, v) in attrs {
                let value = v.parse::<i64>().map_err(|_| {
                    IcdbError::Cql(format!("parameter default {k}:{v} is not an integer"))
                })?;
                defaults.push((k.clone(), value));
            }
        }
        let default_refs: Vec<(&str, i64)> =
            defaults.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        let connection = cmd.str_term("connect").map(str::to_string);
        let description = cmd.str_term("description").unwrap_or("").to_string();
        let name = self.insert_implementation(
            &iif,
            &component_type,
            &function_refs,
            &default_refs,
            connection.as_deref(),
            &description,
        )?;
        let mut resp = Response::new();
        for key in cmd.pending_keys() {
            match key {
                "implementation" | "inserted" => resp.set(key, CqlValue::Str(name.clone())),
                other => {
                    return Err(IcdbError::Cql(format!(
                        "insert_component cannot answer `{other}`"
                    )))
                }
            }
        }
        Ok(resp)
    }

    /// `merge_query` (§2.1): which single components can replace the named
    /// set (e.g. REGISTER + INCREMENTER → COUNTER)?
    fn exec_merge_query(&self, cmd: &Command) -> Result<Response, IcdbError> {
        let parts = cmd
            .list_term("components")
            .or_else(|| cmd.list_term("component"))
            .ok_or_else(|| IcdbError::Cql("merge_query needs components:(…)".into()))?;
        let refs: Vec<&str> = parts.iter().map(String::as_str).collect();
        let merged = self.merge_candidates(&refs)?;
        let mut resp = Response::new();
        for key in cmd.pending_keys() {
            match key {
                "merged" | "candidates" => resp.set(key, CqlValue::StrList(merged.clone())),
                other => {
                    return Err(IcdbError::Cql(format!(
                        "merge_query cannot answer `{other}`"
                    )))
                }
            }
        }
        Ok(resp)
    }

    /// `tool_query` (§4.2): the registered component generators, optionally
    /// filtered by accepted design-data format.
    fn exec_tool_query(&self, cmd: &Command) -> Result<Response, IcdbError> {
        let generators: Vec<String> = match cmd.str_term("accepts") {
            Some(fmt) => self
                .tools
                .accepting(fmt)
                .iter()
                .map(|g| g.name.clone())
                .collect(),
            None => self.tools.names().iter().map(|s| s.to_string()).collect(),
        };
        let mut resp = Response::new();
        for key in cmd.pending_keys() {
            match key {
                "generators" | "generator" => resp.set(key, CqlValue::StrList(generators.clone())),
                "steps" => {
                    let name = cmd.str_term("name").ok_or_else(|| {
                        IcdbError::Cql("tool_query steps:?s[] needs name:<generator>".into())
                    })?;
                    let g = self
                        .tools
                        .generator(name)
                        .ok_or_else(|| IcdbError::NotFound(format!("generator `{name}`")))?;
                    resp.set(
                        key,
                        CqlValue::StrList(g.steps.iter().map(|s| s.tool.clone()).collect()),
                    );
                }
                other => {
                    return Err(IcdbError::Cql(format!(
                        "tool_query cannot answer `{other}`"
                    )))
                }
            }
        }
        Ok(resp)
    }

    /// `cache_query`: generation-cache statistics (hits, misses, evictions,
    /// entries, capacity — summed over the flat/netlist/result layers, or
    /// per layer via `layer:<name>`). The exclusive-access path also
    /// refreshes the relational `cache_stats` table before calling this.
    fn exec_cache_query(&self, cmd: &Command) -> Result<Response, IcdbError> {
        let stats = self.cache_stats();
        let layer = match cmd.str_term("layer") {
            Some("flat") => Some(stats.flat),
            Some("netlist") => Some(stats.netlist),
            Some("result") => Some(stats.result),
            Some(other) => {
                return Err(IcdbError::Cql(format!(
                    "cache_query knows layers flat/netlist/result, not `{other}`"
                )))
            }
            None => None,
        };
        let (hits, misses, evictions, entries, capacity) = match layer {
            Some(s) => (s.hits, s.misses, s.evictions, s.entries, s.capacity),
            // Aggregate view: entries and capacity are both summed over the
            // three layers, so `entries <= capacity` holds here too.
            None => (
                stats.hits(),
                stats.misses(),
                stats.evictions(),
                stats.flat.entries + stats.netlist.entries + stats.result.entries,
                stats.flat.capacity + stats.netlist.capacity + stats.result.capacity,
            ),
        };
        let mut resp = Response::new();
        for key in cmd.pending_keys() {
            match key {
                "hits" => resp.set(key, CqlValue::Int(hits as i64)),
                "misses" => resp.set(key, CqlValue::Int(misses as i64)),
                "evictions" => resp.set(key, CqlValue::Int(evictions as i64)),
                "entries" => resp.set(key, CqlValue::Int(entries as i64)),
                "capacity" => resp.set(key, CqlValue::Int(capacity as i64)),
                other => {
                    return Err(IcdbError::Cql(format!(
                        "cache_query cannot answer `{other}`"
                    )))
                }
            }
        }
        Ok(resp)
    }

    /// `explore`: the design-space exploration sweep. Candidates come from
    /// `implementation:(…)`, `component:<type>` or `function:(…)`; the
    /// grid is crossed with `widths:(4,8,16)` and
    /// `strategies:(cheapest,fastest)`. Constraint terms reuse the typed
    /// slot machinery (`max_delay:%r`, `max_area:%r`) and pick the
    /// objective: min-area under a delay bound, min-delay under an area
    /// bound, or `weights:(area:1,delay:1,power:0)`.
    ///
    /// Answerable outputs: `winner:?s` (label, empty when no candidate is
    /// feasible), `front:?s[]`, `table:?s`, `points:?d`, `front_size:?d`,
    /// and the winner metrics `area:?r` / `delay:?r` / `power:?r`.
    ///
    /// The sweep itself is read-only and served under the shared lock.
    /// Add `publish:1` to also refresh the relational `exploration` table
    /// — that mutates the store, so the command is then routed to the
    /// exclusive path (embedded [`Icdb::execute`] always refreshes it).
    fn exec_explore(
        &self,
        ns: NsId,
        cmd: &Command,
    ) -> Result<(icdb_explore::ExplorationReport, Response), IcdbError> {
        let widths: Vec<i64> = cmd
            .list_term("widths")
            .or_else(|| cmd.list_term("sizes"))
            .unwrap_or_default()
            .iter()
            .map(|w| {
                w.parse::<i64>()
                    .map_err(|_| IcdbError::Cql(format!("width `{w}` is not an integer")))
            })
            .collect::<Result<_, _>>()?;
        // Exactly one objective family may be supplied; silently letting
        // `max_delay` shadow a `max_area`/`weights` term would drop a
        // constraint the caller believes is enforced.
        let supplied: Vec<&str> = ["max_delay", "max_area", "weights"]
            .into_iter()
            .filter(|key| cmd.has(key))
            .collect();
        if supplied.len() > 1 {
            return Err(IcdbError::Cql(format!(
                "explore takes one objective, got {}",
                supplied.join(" + ")
            )));
        }
        // A present-but-unparsable bound must error loudly, not fall
        // through to the default objective with the constraint dropped.
        let bound = |key: &str| -> Result<Option<f64>, IcdbError> {
            match (cmd.has(key), cmd.real_term(key)) {
                (true, Some(v)) => Ok(Some(v)),
                (true, None) => Err(IcdbError::Cql(format!(
                    "explore {key}: value is not a number"
                ))),
                (false, _) => Ok(None),
            }
        };
        // Same loud-error rule for the `publish:` routing flag (a value
        // that is not an integer must not silently mean "don't publish")
        // and the corpus-pruning dials: `prune:0` is the escape hatch that
        // guarantees every grid point is evaluated, `prune_exact:0` opts
        // into heuristic margin pruning — a typo must not silently flip
        // either.
        flag(cmd, "publish", false)?;
        let prune = flag(cmd, "prune", true)?;
        let prune_exact = flag(cmd, "prune_exact", true)?;
        if cmd.has("weights") && cmd.attrs_term("weights").is_none() {
            return Err(IcdbError::Cql(
                "explore weights must be an attribute list like (area:1,delay:2,power:0)"
                    .to_string(),
            ));
        }
        let objective = if let Some(bound) = bound("max_delay")? {
            icdb_explore::Objective::MinAreaUnderDelay(bound)
        } else if let Some(bound) = bound("max_area")? {
            icdb_explore::Objective::MinDelayUnderArea(bound)
        } else if let Some(weights) = cmd.attrs_term("weights") {
            // Reject unknown weight keys loudly: a typo (`aera:2`) would
            // otherwise default every metric to 0 and crown an arbitrary
            // winner.
            for (key, _) in weights {
                if !["area", "delay", "power"].contains(&key.as_str()) {
                    return Err(IcdbError::Cql(format!(
                        "explore knows weights area/delay/power, not `{key}`"
                    )));
                }
            }
            let weight = |name: &str| -> Result<f64, IcdbError> {
                weights
                    .iter()
                    .find(|(k, _)| k == name)
                    .map(|(_, v)| {
                        // Finite and non-negative, not just parsed:
                        // "nan"/"inf" would poison every score, and a
                        // negative weight rewards dominated points the
                        // front-restricted selection can never return.
                        v.parse::<f64>()
                            .ok()
                            .filter(|w| w.is_finite() && *w >= 0.0)
                            .ok_or_else(|| {
                                IcdbError::Cql(format!(
                                    "weight {name}:{v} is not a finite non-negative number"
                                ))
                            })
                    })
                    .transpose()
                    .map(|w| w.unwrap_or(0.0))
            };
            icdb_explore::Objective::Weighted {
                area: weight("area")?,
                delay: weight("delay")?,
                power: weight("power")?,
            }
        } else {
            icdb_explore::Objective::default()
        };
        let default_workers = crate::explore::ExploreSpec::default().workers;
        let spec = crate::explore::ExploreSpec {
            component: cmd
                .str_term("component")
                .or_else(|| cmd.str_term("component_name"))
                .map(str::to_string),
            implementations: cmd
                .list_term("implementation")
                .or_else(|| cmd.list_term("implementations"))
                .unwrap_or_default(),
            functions: cmd
                .list_term("function")
                .or_else(|| cmd.list_term("functions"))
                .unwrap_or_default(),
            widths,
            strategies: cmd
                .list_term("strategies")
                .or_else(|| cmd.list_term("strategy"))
                .unwrap_or_default(),
            attributes: cmd
                .attrs_term("attribute")
                .map(<[(String, String)]>::to_vec)
                .unwrap_or_default(),
            objective,
            workers: cmd
                .int_term("workers")
                .map(|w| w.max(0) as usize)
                .unwrap_or(default_workers),
            prune,
            prune_exact,
        };

        let (report, stats) = self.explore_in_with_stats(ns, &spec)?;
        let winner_metric = |metric: &dyn Fn(&icdb_explore::DesignPoint) -> f64,
                             key: &str|
         -> Result<CqlValue, IcdbError> {
            report
                .winner_point()
                .map(|p| CqlValue::Real(metric(p)))
                .ok_or_else(|| {
                    IcdbError::Cql(format!(
                        "explore cannot answer `{key}`: no candidate satisfies the constraint"
                    ))
                })
        };
        let mut resp = Response::new();
        for key in cmd.pending_keys() {
            match key {
                "winner" | "selected" => {
                    let label = report
                        .winner_point()
                        .map(icdb_explore::DesignPoint::label)
                        .unwrap_or_default();
                    resp.set(key, CqlValue::Str(label));
                }
                "front" | "pareto_front" => {
                    resp.set(key, CqlValue::StrList(report.front_lines()));
                }
                "table" | "report" => resp.set(key, CqlValue::Str(report.to_table())),
                "points" => resp.set(key, CqlValue::Int(report.points.len() as i64)),
                "front_size" => resp.set(key, CqlValue::Int(report.front.len() as i64)),
                "evaluated" => resp.set(key, CqlValue::Int(stats.evaluated as i64)),
                "pruned" => resp.set(key, CqlValue::Int(stats.pruned as i64)),
                "corpus_hits" => resp.set(key, CqlValue::Int(stats.corpus_hits as i64)),
                "corpus_misses" => resp.set(key, CqlValue::Int(stats.corpus_misses as i64)),
                "area" => {
                    let v = winner_metric(&|p| p.area, key)?;
                    resp.set(key, v);
                }
                "delay" => {
                    let v = winner_metric(&|p| p.delay, key)?;
                    resp.set(key, v);
                }
                "power" => {
                    let v = winner_metric(&|p| p.power, key)?;
                    resp.set(key, v);
                }
                other => return Err(IcdbError::Cql(format!("explore cannot answer `{other}`"))),
            }
        }
        Ok((report, resp))
    }

    /// `corpus`: read-only view of the durable exploration corpus.
    /// Selectors `implementation:<name>`, `width:<n>` and
    /// `strategy:<cheapest|fastest>` filter the stored points. Answerable
    /// outputs: `entries:?d` (points matching the selectors),
    /// `hits:?d`/`misses:?d`/`pruned:?d` (lifetime counters),
    /// `list:?s[]` (one deterministic line per matching point, in
    /// serialized-key order — byte-identical across a primary and its
    /// converged followers), `near:?s[]` (the `k:` nearest neighbors of
    /// the probe the selectors describe, distance-prefixed), and the
    /// point metrics `area:?r`/`delay:?r`/`power:?r` when the selectors
    /// match exactly one point.
    fn exec_corpus(&self, cmd: &Command) -> Result<Response, IcdbError> {
        let stats = self.corpus_stats();
        let store = self.corpus.export();
        let implementation = cmd.str_term("implementation").map(str::to_string);
        let width = if cmd.has("width") {
            Some(
                cmd.int_term("width")
                    .ok_or_else(|| IcdbError::Cql("corpus width: takes an integer".to_string()))?,
            )
        } else {
            None
        };
        let strategy = cmd.str_term("strategy").map(str::to_string);
        if let Some(s) = strategy.as_deref() {
            if !["cheapest", "fastest"].contains(&s) {
                return Err(IcdbError::Cql(format!(
                    "corpus knows strategies cheapest/fastest, not `{s}`"
                )));
            }
        }
        let selected: Vec<&icdb_store::corpus::CorpusPoint> = store
            .iter()
            .map(|(_, p)| p)
            .filter(|p| {
                implementation
                    .as_deref()
                    .is_none_or(|i| p.implementation == i)
            })
            .filter(|p| width.is_none_or(|w| p.width == w))
            .filter(|p| strategy.as_deref().is_none_or(|s| p.strategy == s))
            .collect();
        let render = |p: &icdb_store::corpus::CorpusPoint| -> String {
            format!(
                "{}/{}/{} area={:.3} delay={:.3} power={:.3} gates={} met={} \
                 lib={} cells={} seq={}",
                p.implementation,
                p.width,
                p.strategy,
                p.area,
                p.delay,
                p.power,
                p.gates,
                i32::from(p.met),
                p.library_version,
                p.cells_version,
                p.seq,
            )
        };
        let exact_metric = |metric: &dyn Fn(&icdb_store::corpus::CorpusPoint) -> f64,
                            key: &str|
         -> Result<CqlValue, IcdbError> {
            match selected.as_slice() {
                [point] => Ok(CqlValue::Real(metric(point))),
                [] => Err(IcdbError::NotFound(format!(
                    "corpus `{key}`: no stored point matches the selectors"
                ))),
                many => Err(IcdbError::Cql(format!(
                    "corpus `{key}`: selectors match {} points, need exactly one",
                    many.len()
                ))),
            }
        };
        let mut resp = Response::new();
        for key in cmd.pending_keys() {
            match key {
                "entries" => resp.set(key, CqlValue::Int(selected.len() as i64)),
                "hits" => resp.set(key, CqlValue::Int(stats.hits as i64)),
                "misses" => resp.set(key, CqlValue::Int(stats.misses as i64)),
                "pruned" => resp.set(key, CqlValue::Int(stats.pruned as i64)),
                "list" => resp.set(
                    key,
                    CqlValue::StrList(selected.iter().map(|p| render(p)).collect()),
                ),
                "near" => {
                    let Some(implementation) = implementation.clone() else {
                        return Err(IcdbError::Cql(
                            "corpus near:?s[] needs implementation:<name>".to_string(),
                        ));
                    };
                    let k = cmd.int_term("k").unwrap_or(5).max(0) as usize;
                    let probe = crate::corpus::Probe {
                        implementation,
                        width,
                        fastest: strategy.as_deref() == Some("fastest"),
                        constrained: false,
                        library_version: self.library.version(),
                        cells_version: self.cells.version(),
                    };
                    let lines: Vec<String> = self
                        .corpus
                        .neighbors(&probe, k)
                        .into_iter()
                        .map(|(d, p)| format!("d={d:.2} {}", render(&p)))
                        .collect();
                    resp.set(key, CqlValue::StrList(lines));
                }
                "area" => {
                    let v = exact_metric(&|p| p.area, key)?;
                    resp.set(key, v);
                }
                "delay" => {
                    let v = exact_metric(&|p| p.delay, key)?;
                    resp.set(key, v);
                }
                "power" => {
                    let v = exact_metric(&|p| p.power, key)?;
                    resp.set(key, v);
                }
                other => return Err(IcdbError::Cql(format!("corpus cannot answer `{other}`"))),
            }
        }
        Ok(resp)
    }

    /// `persist`: the durability layer's vitals. Answerable outputs:
    /// `enabled:?d` (1 when the server has a data directory),
    /// `generation:?d`, `wal_events:?d`, `wal_bytes:?d`,
    /// `snapshot_bytes:?d`, `recovered_events:?d`, `data_dir:?s` (empty
    /// when not persistent), `degraded:?d` (1 while a durability fault
    /// keeps the server read-only), `fault:?s` (the latched error, empty
    /// when healthy) and `fault_errno:?d` (its OS errno, 0 when none).
    /// Replication position: `role:?s` (`primary`/`follower`/`degraded`,
    /// `primary` for an in-memory server), `upstream:?s` (the follower's
    /// primary address, empty otherwise), `applied_seq:?d` and
    /// `lag_events:?d` (both 0 on a primary).
    /// Add `checkpoint:1` to snapshot + rotate the WAL first,
    /// `clear_fault:1` to checkpoint only if degraded, or `promote:1` to
    /// turn a replication follower into a writable primary — all three
    /// mutate the data directory, so they run under the exclusive lock
    /// (plain reporting runs under the shared lock).
    fn exec_persist(&self, cmd: &Command) -> Result<Response, IcdbError> {
        let stats = self.persist_stats();
        let fields = crate::persist::persist_fields(stats.as_ref());
        let mut resp = Response::new();
        for key in cmd.pending_keys() {
            // `events` is the historical alias for `wal_events`.
            let canonical = if key == "events" { "wal_events" } else { key };
            let Some((_, value)) = fields.iter().find(|(k, _)| *k == canonical) else {
                return Err(IcdbError::Cql(format!("persist cannot answer `{key}`")));
            };
            resp.set(key, value.clone());
        }
        Ok(resp)
    }

    /// `metrics`: the observability scrape over CQL. Answerable outputs:
    /// `text:?s` (the full Prometheus exposition, identical to the HTTP
    /// `/metrics` body), `rows:?ls` (one `name{labels} value` line per
    /// sample — the relational view), every `persist` key (answered from
    /// the same shared field list, so the two commands cannot disagree),
    /// or any label-less sample name (`icdb_cache_hits_total:?d`,
    /// `icdb_repl_lag_events:?d`, `icdb_cache_hit_ratio:?f`, …) typed as
    /// `Int`/`Real` by the sample itself.
    fn exec_metrics(&self, cmd: &Command) -> Result<Response, IcdbError> {
        // One persistence snapshot feeds both the sample list and the
        // persist-keyed answers, so `rows`/`text` and e.g. `degraded:?d`
        // in one response cannot straddle a checkpoint or fault flip.
        let stats = self.persist_stats();
        let samples = self.metrics_samples_from(stats.as_ref());
        let fields = crate::persist::persist_fields(stats.as_ref());
        let mut resp = Response::new();
        for key in cmd.pending_keys() {
            match key {
                "text" => resp.set(key, CqlValue::Str(icdb_obs::render_prometheus(&samples))),
                "rows" | "samples" => resp.set(
                    key,
                    CqlValue::StrList(samples.iter().map(icdb_obs::Sample::render).collect()),
                ),
                other => {
                    let canonical = if other == "events" {
                        "wal_events"
                    } else {
                        other
                    };
                    if let Some((_, value)) = fields.iter().find(|(k, _)| *k == canonical) {
                        resp.set(key, value.clone());
                    } else if let Some(sample) = samples
                        .iter()
                        .find(|s| s.labels.is_empty() && s.name == other)
                    {
                        let value = match sample.value {
                            icdb_obs::SampleValue::Int(v) => {
                                CqlValue::Int(i64::try_from(v).unwrap_or(i64::MAX))
                            }
                            icdb_obs::SampleValue::Float(v) => CqlValue::Real(v),
                        };
                        resp.set(key, value);
                    } else {
                        return Err(IcdbError::Cql(format!(
                            "metrics cannot answer `{other}`: not a persist field or label-less sample"
                        )));
                    }
                }
            }
        }
        Ok(resp)
    }

    /// `connect_component` (Appendix B §5.4).
    fn exec_connect(&self, ns: NsId, cmd: &Command) -> Result<Response, IcdbError> {
        let name = cmd
            .str_term("instance")
            .ok_or_else(|| IcdbError::Cql("connect_component needs instance:%s".into()))?
            .to_string();
        let mut resp = Response::new();
        resp.set("connect", CqlValue::Str(self.connect_string_in(ns, &name)?));
        Ok(resp)
    }
}

/// A `0`/`1` flag term, `default` when absent — and a loud error when it
/// is present but not an integer, so a typo cannot silently flip it.
fn flag(cmd: &Command, key: &str, default: bool) -> Result<bool, IcdbError> {
    match (cmd.has(key), cmd.int_term(key)) {
        (false, _) => Ok(default),
        (true, Some(v)) => Ok(v != 0),
        (true, None) => Err(IcdbError::Cql(format!("{} {key}: takes 0 or 1", cmd.name))),
    }
}

fn design_of(cmd: &Command) -> Result<String, IcdbError> {
    cmd.str_term("design")
        .map(str::to_string)
        .ok_or_else(|| IcdbError::Cql("missing design:".into()))
}

fn instance_query_target(cmd: &Command) -> Result<String, IcdbError> {
    cmd.str_term("instance")
        .or_else(|| cmd.str_term("generated_component"))
        .map(str::to_string)
        .ok_or_else(|| IcdbError::Cql("instance_query needs instance:%s".into()))
}
