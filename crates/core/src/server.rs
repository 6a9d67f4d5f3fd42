//! The component-server engine: the embedded generation path of Fig. 8
//! (IIF expander → MILO-style synthesis → transistor sizing → estimators →
//! layout generator) plus instance storage and queries.
//!
//! Every component request runs two steps. The **pre-warm**
//! (`Icdb::prewarm`) prepares the non-cluster requests of a batch through
//! `&self` (`Icdb::prepare_all` → [`GenerationPayload`], memoized by the
//! [`crate::cache::GenCache`]); the concurrent
//! [`crate::service::IcdbService`] runs it on its lock-free epoch
//! snapshot. The **install loop** (`Icdb::install_all`) then journals and
//! applies one [`MutationEvent::InstallComponent`] per request with the
//! payload as a hint, inside one commit section on the service. A failed,
//! skipped (VHDL cluster) or stale pre-warm leaves no hint: the install
//! regenerates at the event's journal position, so a failing request is
//! journaled like any other failed mutation, on every path.
//!
//! `Icdb::prepare_all` is the one generation path for library and
//! inline-IIF requests: a pre-warm, a sweep's evaluated points and an
//! install's fallback are each one batch. It looks every point up in the
//! result layer once, groups the misses by netlist key, and runs two
//! phases: each distinct netlist is expanded, synthesized and rendered
//! once (the views that do not depend on sizing), then each point is
//! sized, estimated and given its delay and shape views.
//!
//! Every instance-touching method exists in two forms: the classic
//! single-caller form (`instance`, `delay_string`, …) operating on
//! [`NsId::ROOT`], and an `_in` form addressing an explicit session
//! namespace.

use crate::cache::{GenerationPayload, NetEntry, NetKey, RequestKey, SourceKey};
use crate::error::IcdbError;
use crate::events::{Durability, MutationEvent};
use crate::instance::ComponentInstance;
use crate::library::ComponentImpl;
use crate::space::{Namespace, NsId};
use crate::spec::{ComponentRequest, Source};
use crate::Icdb;
use icdb_estimate::{estimate_shape, LoadSpec};
use icdb_layout::{place, to_ascii, to_cif, PortSpec};
use icdb_logic::{synthesize, Gate, GateNetlist, SynthOptions};
use icdb_sizing::{size_netlist, SizingGoal, Strategy};
use icdb_store::Value;
use icdb_vhdl::{emit_entity, emit_netlist, parse_netlist, vhdl_id};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// How many strip-count alternatives the shape estimator sweeps.
const MAX_SHAPE_STRIPS: usize = 8;

/// Result of preparing one request (shared payload or the first error).
pub(crate) type PreparedPayload = Result<Arc<GenerationPayload>, IcdbError>;

/// One pre-warmed payload per request, `None` where there is no hint.
pub(crate) type Hints = Vec<Option<Arc<GenerationPayload>>>;

/// A library or inline-IIF request after [`Icdb::resolve`]: the module it
/// expands, the parameter values its attributes bind, and its canonical
/// key.
pub(crate) struct Resolved<'a> {
    origin: Origin<'a>,
    params: Vec<(String, i64)>,
    /// The result-layer and corpus key.
    pub(crate) key: RequestKey,
}

/// Where a resolved request's module comes from.
enum Origin<'a> {
    /// A knowledge-base implementation.
    Library(&'a ComponentImpl),
    /// Inline IIF text, parsed.
    Iif(Box<icdb_iif::Module>),
}

/// Runs `job` on every item across up to `workers` threads and returns the
/// results in item order. The calling thread is one of them: it claims
/// items beside the `workers - 1` scoped threads it spawns. `workers` is
/// clamped to `1..=items.len()`, so 0 runs sequentially.
pub(crate) fn fan_out<I: Sync, T: Send>(
    items: &[I],
    workers: usize,
    job: impl Fn(&I) -> T + Sync,
) -> Vec<T> {
    let workers = workers.clamp(1, items.len().max(1));
    if workers == 1 {
        return items.iter().map(job).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let claim = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(item) = items.get(i) else {
            break;
        };
        let result = job(item);
        *crate::cache::lock(&slots[i]) = Some(result);
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(claim);
        }
        claim();
    });
    slots
        .iter()
        .map(|slot| {
            crate::cache::lock(slot)
                .take()
                .expect("every item slot is filled")
        })
        .collect()
}

/// Design-data views persisted per instance (file suffixes).
pub(crate) const INSTANCE_VIEW_SUFFIXES: [&str; 8] = [
    "iif",
    "milo",
    "vhdl",
    "vhdl_head",
    "delay",
    "shape",
    "cif",
    "layout.txt",
];

impl Icdb {
    /// Generates a component instance and stores it; returns the instance
    /// name ("ICDB will generate a component according to these
    /// specifications. The name of this component is put into the variable
    /// counter_ins", §3.2.2).
    ///
    /// Repeat requests with the same canonical [`RequestKey`] are answered
    /// from the generation cache: one hash lookup plus a cheap clone of the
    /// shared payload, instead of re-running expansion, synthesis, sizing
    /// and estimation.
    ///
    /// # Errors
    /// Propagates failures from any stage of the generation path and
    /// reports unknown implementations/components as [`IcdbError::NotFound`].
    pub fn request_component(&mut self, request: &ComponentRequest) -> Result<String, IcdbError> {
        self.request_component_in(NsId::ROOT, request)
    }

    /// [`Icdb::request_component`] against an explicit session namespace:
    /// a batch of one.
    ///
    /// The whole generate-and-install is one journaled
    /// [`MutationEvent::InstallComponent`]; recovery replays the same
    /// deterministic pipeline, so a restarted server reproduces the
    /// instance byte-for-byte.
    ///
    /// # Errors
    /// As [`Icdb::request_component`]; also fails on unknown namespaces.
    pub fn request_component_in(
        &mut self,
        ns: NsId,
        request: &ComponentRequest,
    ) -> Result<String, IcdbError> {
        Ok(self
            .request_components_batch_in(ns, std::slice::from_ref(request), 1)?
            .remove(0))
    }

    /// Generates many components in one call, running the *cold* pipeline
    /// work on up to `workers` scoped threads that share the generation
    /// cache (each distinct netlist among the misses is built once, then
    /// each request is sized; see `Icdb::prepare_all`); instances are then
    /// installed sequentially in request order, so auto-generated names are
    /// deterministic.
    ///
    /// `workers` is clamped, in each phase, to `1..=` the number of items
    /// that phase generates: a `workers` of 0 runs sequentially instead of
    /// spawning a zero-worker scope that could never fill the result slots.
    ///
    /// VHDL-cluster requests skip the parallel pre-warm: they flatten live
    /// instances, so they generate at install time in request order — a
    /// cluster may therefore reference instances created earlier in the
    /// same batch, exactly as if the requests were issued sequentially.
    ///
    /// # Errors
    /// The first failing request aborts the remaining installs; instances
    /// already installed by this call are kept, and the failing request's
    /// event is journaled.
    pub fn request_components_batch(
        &mut self,
        requests: &[ComponentRequest],
        workers: usize,
    ) -> Result<Vec<String>, IcdbError> {
        self.request_components_batch_in(NsId::ROOT, requests, workers)
    }

    /// [`Icdb::request_components_batch`] against an explicit namespace.
    ///
    /// # Errors
    /// As [`Icdb::request_components_batch`].
    pub fn request_components_batch_in(
        &mut self,
        ns: NsId,
        requests: &[ComponentRequest],
        workers: usize,
    ) -> Result<Vec<String>, IcdbError> {
        let hints = self.prewarm(requests, workers);
        self.install_all(ns, requests, hints)
    }

    /// The first step of every component request: resolves each request
    /// and prepares the resolved ones as one batch
    /// ([`Icdb::prepare_all`]) on up to `workers` scoped threads sharing
    /// the cache. A VHDL cluster (which does not resolve) or a failing
    /// request gets no hint.
    pub(crate) fn prewarm(&self, requests: &[ComponentRequest], workers: usize) -> Hints {
        let resolved: Vec<Option<Resolved>> =
            requests.iter().map(|r| self.resolve(r).ok()).collect();
        let points: Vec<_> = resolved
            .iter()
            .zip(requests)
            .filter_map(|(resolved, request)| Some((resolved.as_ref()?, request)))
            .collect();
        let mut prepared = self.prepare_all(&points, workers).into_iter();
        resolved
            .iter()
            .map(|resolved| {
                resolved.as_ref()?;
                prepared
                    .next()
                    .expect("every resolved request was prepared")
                    .ok()
            })
            .collect()
    }

    /// The second step: journals and applies one
    /// [`MutationEvent::InstallComponent`] per request in request order
    /// (deterministic names), with its hint. Stops at the first failing
    /// request, whose event stays journaled.
    pub(crate) fn install_all(
        &mut self,
        ns: NsId,
        requests: &[ComponentRequest],
        hints: Hints,
    ) -> Result<Vec<String>, IcdbError> {
        requests
            .iter()
            .zip(hints)
            .map(|(request, hint)| {
                let event = MutationEvent::InstallComponent {
                    ns,
                    request: request.clone(),
                };
                let applied = self.commit_with(&event, hint.as_ref(), Durability::Required)?;
                Ok(applied
                    .into_name()
                    .expect("InstallComponent applies to an instance name"))
            })
            .collect()
    }

    /// The read-only half of generation for one request, the install's
    /// fallback when it has no hint: resolves the request and prepares it
    /// as a batch of one ([`Icdb::prepare_all`]). VHDL clusters flatten
    /// the instances of `ns` and are never cached.
    ///
    /// # Errors
    /// Propagates resolution, expansion, synthesis and estimation failures.
    pub(crate) fn prepare_payload(&self, ns: NsId, request: &ComponentRequest) -> PreparedPayload {
        match &request.source {
            Source::VhdlNetlist(text) => {
                // Clusters flatten *live* instances, so their results are
                // never cached — a stale hit could resurrect deleted state.
                let netlist = self.flatten_cluster(ns, text)?;
                Ok(Arc::new(GenerationPayload {
                    implementation: "cluster".to_string(),
                    ..self.finish_payload(
                        &NetEntry::new(None, netlist, &self.cells),
                        request.constraints.load_spec(),
                        &request.sizing_strategy(),
                        request.constraints.set_up_time,
                    )?
                }))
            }
            _ => {
                let resolved = self.resolve(request)?;
                self.prepare_all(&[(&resolved, request)], 1).remove(0)
            }
        }
    }

    /// Resolves a library or inline-IIF request without running any
    /// generation stage: picks the implementation or parses the IIF,
    /// binds the request's attributes to its parameters, and canonicalizes
    /// the cache/corpus key. Every such request — a plain one through
    /// [`Icdb::prepare_payload`], a sweep's grid point — resolves here.
    ///
    /// # Errors
    /// `NotFound` when no implementation matches; IIF parse errors;
    /// `Unsupported`/`Cql` for an attribute that does not bind.
    pub(crate) fn resolve(&self, request: &ComponentRequest) -> Result<Resolved<'_>, IcdbError> {
        let resolved = |origin, params: Vec<(String, i64)>, source| {
            let (lib, cells) = (self.library.version(), self.cells.version());
            let key = RequestKey::new(source, &params, request, lib, cells);
            Resolved {
                origin,
                params,
                key,
            }
        };
        let imp = match &request.source {
            Source::Library {
                implementation: Some(name),
                ..
            } => self
                .library
                .implementation(name)
                .ok_or_else(|| IcdbError::NotFound(format!("implementation `{name}`")))?,
            Source::Library {
                component_name,
                implementation: None,
                functions,
            } => {
                let candidates: Vec<&ComponentImpl> = match component_name.as_deref() {
                    Some(ty) if !ty.is_empty() => self.library.by_component_type(ty),
                    _ => self.library.iter().collect(),
                };
                candidates
                    .into_iter()
                    .find(|c| c.executes_all(functions))
                    .ok_or_else(|| {
                        IcdbError::NotFound(format!(
                            "no implementation for component {component_name:?} functions \
                             {functions:?}"
                        ))
                    })?
            }
            Source::Iif(text) => {
                let module = icdb_iif::parse(text)?;
                let mut params = Vec::new();
                for p in &module.parameters {
                    let missing = || {
                        let name = &module.name;
                        IcdbError::Unsupported(format!("IIF design `{name}` needs attribute `{p}`"))
                    };
                    let (_, v) = request
                        .attributes
                        .iter()
                        .find(|(k, _)| k == p)
                        .ok_or_else(missing)?;
                    let v = v.parse::<i64>().map_err(|_| {
                        IcdbError::Cql(format!("attribute {p}:{v} is not an integer"))
                    })?;
                    params.push((p.clone(), v));
                }
                let source = SourceKey::Iif(text.clone());
                return Ok(resolved(Origin::Iif(Box::new(module)), params, source));
            }
            Source::VhdlNetlist(_) => {
                return Err(IcdbError::Unsupported(
                    "a VHDL cluster does not resolve".into(),
                ))
            }
        };
        let params = imp.bind_attributes(&request.attributes)?;
        let source = SourceKey::Implementation(imp.name.clone());
        Ok(resolved(Origin::Library(imp), params, source))
    }

    /// Prepares a batch of resolved requests on up to `workers` scoped
    /// threads sharing the cache, and returns their payloads in order.
    ///
    /// Each point is looked up once in the result layer. Before any thread
    /// starts, the misses are grouped by netlist key in first-occurrence
    /// order; they then run in two phases:
    ///
    /// 1. once per distinct key, in parallel across keys: one netlist-layer
    ///    lookup, and on a miss the expansion, synthesis and rendering of
    ///    the views that do not depend on sizing ([`Icdb::build_netlist`]);
    /// 2. once per point, in parallel across points: sizing, estimation
    ///    and the delay and shape views on a copy of the phase-1 netlist
    ///    ([`Icdb::finish_payload`]); the payload fills the result layer.
    ///
    /// Phase 2 takes the entries phase 1 returned and never looks the
    /// netlist layer up again, so an eviction in between redoes no work.
    /// A key whose phase 1 fails fails each of its points with that error.
    /// A batch of one runs inline.
    pub(crate) fn prepare_all(
        &self,
        points: &[(&Resolved<'_>, &ComponentRequest)],
        workers: usize,
    ) -> Vec<PreparedPayload> {
        let hits: Vec<_> = points
            .iter()
            .map(|(resolved, _)| self.cache.get_result(&resolved.key))
            .collect();
        let mut builds: Vec<(NetKey, &Resolved)> = Vec::new();
        let mut build_of: HashMap<NetKey, usize> = HashMap::new();
        let mut misses: Vec<(usize, usize)> = Vec::new();
        for (point, ((resolved, _), hit)) in points.iter().zip(&hits).enumerate() {
            if hit.is_none() {
                let key = resolved.key.net_key();
                let build = *build_of.entry(key.clone()).or_insert_with(|| {
                    builds.push((key, resolved));
                    builds.len() - 1
                });
                misses.push((point, build));
            }
        }
        let built = fan_out(&builds, workers, |(key, resolved)| {
            self.build_netlist(key, resolved)
        });
        let mut finished = fan_out(&misses, workers, |&(point, build)| {
            let (resolved, request) = points[point];
            let net = built[build].as_ref().map_err(IcdbError::clone)?;
            let (implementation, functions, connection) = match &resolved.origin {
                Origin::Library(imp) => (
                    imp.name.clone(),
                    imp.functions.clone(),
                    imp.connection.clone(),
                ),
                Origin::Iif(module) => (
                    "iif".to_string(),
                    module.functions.clone(),
                    Default::default(),
                ),
            };
            let payload = Arc::new(GenerationPayload {
                implementation,
                functions,
                params: resolved.params.clone(),
                connection,
                ..self.finish_payload(
                    net,
                    request.constraints.load_spec(),
                    &request.sizing_strategy(),
                    request.constraints.set_up_time,
                )?
            });
            self.cache.put_result(resolved.key.clone(), payload.clone());
            Ok(payload)
        })
        .into_iter();
        hits.into_iter()
            .map(|hit| hit.map_or_else(|| finished.next().expect("every miss was finished"), Ok))
            .collect()
    }

    /// Phase 1 of [`Icdb::prepare_all`] for one netlist key: one
    /// netlist-layer lookup, and on a miss the expansion and synthesis of
    /// the module, whose entry (the unsized netlist with its IIF, MILO,
    /// VHDL and VHDL-head views) is stored. The expanded module itself is
    /// not kept.
    ///
    /// # Errors
    /// Propagates expansion and synthesis failures.
    fn build_netlist(
        &self,
        key: &NetKey,
        resolved: &Resolved<'_>,
    ) -> Result<Arc<NetEntry>, IcdbError> {
        if let Some(net) = self.cache.get_netlist(key) {
            return Ok(net);
        }
        let module = match &resolved.origin {
            Origin::Library(imp) => &imp.module,
            Origin::Iif(module) => &**module,
        };
        let pairs: Vec<(&str, i64)> = resolved
            .params
            .iter()
            .map(|(n, v)| (n.as_str(), *v))
            .collect();
        let module = icdb_iif::expand(module, &pairs, &self.library)?;
        let netlist = synthesize(&module, &self.cells, &SynthOptions::default())?;
        let net = Arc::new(NetEntry::new(Some(&module), netlist, &self.cells));
        self.cache.put_netlist(key.clone(), net.clone());
        Ok(net)
    }

    /// The pipeline tail: transistor sizing of a copy of `net`'s netlist,
    /// the set-up bound check, shape and power estimation, and the delay
    /// and shape views. The other views come pre-rendered with `net`:
    /// sizing changes only gate sizes, which the VHDL views do not print,
    /// and the expanded-IIF and MILO views render from the module alone
    /// (absent where the netlist has none). The caller fills in the
    /// payload's identity.
    fn finish_payload(
        &self,
        net: &NetEntry,
        loads: LoadSpec,
        strategy: &Strategy,
        set_up_time: Option<f64>,
    ) -> Result<GenerationPayload, IcdbError> {
        let mut netlist = net.netlist.clone();
        let sizing = size_netlist(&mut netlist, &self.cells, &loads, strategy);
        let mut met = sizing.met;
        if let Some(bound) = set_up_time {
            let worst_setup = sizing
                .report
                .setup_times
                .iter()
                .map(|(_, d)| *d)
                .fold(0.0f64, f64::max);
            if worst_setup > bound {
                met = false;
            }
        }
        let shape = estimate_shape(&netlist, &self.cells, MAX_SHAPE_STRIPS)?;
        let power_uw = icdb_estimate::estimate_power(
            &netlist,
            &self.cells,
            &icdb_estimate::PowerSpec::default(),
        )?
        .total_uw;
        let delay_text: Arc<str> = sizing.report.to_string().into();
        let shape_text: Arc<str> = shape.to_alternative_format().into();
        Ok(GenerationPayload {
            implementation: String::new(),
            functions: Vec::new(),
            params: Vec::new(),
            netlist,
            loads,
            report: sizing.report,
            shape,
            power_uw,
            met,
            connection: Default::default(),
            flat_iif: net.iif.clone(),
            milo: net.milo.clone(),
            vhdl: Arc::clone(&net.vhdl),
            vhdl_head: Arc::clone(&net.vhdl_head),
            delay_text,
            shape_text,
            lib_version: self.library.version(),
            cells_version: self.cells.version(),
        })
    }

    /// The mutating half of generation: names the instance (one interned
    /// allocation shared by the instance, the map key, the creation order
    /// and the return value), inserts its catalog row, persists the
    /// payload's pre-rendered views, and registers the instance in the
    /// namespace.
    pub(crate) fn install_payload_in(
        &mut self,
        ns: NsId,
        request: &ComponentRequest,
        payload: &Arc<GenerationPayload>,
    ) -> Result<String, IcdbError> {
        let name: Arc<str> = match &request.instance_name {
            Some(n) => Arc::from(n.as_str()),
            None => {
                let space = self.spaces.get_mut(ns)?;
                space.counter += 1;
                format!(
                    "{}${}",
                    payload.implementation.to_ascii_lowercase(),
                    space.counter
                )
                .into()
            }
        };
        if self.spaces.get(ns)?.instances.contains_key(&*name) {
            return Err(IcdbError::Unsupported(format!(
                "instance `{name}` already exists"
            )));
        }

        let instance = ComponentInstance {
            name: name.clone(),
            implementation: payload.implementation.clone(),
            functions: payload.functions.clone(),
            params: payload.params.clone(),
            netlist: payload.netlist.clone(),
            loads: payload.loads.clone(),
            report: payload.report.clone(),
            shape: payload.shape.clone(),
            met: payload.met,
            connection: payload.connection.clone(),
            layout: None,
        };
        self.db
            .insert("instances", Namespace::catalog_row(ns, &instance))?;
        self.persist_views(ns, &name, payload);
        let space = self.spaces.get_mut(ns)?;
        space.instances.insert(name.clone(), instance);
        space.instance_order.push(name.clone());
        space.designs.note_created(&name);
        Ok(name.to_string())
    }

    /// Flattens a VHDL netlist of existing instances into one netlist
    /// (the partitioner's clustering path, Appendix B §6.3). Instances are
    /// resolved in the caller's namespace.
    fn flatten_cluster(&self, ns: NsId, text: &str) -> Result<GateNetlist, IcdbError> {
        let instances = &self.spaces.get(ns)?.instances;
        let parsed = parse_netlist(text)?;
        let mut out = GateNetlist::new(parsed.name.clone());
        for p in &parsed.ports {
            let id = out.intern(&p.name);
            match p.dir {
                icdb_vhdl::PortDir::In => out.inputs.push(id),
                icdb_vhdl::PortDir::Out => out.outputs.push(id),
            }
        }
        for inst in &parsed.instances {
            let sub = instances.get(inst.component.as_str()).ok_or_else(|| {
                IcdbError::NotFound(format!(
                    "cluster references unknown instance `{}`",
                    inst.component
                ))
            })?;
            // Map the sub-instance's port nets onto cluster nets via the
            // port map (formals accept raw or VHDL-sanitized names).
            let mut mapping: Vec<Option<icdb_logic::GNet>> = vec![None; sub.netlist.net_count()];
            for (formal, actual) in &inst.port_map {
                let port = sub
                    .netlist
                    .inputs
                    .iter()
                    .chain(&sub.netlist.outputs)
                    .copied()
                    .find(|&n| {
                        let pn = sub.netlist.net_name(n);
                        // VHDL identifiers are case-insensitive; accept both
                        // the raw netlist name and its VHDL transliteration.
                        pn.eq_ignore_ascii_case(formal)
                            || vhdl_id(pn) == formal.to_ascii_lowercase()
                    })
                    .ok_or_else(|| {
                        IcdbError::NotFound(format!(
                            "instance `{}` has no port `{formal}`",
                            inst.component
                        ))
                    })?;
                mapping[port.index()] = Some(out.intern(actual));
            }
            // Clone gates, renaming unmapped nets into a per-label space.
            for g in &sub.netlist.gates {
                let map_net = |nets: &mut Vec<Option<icdb_logic::GNet>>,
                               out: &mut GateNetlist,
                               n: icdb_logic::GNet| {
                    if let Some(m) = nets[n.index()] {
                        m
                    } else {
                        let fresh =
                            out.intern(&format!("{}${}", inst.label, sub.netlist.net_name(n)));
                        nets[n.index()] = Some(fresh);
                        fresh
                    }
                };
                let inputs = g
                    .inputs
                    .iter()
                    .map(|&n| map_net(&mut mapping, &mut out, n))
                    .collect();
                let output = map_net(&mut mapping, &mut out, g.output);
                out.gates.push(Gate {
                    cell: g.cell,
                    inputs,
                    output,
                    size: g.size,
                });
            }
        }
        out.validate(&self.cells)
            .map_err(|e| IcdbError::Synthesis(e.message))?;
        Ok(out)
    }

    /// Generates (or regenerates) the layout of an instance, honoring a
    /// shape alternative and port positions; returns the CIF text as a
    /// shared blob (the `request_component; instance:%s; alternative:3;
    /// port_position:%s; CIF_layout:?s` query of §3.3).
    ///
    /// # Errors
    /// Fails on unknown instances, bad alternatives or malformed port
    /// specifications.
    pub fn generate_layout(
        &mut self,
        instance: &str,
        alternative: Option<usize>,
        port_positions: Option<&str>,
    ) -> Result<Arc<str>, IcdbError> {
        self.generate_layout_in(NsId::ROOT, instance, alternative, port_positions)
    }

    /// [`Icdb::generate_layout`] against an explicit namespace. Journaled
    /// as a [`MutationEvent::GenerateLayout`].
    ///
    /// # Errors
    /// As [`Icdb::generate_layout`].
    pub fn generate_layout_in(
        &mut self,
        ns: NsId,
        instance: &str,
        alternative: Option<usize>,
        port_positions: Option<&str>,
    ) -> Result<Arc<str>, IcdbError> {
        self.commit(&MutationEvent::GenerateLayout {
            ns,
            instance: instance.to_string(),
            alternative,
            port_positions: port_positions.map(str::to_string),
        })?
        .into_cif()
        .ok_or_else(|| IcdbError::Layout("GenerateLayout applied without a CIF".into()))
    }

    /// The apply-side of [`Icdb::generate_layout_in`] (shared by live
    /// commits, layout-targeted installs and recovery replay).
    pub(crate) fn apply_generate_layout(
        &mut self,
        ns: NsId,
        instance: &str,
        alternative: Option<usize>,
        port_positions: Option<&str>,
    ) -> Result<Arc<str>, IcdbError> {
        let inst = self
            .spaces
            .get(ns)?
            .instances
            .get(instance)
            .ok_or_else(|| IcdbError::NotFound(format!("instance `{instance}`")))?;
        let strips = match alternative {
            Some(a) => {
                let alt = inst
                    .shape
                    .alternatives
                    .get(a.saturating_sub(1))
                    .ok_or_else(|| {
                        IcdbError::Layout(format!(
                            "instance `{instance}` has {} shape alternatives, not {a}",
                            inst.shape.alternatives.len()
                        ))
                    })?;
                alt.strips
            }
            None => inst.shape.best_area().map(|a| a.strips).unwrap_or(1),
        };
        let spec = match port_positions {
            Some(text) => PortSpec::parse(text)?,
            None => {
                let ins: Vec<String> = inst
                    .netlist
                    .inputs
                    .iter()
                    .map(|&n| inst.netlist.net_name(n).to_string())
                    .collect();
                let outs: Vec<String> = inst
                    .netlist
                    .outputs
                    .iter()
                    .map(|&n| inst.netlist.net_name(n).to_string())
                    .collect();
                PortSpec::default_for(&ins, &outs)
            }
        };
        let layout = place(&inst.netlist, &self.cells, strips, &spec)?;
        // Shared blob: the store write and the returned handle are
        // reference-count bumps on one allocation, not text copies.
        let cif: Arc<str> = to_cif(&layout).into();
        let art = to_ascii(&layout, 100);
        self.files
            .write(Namespace::file_path(ns, instance, "cif"), cif.clone());
        self.files
            .write(Namespace::file_path(ns, instance, "layout.txt"), art);
        self.spaces
            .get_mut(ns)?
            .instances
            .get_mut(instance)
            .expect("checked above")
            .layout = Some(layout);
        Ok(cif)
    }

    /// Re-estimates an instance under different output loads, resizing to
    /// hold a clock-width target (the Fig. 10 exploration).
    ///
    /// # Errors
    /// Fails on unknown instances.
    pub fn resize_for_load(
        &mut self,
        instance: &str,
        loads: &LoadSpec,
        clock_width: f64,
    ) -> Result<(), IcdbError> {
        self.resize_for_load_in(NsId::ROOT, instance, loads, clock_width)
    }

    /// [`Icdb::resize_for_load`] against an explicit namespace. Journaled
    /// as a [`MutationEvent::ResizeForLoad`].
    ///
    /// # Errors
    /// Fails on unknown instances or namespaces.
    pub fn resize_for_load_in(
        &mut self,
        ns: NsId,
        instance: &str,
        loads: &LoadSpec,
        clock_width: f64,
    ) -> Result<(), IcdbError> {
        self.commit(&MutationEvent::ResizeForLoad {
            ns,
            instance: instance.to_string(),
            loads: loads.clone(),
            clock_width,
        })
        .map(|_| ())
    }

    /// The apply-side of [`Icdb::resize_for_load_in`]: the pipeline tail
    /// again, with the catalog row and stored views rewritten to match.
    pub(crate) fn apply_resize_for_load(
        &mut self,
        ns: NsId,
        instance: &str,
        loads: &LoadSpec,
        clock_width: f64,
    ) -> Result<(), IcdbError> {
        let inst = self.instance_in(ns, instance)?;
        let strategy = Strategy::Constraints(SizingGoal::clock(clock_width));
        let net = NetEntry::new(None, inst.netlist.clone(), &self.cells);
        let resized = self.finish_payload(&net, loads.clone(), &strategy, None)?;
        let stale = Namespace::catalog_row(ns, inst);
        self.delete_catalog_rows([stale]);
        self.persist_views(ns, instance, &resized);
        let inst = self
            .spaces
            .get_mut(ns)?
            .instances
            .get_mut(instance)
            .expect("checked above");
        inst.netlist = resized.netlist;
        inst.loads = resized.loads;
        inst.report = resized.report;
        inst.shape = resized.shape;
        inst.met = resized.met;
        self.db
            .insert("instances", Namespace::catalog_row(ns, inst))?;
        Ok(())
    }

    /// The instance named `name`.
    ///
    /// # Errors
    /// `NotFound` if absent.
    pub fn instance(&self, name: &str) -> Result<&ComponentInstance, IcdbError> {
        self.instance_in(NsId::ROOT, name)
    }

    /// The instance named `name` in an explicit namespace.
    ///
    /// # Errors
    /// `NotFound` if the namespace or instance is absent.
    pub fn instance_in(&self, ns: NsId, name: &str) -> Result<&ComponentInstance, IcdbError> {
        self.spaces
            .get(ns)?
            .instances
            .get(name)
            .ok_or_else(|| IcdbError::NotFound(format!("instance `{name}`")))
    }

    /// Names of all generated instances, in creation order.
    pub fn instance_names(&self) -> &[Arc<str>] {
        &self.spaces.root().instance_order
    }

    /// Names of all instances in a namespace, in creation order.
    ///
    /// # Errors
    /// `NotFound` on unknown namespaces.
    pub fn instance_names_in(&self, ns: NsId) -> Result<&[Arc<str>], IcdbError> {
        Ok(&self.spaces.get(ns)?.instance_order)
    }

    /// Deletes an instance and its design data.
    pub(crate) fn delete_instance_in(&mut self, ns: NsId, name: &str) {
        let Ok(space) = self.spaces.get_mut(ns) else {
            return;
        };
        if let Some(inst) = space.instances.remove(name) {
            space.instance_order.retain(|n| &**n != name);
            for suffix in INSTANCE_VIEW_SUFFIXES {
                self.files.remove(&Namespace::file_path(ns, name, suffix));
            }
            self.delete_catalog_rows([Namespace::catalog_row(ns, &inst)]);
        }
    }

    /// Deletes, in one pass, one row of the relational `instances` table
    /// equal to each of `rows` (each an instance's
    /// [`Namespace::catalog_row`]). So a delete removes exactly its
    /// instances' rows, although a root instance named `s<N>:x` and
    /// session N's `x` share one catalog name.
    pub(crate) fn delete_catalog_rows(&mut self, rows: impl IntoIterator<Item = Vec<Value>>) {
        // Keyed by name in a B-tree: a one-row delete compares each table
        // row's name once, and a namespace drop stays one pass.
        let mut doomed: BTreeMap<String, Vec<Vec<Value>>> = BTreeMap::new();
        for row in rows {
            let name = row[0].as_text().unwrap_or_default().to_string();
            doomed.entry(name).or_default().push(row);
        }
        let _ = self.db.delete_rows("instances", |row| {
            let Some(pending) = doomed.get_mut(row[0].as_text().unwrap_or_default()) else {
                return false;
            };
            let Some(i) = pending.iter().position(|p| p[..] == *row) else {
                return false;
            };
            pending.swap_remove(i);
            true
        });
    }

    /// §3.3 delay string (`CW …` / `WD port …` / `SD port …`).
    ///
    /// # Errors
    /// `NotFound` if the instance is absent.
    pub fn delay_string(&self, name: &str) -> Result<String, IcdbError> {
        self.delay_string_in(NsId::ROOT, name)
    }

    /// Namespace form of [`Icdb::delay_string`].
    ///
    /// # Errors
    /// `NotFound` if the namespace or instance is absent.
    pub fn delay_string_in(&self, ns: NsId, name: &str) -> Result<String, IcdbError> {
        Ok(self.instance_in(ns, name)?.report.to_string())
    }

    /// §3.3 shape-function string (`Alternative=… width=… height=…`).
    ///
    /// # Errors
    /// `NotFound` if the instance is absent.
    pub fn shape_string(&self, name: &str) -> Result<String, IcdbError> {
        self.shape_string_in(NsId::ROOT, name)
    }

    /// Namespace form of [`Icdb::shape_string`].
    ///
    /// # Errors
    /// `NotFound` if the namespace or instance is absent.
    pub fn shape_string_in(&self, ns: NsId, name: &str) -> Result<String, IcdbError> {
        Ok(self.instance_in(ns, name)?.shape.to_alternative_format())
    }

    /// Appendix-B area string (`strip = … width = … height = … area = …`).
    ///
    /// # Errors
    /// `NotFound` if the instance is absent.
    pub fn area_string(&self, name: &str) -> Result<String, IcdbError> {
        self.area_string_in(NsId::ROOT, name)
    }

    /// Namespace form of [`Icdb::area_string`].
    ///
    /// # Errors
    /// `NotFound` if the namespace or instance is absent.
    pub fn area_string_in(&self, ns: NsId, name: &str) -> Result<String, IcdbError> {
        Ok(self.instance_in(ns, name)?.shape.to_strip_format())
    }

    /// §4.1 connection string (`## function INC … ** DWUP 0`).
    ///
    /// # Errors
    /// `NotFound` if the instance is absent.
    pub fn connect_string(&self, name: &str) -> Result<String, IcdbError> {
        self.connect_string_in(NsId::ROOT, name)
    }

    /// Namespace form of [`Icdb::connect_string`].
    ///
    /// # Errors
    /// `NotFound` if the namespace or instance is absent.
    pub fn connect_string_in(&self, ns: NsId, name: &str) -> Result<String, IcdbError> {
        Ok(self.instance_in(ns, name)?.connection.to_paper_format())
    }

    /// Structural VHDL of the instance.
    ///
    /// # Errors
    /// `NotFound` if the instance is absent.
    pub fn vhdl_netlist(&self, name: &str) -> Result<String, IcdbError> {
        self.vhdl_netlist_in(NsId::ROOT, name)
    }

    /// Namespace form of [`Icdb::vhdl_netlist`].
    ///
    /// # Errors
    /// `NotFound` if the namespace or instance is absent.
    pub fn vhdl_netlist_in(&self, ns: NsId, name: &str) -> Result<String, IcdbError> {
        Ok(emit_netlist(
            &self.instance_in(ns, name)?.netlist,
            &self.cells,
        ))
    }

    /// VHDL entity head of the instance.
    ///
    /// # Errors
    /// `NotFound` if the instance is absent.
    pub fn vhdl_head(&self, name: &str) -> Result<String, IcdbError> {
        self.vhdl_head_in(NsId::ROOT, name)
    }

    /// Namespace form of [`Icdb::vhdl_head`].
    ///
    /// # Errors
    /// `NotFound` if the namespace or instance is absent.
    pub fn vhdl_head_in(&self, ns: NsId, name: &str) -> Result<String, IcdbError> {
        Ok(emit_entity(&self.instance_in(ns, name)?.netlist))
    }

    /// The already-generated CIF of an instance, if any — the warm read
    /// path of [`Icdb::cif_layout`], requiring only `&self` so the service
    /// can answer layout queries under a shared lock.
    ///
    /// # Errors
    /// `NotFound` if the namespace or instance is absent. `Ok(None)` means
    /// the instance exists but no layout has been generated yet.
    pub fn cif_layout_cached_in(
        &self,
        ns: NsId,
        name: &str,
    ) -> Result<Option<Arc<str>>, IcdbError> {
        self.instance_in(ns, name)?; // distinguish "no instance" from "no layout"
        Ok(self
            .files
            .read_shared(&Namespace::file_path(ns, name, "cif"))
            .ok())
    }

    /// The already-generated CIF of a root-namespace instance, if any.
    ///
    /// # Errors
    /// `NotFound` if the instance is absent.
    pub fn cif_layout_cached(&self, name: &str) -> Result<Option<Arc<str>>, IcdbError> {
        self.cif_layout_cached_in(NsId::ROOT, name)
    }

    /// CIF of the instance (generating a default layout on first use). The
    /// warm path is a shared-blob read through [`Icdb::cif_layout_cached`];
    /// only cold generation mutates.
    ///
    /// # Errors
    /// `NotFound` if the instance is absent; layout errors propagate.
    pub fn cif_layout(&mut self, name: &str) -> Result<Arc<str>, IcdbError> {
        self.cif_layout_in(NsId::ROOT, name)
    }

    /// Namespace form of [`Icdb::cif_layout`].
    ///
    /// # Errors
    /// `NotFound` if the namespace or instance is absent; layout errors
    /// propagate.
    pub fn cif_layout_in(&mut self, ns: NsId, name: &str) -> Result<Arc<str>, IcdbError> {
        if let Some(text) = self.cif_layout_cached_in(ns, name)? {
            return Ok(text);
        }
        self.generate_layout_in(ns, name, None, None)
    }

    /// Writes the payload's pre-rendered views to the design-data store.
    /// Every view is a shared blob: on the warm path these writes are
    /// reference-count bumps, not string copies.
    fn persist_views(&mut self, ns: NsId, name: &str, p: &GenerationPayload) {
        if let Some(flat) = &p.flat_iif {
            self.files
                .write(Namespace::file_path(ns, name, "iif"), flat.clone());
        }
        if let Some(milo) = &p.milo {
            self.files
                .write(Namespace::file_path(ns, name, "milo"), milo.clone());
        }
        self.files
            .write(Namespace::file_path(ns, name, "vhdl"), p.vhdl.clone());
        self.files.write(
            Namespace::file_path(ns, name, "vhdl_head"),
            p.vhdl_head.clone(),
        );
        self.files.write(
            Namespace::file_path(ns, name, "delay"),
            p.delay_text.clone(),
        );
        self.files.write(
            Namespace::file_path(ns, name, "shape"),
            p.shape_text.clone(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two items at two workers run at once, one on the calling thread and
    /// one on the single thread `fan_out` spawns: each job waits for the
    /// other at a barrier.
    #[test]
    fn fan_out_runs_one_share_on_the_calling_thread() {
        let barrier = std::sync::Barrier::new(2);
        let caller = std::thread::current().id();
        let ran_on = fan_out(&[0, 1], 2, |_| {
            barrier.wait();
            std::thread::current().id()
        });
        assert_eq!(
            ran_on.iter().filter(|&&id| id == caller).count(),
            1,
            "{ran_on:?}"
        );
    }

    /// Every stored view with a query counterpart, and the catalog row,
    /// agree with the instance's live queries.
    fn assert_store_matches_queries(icdb: &Icdb, name: &str) {
        let ns = NsId::ROOT;
        let view = |suffix| {
            icdb.files
                .read(&Namespace::file_path(ns, name, suffix))
                .unwrap()
        };
        assert_eq!(view("delay"), icdb.delay_string(name).unwrap());
        assert_eq!(view("shape"), icdb.shape_string(name).unwrap());
        assert_eq!(view("vhdl"), icdb.vhdl_netlist(name).unwrap());
        assert_eq!(view("vhdl_head"), icdb.vhdl_head(name).unwrap());
        let inst = icdb.instance(name).unwrap();
        let rows = icdb
            .db
            .query(&format!(
                "SELECT implementation, gates, area, clock_width, met FROM instances \
                 WHERE name = '{name}'"
            ))
            .unwrap();
        let expected = vec![
            Value::Text(inst.implementation.clone()),
            Value::Int(inst.netlist.gates.len() as i64),
            Value::Real(inst.area()),
            Value::Real(inst.report.clock_width),
            Value::Int(i64::from(inst.met)),
        ];
        assert_eq!(rows, vec![expected]);
    }

    /// A resize rewrites the stored delay and shape views and the catalog
    /// row, live and after recovery replays it.
    #[test]
    fn resize_for_load_rewrites_the_stored_views_and_the_catalog_row() {
        let dir = std::env::temp_dir().join(format!("icdb-resize-views-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut icdb = Icdb::open(&dir).unwrap();
        let request = ComponentRequest::by_component("counter").attribute("size", "5");
        let name = icdb.request_component(&request).unwrap();
        let before = icdb.delay_string(&name).unwrap();
        let clock_width = 0.9 * icdb.instance(&name).unwrap().report.clock_width;
        icdb.resize_for_load(&name, &LoadSpec::uniform(60.0), clock_width)
            .unwrap();
        assert_ne!(icdb.delay_string(&name).unwrap(), before);
        assert_store_matches_queries(&icdb, &name);
        drop(icdb);
        let recovered = Icdb::open(&dir).unwrap();
        assert_store_matches_queries(&recovered, &name);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
