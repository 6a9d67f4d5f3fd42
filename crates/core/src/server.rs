//! The component-server engine: the embedded generation path of Fig. 8
//! (IIF expander → MILO-style synthesis → transistor sizing → estimators →
//! layout generator) plus instance storage and queries.
//!
//! Generation is split into a read-only **prepare** phase
//! ([`Icdb::prepare_payload`] → [`GenerationPayload`]) memoized by the
//! [`crate::cache::GenCache`], and a mutating **install** phase that names
//! the instance and persists its views. The split is what makes both
//! [`Icdb::request_components_batch`] (cold prepares fan out across scoped
//! threads sharing the cache) and the concurrent
//! [`crate::service::IcdbService`] possible: the service runs prepares
//! under a *shared* read lock and takes the exclusive lock only for the
//! short install.
//!
//! Every instance-touching method exists in two forms: the classic
//! single-caller form (`instance`, `delay_string`, …) operating on
//! [`NsId::ROOT`], and an `_in` form addressing an explicit session
//! namespace.

use crate::cache::{FlatKey, GenerationPayload, NetKey, RequestKey, SourceKey};
use crate::error::IcdbError;
use crate::events::MutationEvent;
use crate::instance::ComponentInstance;
use crate::library::ComponentImpl;
use crate::space::{Namespace, NsId};
use crate::spec::{ComponentRequest, Source};
use crate::Icdb;
use icdb_estimate::{estimate_shape, LoadSpec};
use icdb_layout::{place, to_ascii, to_cif, PortSpec};
use icdb_logic::{synthesize, Gate, GateNetlist, SynthOptions};
use icdb_sizing::size_netlist;
use icdb_store::Value;
use icdb_vhdl::{emit_entity, emit_netlist, parse_netlist, vhdl_id};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// How many strip-count alternatives the shape estimator sweeps.
const MAX_SHAPE_STRIPS: usize = 8;

/// Result of preparing one request (shared payload or the first error).
pub(crate) type PreparedPayload = Result<Arc<GenerationPayload>, IcdbError>;

/// A library request after [`Icdb::resolve`]: the implementation it names,
/// the parameter values its attributes bind, and its canonical key.
pub(crate) struct Resolved<'a> {
    imp: &'a ComponentImpl,
    params: Vec<(String, i64)>,
    /// The result-layer and corpus key.
    pub(crate) key: RequestKey,
}

/// Runs `job` on every item across up to `workers` scoped threads and
/// returns the results in item order. `workers` is clamped to
/// `1..=items.len()`, so 0 runs sequentially.
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
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else {
                    break;
                };
                let result = job(item);
                *crate::cache::lock(&slots[i]) = Some(result);
            });
        }
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

    /// [`Icdb::request_component`] against an explicit session namespace.
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
        self.commit_install(ns, request, None)
    }

    /// Generates many components in one call, fanning the *cold* pipeline
    /// work out across up to `workers` scoped threads that share the
    /// generation cache; instances are then installed sequentially in
    /// request order, so auto-generated names are deterministic.
    ///
    /// `workers` is clamped to `1..=requests.len()`: a `workers` of 0 runs
    /// sequentially instead of spawning a zero-worker scope that could
    /// never fill the result slots.
    ///
    /// VHDL-cluster requests skip the parallel prepare (they flatten live
    /// instances, so they are prepared at install time in request order —
    /// a cluster may therefore reference instances created earlier in the
    /// same batch, exactly as if the requests were issued sequentially).
    ///
    /// # Errors
    /// The first failing request aborts the remaining installs; instances
    /// already installed by this call are kept.
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
        let prepared = self.prepare_batch(ns, requests, workers);
        self.install_batch_in(ns, requests, prepared)
    }

    /// The read-only half of a batch: prepares every request, fanning cold
    /// work across up to `workers` scoped threads sharing the cache (see
    /// [`fan_out`]). Safe under a shared lock.
    pub(crate) fn prepare_batch(
        &self,
        ns: NsId,
        requests: &[ComponentRequest],
        workers: usize,
    ) -> Vec<PreparedPayload> {
        // Cluster requests are never prepared here: they flatten *live*
        // instances, so the install path re-prepares them at their
        // position in the journal order (see `Icdb::apply_install`).
        fan_out(requests, workers, |request| {
            if matches!(request.source, Source::VhdlNetlist(_)) {
                Err(IcdbError::Unsupported(
                    "VHDL clusters are prepared at install time".into(),
                ))
            } else {
                self.prepare_payload(ns, request)
            }
        })
    }

    /// The mutating half of a batch: journals and installs one
    /// [`MutationEvent::InstallComponent`] per request in request order
    /// (deterministic names), generating layouts where requested. The
    /// prepared payloads serve as cache-warm hints; clusters re-prepare at
    /// their journal position (so, unlike earlier revisions, a cluster in
    /// a batch *may* reference instances created earlier in the same
    /// batch — identical to issuing the requests sequentially).
    pub(crate) fn install_batch_in(
        &mut self,
        ns: NsId,
        requests: &[ComponentRequest],
        prepared: Vec<PreparedPayload>,
    ) -> Result<Vec<String>, IcdbError> {
        let mut names = Vec::with_capacity(requests.len());
        for (request, slot) in requests.iter().zip(prepared) {
            let name = if matches!(request.source, Source::VhdlNetlist(_)) {
                self.commit_install(ns, request, None)?
            } else {
                let payload = slot?;
                self.commit_install(ns, request, Some(&payload))?
            };
            names.push(name);
        }
        Ok(names)
    }

    /// The read-only half of generation: resolves the request, consults the
    /// cache layer by layer, and runs only the stages that miss. Safe to
    /// call concurrently from scoped threads sharing `&self` (the service
    /// calls it under a shared read lock, so cold generation never blocks
    /// other sessions' reads). The mutating install half
    /// ([`Icdb::request_component`] runs both) turns a payload into a named
    /// instance.
    ///
    /// # Errors
    /// Propagates resolution, expansion, synthesis and estimation failures.
    pub(crate) fn prepare_payload(&self, ns: NsId, request: &ComponentRequest) -> PreparedPayload {
        match &request.source {
            Source::Library { .. } => {
                let resolved = self.resolve(request)?;
                match self.cache.get_result(&resolved.key) {
                    Some(hit) => Ok(hit),
                    None => self.generate_resolved(&resolved, request),
                }
            }
            Source::Iif(text) => {
                let module = icdb_iif::parse(text)?;
                let mut params = Vec::new();
                for p in &module.parameters {
                    let v = request
                        .attributes
                        .iter()
                        .find(|(k, _)| k == p)
                        .map(|(_, v)| {
                            v.parse::<i64>().map_err(|_| {
                                IcdbError::Cql(format!("attribute {p}:{v} is not an integer"))
                            })
                        })
                        .transpose()?
                        .ok_or_else(|| {
                            IcdbError::Unsupported(format!(
                                "IIF design `{}` needs attribute `{p}`",
                                module.name
                            ))
                        })?;
                    params.push((p.clone(), v));
                }
                let source = SourceKey::Iif(text.clone());
                let key = RequestKey::new(
                    source,
                    &params,
                    request,
                    self.library.version(),
                    self.cells.version(),
                );
                if let Some(hit) = self.cache.get_result(&key) {
                    return Ok(hit);
                }
                let payload = Arc::new(self.generate_from_module(
                    &module,
                    key.flat_key(),
                    "iif".to_string(),
                    module.functions.clone(),
                    params,
                    Default::default(),
                    request,
                )?);
                self.cache.put_result(key, payload.clone());
                Ok(payload)
            }
            Source::VhdlNetlist(text) => {
                // Clusters flatten *live* instances, so their results are
                // never cached — a stale hit could resurrect deleted state.
                let netlist = self.flatten_cluster(ns, text)?;
                Ok(Arc::new(self.finish_payload(
                    netlist,
                    "cluster".to_string(),
                    Vec::new(),
                    Vec::new(),
                    Default::default(),
                    None,
                    request,
                )?))
            }
        }
    }

    /// Resolves a library request without running any generation stage:
    /// picks the implementation, binds the request's attributes to its
    /// parameters, and canonicalizes the cache/corpus key. Every library
    /// request — a plain one through [`Icdb::prepare_payload`], a sweep's
    /// grid point — resolves here.
    ///
    /// # Errors
    /// `NotFound` when no implementation matches, `Unsupported` for an
    /// unknown attribute or a source that is not a library request.
    pub(crate) fn resolve(&self, request: &ComponentRequest) -> Result<Resolved<'_>, IcdbError> {
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
                let executes_all = |c: &&ComponentImpl| {
                    functions
                        .iter()
                        .all(|f| c.functions.iter().any(|cf| cf.eq_ignore_ascii_case(f)))
                };
                candidates.into_iter().find(executes_all).ok_or_else(|| {
                    IcdbError::NotFound(format!(
                        "no implementation for component {component_name:?} functions \
                         {functions:?}"
                    ))
                })?
            }
            _ => {
                return Err(IcdbError::Unsupported(
                    "only library requests resolve to an implementation".into(),
                ))
            }
        };
        let params = imp.bind_attributes(&request.attributes)?;
        let key = RequestKey::new(
            SourceKey::Implementation(imp.name.clone()),
            &params,
            request,
            self.library.version(),
            self.cells.version(),
        );
        Ok(Resolved { imp, params, key })
    }

    /// Runs the pipeline for a resolved request that the result layer (the
    /// generation cache's payload LRU) missed, and fills the layer.
    ///
    /// # Errors
    /// Propagates expansion, synthesis and estimation failures.
    pub(crate) fn generate_resolved(
        &self,
        resolved: &Resolved<'_>,
        request: &ComponentRequest,
    ) -> PreparedPayload {
        let Resolved { imp, params, key } = resolved;
        let payload = Arc::new(self.generate_from_module(
            &imp.module,
            key.flat_key(),
            imp.name.clone(),
            imp.functions.clone(),
            params.clone(),
            imp.connection.clone(),
            request,
        )?);
        self.cache.put_result(key.clone(), payload.clone());
        Ok(payload)
    }

    /// Runs (or recalls) expansion and synthesis for a module, then the
    /// per-request sizing/estimation tail.
    #[allow(clippy::too_many_arguments)]
    fn generate_from_module(
        &self,
        module: &icdb_iif::Module,
        flat_key: FlatKey,
        implementation: String,
        functions: Vec<String>,
        params: Vec<(String, i64)>,
        connection: icdb_genus::ConnectionTable,
        request: &ComponentRequest,
    ) -> Result<GenerationPayload, IcdbError> {
        let flat = match self.cache.get_flat(&flat_key) {
            Some(flat) => flat,
            None => {
                let pairs: Vec<(&str, i64)> =
                    params.iter().map(|(n, v)| (n.as_str(), *v)).collect();
                let flat = Arc::new(icdb_iif::expand(module, &pairs, &self.library)?);
                self.cache.put_flat(flat_key.clone(), flat.clone());
                flat
            }
        };
        let options = SynthOptions::default();
        let net_key = NetKey::new(flat_key, &options, self.cells.version());
        let mapped = match self.cache.get_netlist(&net_key) {
            Some(netlist) => netlist,
            None => {
                let netlist = Arc::new(synthesize(&flat, &self.cells, &options)?);
                self.cache.put_netlist(net_key, netlist.clone());
                netlist
            }
        };
        let views = (flat.to_string(), flat.to_milo_format());
        self.finish_payload(
            (*mapped).clone(),
            implementation,
            functions,
            params,
            connection,
            Some(views),
            request,
        )
    }

    /// The per-request pipeline tail: transistor sizing against the
    /// request's loads/strategy, constraint checking, shape estimation, and
    /// rendering of every design-data view the store will hold.
    #[allow(clippy::too_many_arguments)]
    fn finish_payload(
        &self,
        mut netlist: GateNetlist,
        implementation: String,
        functions: Vec<String>,
        params: Vec<(String, i64)>,
        connection: icdb_genus::ConnectionTable,
        flat_views: Option<(String, String)>,
        request: &ComponentRequest,
    ) -> Result<GenerationPayload, IcdbError> {
        let loads = request.constraints.load_spec();
        let strategy = request.sizing_strategy();
        let sizing = size_netlist(&mut netlist, &self.cells, &loads, &strategy);
        let mut met = sizing.met;
        if let Some(bound) = request.constraints.set_up_time {
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
        let (flat_iif, milo) = match flat_views {
            Some((iif, milo)) => (Some(Arc::from(iif)), Some(Arc::from(milo))),
            None => (None, None),
        };
        let vhdl: Arc<str> = emit_netlist(&netlist, &self.cells).into();
        let vhdl_head: Arc<str> = emit_entity(&netlist).into();
        let delay_text: Arc<str> = sizing.report.to_string().into();
        let shape_text: Arc<str> = shape.to_alternative_format().into();
        Ok(GenerationPayload {
            implementation,
            functions,
            params,
            netlist,
            loads,
            report: sizing.report,
            shape,
            power_uw,
            met,
            connection,
            flat_iif,
            milo,
            vhdl,
            vhdl_head,
            delay_text,
            shape_text,
            lib_version: self.library.version(),
            cells_version: self.cells.version(),
        })
    }

    /// The mutating half of generation: names the instance (one interned
    /// allocation shared by the instance, the map key, the creation order
    /// and the return value), persists the payload's pre-rendered views,
    /// and registers the instance in the namespace.
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
        self.persist_payload(ns, &name, payload)?;
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

    /// The apply-side of [`Icdb::resize_for_load_in`].
    pub(crate) fn apply_resize_for_load(
        &mut self,
        ns: NsId,
        instance: &str,
        loads: &LoadSpec,
        clock_width: f64,
    ) -> Result<(), IcdbError> {
        // Disjoint-field borrow: the cell library is only read while the
        // namespace's instance is mutated.
        let Icdb { cells, spaces, .. } = self;
        let inst = spaces
            .get_mut(ns)?
            .instances
            .get_mut(instance)
            .ok_or_else(|| IcdbError::NotFound(format!("instance `{instance}`")))?;
        let goal = icdb_sizing::SizingGoal::clock(clock_width);
        let result = size_netlist(
            &mut inst.netlist,
            cells,
            loads,
            &icdb_sizing::Strategy::Constraints(goal),
        );
        inst.loads = loads.clone();
        inst.report = result.report;
        inst.met = result.met;
        inst.shape = estimate_shape(&inst.netlist, cells, MAX_SHAPE_STRIPS)?;
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
        if space.instances.remove(name).is_some() {
            space.instance_order.retain(|n| &**n != name);
            for suffix in INSTANCE_VIEW_SUFFIXES {
                self.files.remove(&Namespace::file_path(ns, name, suffix));
            }
            let _ = self.db.execute(&format!(
                "DELETE FROM instances WHERE name = '{}'",
                Namespace::db_name(ns, name)
            ));
        }
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

    fn persist_payload(
        &mut self,
        ns: NsId,
        name: &str,
        p: &GenerationPayload,
    ) -> Result<(), IcdbError> {
        self.db.insert(
            "instances",
            vec![
                Value::Text(Namespace::db_name(ns, name)),
                Value::Text(p.implementation.clone()),
                Value::Int(p.netlist.gates.len() as i64),
                Value::Real(p.shape.best_area().map(|a| a.area()).unwrap_or(0.0)),
                Value::Real(p.report.clock_width),
                Value::Int(i64::from(p.met)),
            ],
        )?;
        // Every view below is a pre-rendered shared blob: on the warm path
        // these writes are reference-count bumps, not string copies.
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
        Ok(())
    }
}
