//! # icdb — An Intelligent Component Database for Behavioral Synthesis
//!
//! A full Rust reproduction of Chen & Gajski's ICDB (UC Irvine TR 89-39 /
//! DAC 1990): a *component server* that generates micro-architecture
//! components (counters, adders, ALUs, registers, …) on demand from
//! parameterized **IIF** descriptions, and answers synthesis tools' queries
//! about delay, area, shape functions, port connections and layouts through
//! the **CQL** command interface.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | role (paper section) |
//! |---|---|---|
//! | [`core`] | `icdb-core` | the component server itself (§2, §4, App. B) |
//! | [`iif`] | `icdb-iif` | the IIF language: parser + macro expander (§3.1, App. A) |
//! | [`cql`] | `icdb-cql` | Component Query Language commands/slots (§3.2, App. B) |
//! | [`logic`] | `icdb-logic` | logic optimizer + technology mapper (MILO, §4.3.1) |
//! | [`cells`] | `icdb-cells` | characterized basic-cell library (§4.4) |
//! | [`sizing`] | `icdb-sizing` | transistor sizing (TILOS-style, §4.3) |
//! | [`estimate`] | `icdb-estimate` | delay + area/shape estimators (§4.4) |
//! | [`explore`] | `icdb-explore` | design-space exploration: Pareto fronts + constrained selection (§1, §3.2.2 `strategy:`) |
//! | [`layout`] | `icdb-layout` | strip layout, CIF, floorplanner (LES, §4.3.2) |
//! | [`sim`] | `icdb-sim` | gate-level verification simulator (§4.3) |
//! | [`vhdl`] | `icdb-vhdl` | structural VHDL emission/parsing (§2.2) |
//! | [`store`] | `icdb-store` | embedded relational + file stores (INGRES/UNIX, §2.3) |
//! | [`genus`] | `icdb-genus` | GENUS component/function taxonomy (App. B §2–3) |
//! | [`obs`] | `icdb-obs` | metrics registry, Prometheus exposition, structured logging |
//! | [`net`] | (this crate) | the `icdbd` TCP server + client over CQL |
//!
//! For concurrent multi-client use, wrap the server in an
//! [`IcdbService`] (sessions get isolated instance namespaces over one
//! shared knowledge base and generation cache), or run the `icdbd`
//! binary and connect with [`net::IcdbClient`].
//!
//! ## Quickstart
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use icdb::{ComponentRequest, Icdb};
//!
//! let mut icdb = Icdb::new();
//! let counter = icdb.request_component(
//!     &ComponentRequest::by_component("counter")
//!         .attribute("size", "5")
//!         .attribute("up_or_down", "3")
//!         .clock_width(30.0),
//! )?;
//! println!("{}", icdb.delay_string(&counter)?);   // CW …, WD Q[4] …, SD DWUP …
//! println!("{}", icdb.shape_string(&counter)?);   // Alternative=1 width=… height=…
//! # Ok(())
//! # }
//! ```

#![deny(rustdoc::broken_intra_doc_links)]

pub use icdb_core::{
    Applied, CacheStats, ComponentImpl, ComponentInstance, ComponentRequest, Constraints,
    DesignManager, DesignPoint, ExplorationReport, ExploreSpec, GenCache, GenericComponentLibrary,
    Icdb, IcdbError, IcdbService, LayerStats, MutationEvent, NsId, Objective, ParamSpec,
    PersistStats, ReplSnapshot, RequestKey, Session, Source, TargetLevel,
};

mod event_loop;
pub mod net;
pub mod repl;

/// The component server (re-export of `icdb-core`).
pub mod core {
    pub use icdb_core::*;
}

/// The IIF language (re-export of `icdb-iif`).
pub mod iif {
    pub use icdb_iif::*;
}

/// The Component Query Language (re-export of `icdb-cql`).
pub mod cql {
    pub use icdb_cql::*;
}

/// Logic optimization and technology mapping (re-export of `icdb-logic`).
pub mod logic {
    pub use icdb_logic::*;
}

/// The characterized cell library (re-export of `icdb-cells`).
pub mod cells {
    pub use icdb_cells::*;
}

/// Transistor sizing (re-export of `icdb-sizing`).
pub mod sizing {
    pub use icdb_sizing::*;
}

/// Delay and area/shape estimation (re-export of `icdb-estimate`).
pub mod estimate {
    pub use icdb_estimate::*;
}

/// Design-space exploration and Pareto selection (re-export of
/// `icdb-explore`; the sweep driver itself is [`crate::Icdb::explore`]).
pub mod explore {
    pub use icdb_explore::*;
}

/// Strip layout, CIF and floorplanning (re-export of `icdb-layout`).
pub mod layout {
    pub use icdb_layout::*;
}

/// Gate-level simulation (re-export of `icdb-sim`).
pub mod sim {
    pub use icdb_sim::*;
}

/// Structural VHDL (re-export of `icdb-vhdl`).
pub mod vhdl {
    pub use icdb_vhdl::*;
}

/// Storage layer (re-export of `icdb-store`).
pub mod store {
    pub use icdb_store::*;
}

/// GENUS taxonomy (re-export of `icdb-genus`).
pub mod genus {
    pub use icdb_genus::*;
}

/// Observability: metrics registry, Prometheus exposition, structured
/// logging (re-export of `icdb-obs`).
pub mod obs {
    pub use icdb_obs::*;
}
