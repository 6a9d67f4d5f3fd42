//! # icdb-estimate — delay and area/shape estimators
//!
//! "Layout tools can take hours to generate a component layout […] To avoid
//! these problems during design exploration, the database must have tools
//! that can quickly estimate a component's delay, area, shape" (paper §1).
//! This crate is that pair of estimators:
//!
//! * [`estimate_delay`] — the §4.4.1 linear delay model
//!   (`Trans_no·X + Y + fanout_no·Z`, path sums) producing the §3.3 report:
//!   minimum clock width `CW`, clock-to-output delays `WD`, setup times
//!   `SD`. It reads a [`TimingGraph`], which transistor sizing also keeps
//!   and re-times one gate at a time;
//! * [`estimate_area`] / [`estimate_shape`] — the §4.4.2 strip model:
//!   width `(X+Y)/2` from random-balanced and best placements, height from
//!   transistor rows plus wire-length-derived routing tracks; sweeping the
//!   strip count yields the component's **shape function** (Fig. 6).
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use icdb_estimate::{estimate_delay, estimate_shape, LoadSpec};
//! let m = icdb_iif::parse(
//!     "NAME: R; INORDER: D, CLK; OUTORDER: Q; { Q = D @(~r CLK); }")?;
//! let flat = icdb_iif::expand(&m, &[], &icdb_iif::NoModules)?;
//! let lib = icdb_cells::Library::standard();
//! let nl = icdb_logic::synthesize(&flat, &lib, &Default::default())?;
//! let report = estimate_delay(&nl, &lib, &LoadSpec::uniform(10.0))?;
//! assert!(report.clock_width > 0.0);
//! let shape = estimate_shape(&nl, &lib, 4)?;
//! assert!(!shape.alternatives.is_empty());
//! # Ok(())
//! # }
//! ```

#![deny(rustdoc::broken_intra_doc_links)]

mod area;
mod delay;
mod power;

pub use area::{estimate_area, estimate_shape, track_utilization, ShapeAlternative, ShapeFunction};
pub use delay::{estimate_delay, DelayReport, EstimateError, LoadSpec, Term, TimingGraph};
pub use power::{estimate_power, PowerReport, PowerSpec};
