//! Experiment harness for the `latent-truth` workspace.
//!
//! The `repro` binary (in `src/bin/repro.rs`) regenerates every table and
//! figure of the paper's evaluation (Section 6); this library holds the
//! pieces:
//!
//! * [`adapters`] — [`ltm_baselines::TruthMethod`] implementations for the
//!   LTM family (LTM, LTMinc, LTMpos) so the harness treats all ten
//!   methods uniformly;
//! * [`suite`] — construction of the simulated book/movie datasets and
//!   entity-sampled subsets, with one shared set of seeds;
//! * [`experiments`] — one module per table/figure, each returning a
//!   serialisable result and a rendered text table;
//! * [`goldens`] — the fixed-seed golden-accuracy computation shared by
//!   the workspace regression test and `perf --emit-goldens`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod adapters;
pub mod experiments;
pub mod goldens;
pub mod suite;

pub use adapters::{LtmIncMethod, LtmMethod, LtmPosMethod};
pub use goldens::{compute_goldens, GoldenRecord, GoldenReport};
pub use suite::Suite;
