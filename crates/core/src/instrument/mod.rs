//! `EILIDinst` — the compile-time instrumenter.
//!
//! The instrumenter analyses the application assembly ([`analysis`]),
//! rewrites it with the paper's instrumentation templates ([`rewrite`](mod@rewrite)),
//! and drives the iterated-build pipeline of Figure 2 ([`pipeline`]). The
//! [`platform`] module records the per-platform control-flow mnemonics of
//! Table II, and [`report`] collects statistics and the compile-time
//! warnings discussed in §V and §VII of the paper.

pub mod analysis;
pub mod pipeline;
pub mod platform;
pub mod report;
pub mod rewrite;

pub use analysis::{analyze, AppAnalysis, CallSite, CallTarget};
pub use pipeline::{BuildArtifacts, BuildMetrics, InstrumentedBuild};
pub use platform::{Platform, PlatformIsa};
pub use report::{InstrumentationReport, Warning};
pub use rewrite::{patch_return_addresses, rewrite, PatchPoint, RewrittenProgram};
