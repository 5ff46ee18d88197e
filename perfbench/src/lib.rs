//! Closed-loop end-to-end benchmark of the EILID workspace.
//!
//! Closed-loop workloads, each one operator with one op outstanding:
//! `sweep` (wire attestation sweeps) and `cfi` (the paper's device
//! layer: EILID-protected runs and injected control-flow attacks). A
//! third, `rollout` (staged OTA campaigns over the wire), runs only in
//! the traced ledger until it is steady enough to list. A separate traced run
//! replays each layer's public calls on the ops' own inputs and diffs
//! the counters the program exports, giving a per-layer ledger. See
//! `README.md` beside this crate.

pub mod cfi;
pub mod common;
mod plane;
pub mod rollout;
pub mod sweep;
