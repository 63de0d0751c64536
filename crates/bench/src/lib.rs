//! # nassim-bench
//!
//! Shared fixtures and the gate report for the table/figure harness
//! binaries (`src/bin/`). Every harness regenerates one table or figure
//! of the paper; see EXPERIMENTS.md at the repo root for the experiment
//! ↔ binary index and the paper-vs-measured record. The gated bins write
//! `BENCH_*.json` through [`report`], with every gate stated in [`gates`];
//! `bench_check` re-checks the written files.

pub mod fixtures;
pub mod gates;
pub mod report;

pub use fixtures::{
    construct_vendor, mapping_experiment, vendor_scale, MappingOutcome, VendorRun,
};
