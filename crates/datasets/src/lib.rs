//! # nassim-datasets
//!
//! Seeded synthetic datasets substituting for the paper's proprietary
//! inputs (manuals of four real vendors, 613 production configuration
//! files, an enterprise UDM, and expert mapping annotations). Everything
//! is deterministic given a `u64` seed, so every table in `nassim-bench`
//! reproduces bit-identically.
//!
//! The pipeline mirrors reality:
//!
//! 1. [`catalog`] — a vendor-neutral catalog of network features: command
//!    schemas with canonical templates, parameter semantics and the view
//!    hierarchy. This plays the role of "what the device actually does".
//! 2. [`style`] — four synthetic vendor identities (`cirrus`, `helix`,
//!    `norsk`, `h4c`) that render the same catalog the way Cisco, Huawei,
//!    Nokia and H3C would: different keywords for the same intent
//!    (Table 2), different manual CSS classes (Table 1), and — for
//!    `norsk` — explicit hierarchy instead of examples (Table 4 footnote).
//! 3. [`manualgen`] — HTML manual generation with *labelled* defect
//!    injection: syntax errors in CLI templates and ambiguous shared
//!    example snippets, so Validator detection can be scored exactly.
//! 4. [`configgen`] — running-device configuration files sampled from the
//!    true hierarchy with data-center-style template skew (§7.2 observes
//!    153 of 12874 templates in use).
//! 5. [`udmgen`] — a UDM whose attribute descriptions are controlled
//!    paraphrases of catalog semantics, plus the ground-truth VDM↔UDM
//!    alignment used to evaluate (and fine-tune) the Mapper.

pub mod catalog;
pub mod configgen;
pub mod corrupt;
pub mod manualgen;
pub mod revision;
pub mod style;
pub mod textcorpus;
pub mod udmgen;
pub mod words;

pub use catalog::{Catalog, CatalogCommand, CatalogParam, ViewDef};
pub use corrupt::{CorruptKind, CorruptionPlan, InjectedCorruption};
pub use manualgen::{InjectedDefect, Manual, ManualPage};
pub use revision::{apply_edit_plan, EditPlan, RevisionReport};
pub use style::{VendorStyle, VENDORS};
