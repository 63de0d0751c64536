//! # nassim-corpus
//!
//! The data model layer of NAssim:
//!
//! * [`format`] — the vendor-independent corpus format of Table 3 /
//!   Figure 3 of the paper: a JSON dictionary with the five keys `CLIs`,
//!   `FuncDef`, `ParentViews`, `ParaDef` and `Examples`, plus the
//!   Appendix-B completeness/type-restriction/self-check tests that the
//!   TDD parser workflow runs against every parsed entry.
//! * [`vdm`] — the Vendor-specific Device Model: a semantics-enhanced
//!   tree whose nodes are CLI command templates (linked to their corpus
//!   entries) and whose edges are the configuration hierarchy (§3.1).
//! * [`udm`] — the Unified Device Model of the SDN controller: a tree of
//!   configuration attributes annotated with brief context (§3.2).
//!
//! Everything here is plain serde-serialisable data; algorithms that build
//! or consume these structures live in `nassim-parser`, `nassim-validator`
//! and `nassim-mapper`.

pub mod format;
pub mod hash;
pub mod memo;
pub mod udm;
pub mod vdm;

pub use format::{CorpusCheck, CorpusEntry, CorpusViolation, ParaDef};
pub use hash::{fnv1a_bytes, fnv1a_str, Fnv1a};
pub use memo::{RenderedSection, SectionMemo};
pub use udm::{Udm, UdmAttribute, UdmNodeId};
pub use vdm::{Vdm, VdmNode, VdmNodeId};
