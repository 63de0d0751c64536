//! The daemon's served artifacts: a catalog of assimilated VDMs, the
//! network-wide UDM, and a [`Mapper`] (sharded DL scan) built through an
//! [`ArtifactStore`]'s embedding cache.
//!
//! [`ServeState::build`] assimilates each catalog vendor **through the
//! store** ([`nassim::assimilate_incremental`]), so a daemon restarted
//! against a persisted store warm-starts: clean artifacts are cache
//! hits, and a partially corrupt store degrades gracefully via
//! [`ArtifactStore::load_lossy`] — dropped entries surface as startup
//! diagnostics and are re-derived, never trusted. Because artifacts are
//! content-addressed and the build is deterministic, a warm-started
//! daemon serves **byte-identical** responses to a cold-started one —
//! the crash-recovery property `tests/serve_drain.rs` asserts.

use nassim::{assimilate_incremental, ArtifactStore};
use nassim_corpus::hash::fnv1a_str;
use nassim_corpus::Vdm;
use nassim_datasets::catalog::Catalog;
use nassim_datasets::{manualgen, style, udmgen};
use nassim_diag::{Diagnostic, NassimError, Stage};
use nassim_html::IngestBudget;
use nassim_mapper::context::vdm_param_refs;
use nassim_mapper::{Embedder, Mapper, RetrievalMode};
use nassim_parser::parser_for;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Seed for the demo catalog's generated manuals and UDM — fixed so
/// every daemon (and the chaos harness' fault-free baseline) serves the
/// same artifacts.
pub const DEMO_SEED: u64 = 20220822;

/// Identifier of the demo embedder in the store's embedding cache.
pub const DEMO_EMBEDDER_ID: &str = "demo-fnv-bag-64";

/// A cheap deterministic sentence embedder (FNV-hashed bag of words),
/// standing in for the NetBERT encoder where serving latency — not
/// mapping quality — is under test.
#[derive(Debug, Clone)]
pub struct DemoEmbedder {
    dim: usize,
}

impl DemoEmbedder {
    pub fn new(dim: usize) -> DemoEmbedder {
        DemoEmbedder { dim: dim.max(1) }
    }
}

impl Default for DemoEmbedder {
    fn default() -> DemoEmbedder {
        DemoEmbedder::new(64)
    }
}

impl Embedder for DemoEmbedder {
    fn embed(&self, text: &str) -> Vec<f32> {
        let mut v = vec![0.0f32; self.dim];
        for word in text.split_whitespace() {
            v[(fnv1a_str(word) % self.dim as u64) as usize] += 1.0;
        }
        v
    }
}

/// One served vendor: its assimilated VDM plus the summary counts the
/// `catalog`/`inspect` ops report.
#[derive(Debug, Clone)]
pub struct VendorEntry {
    pub vendor: String,
    pub pages: usize,
    pub nodes: usize,
    pub params: usize,
    pub vdm: Arc<Vdm>,
}

/// Everything the daemon serves, immutable once built (requests share it
/// behind an `Arc`; the `Mapper` clones cheaply via its `Arc` index).
pub struct ServeState {
    pub vendors: BTreeMap<String, VendorEntry>,
    pub mapper: Mapper,
    /// Salvage reports from a lossy warm start (empty on cold start or a
    /// pristine store).
    pub startup_diagnostics: Vec<Diagnostic>,
    /// Parse-artifact cache hits during the catalog build — non-zero
    /// exactly when a persisted store warmed the start.
    pub warm_page_hits: usize,
    /// Ann-cache traffic during the build: a warm start from a persisted
    /// store reports a hit (the k-means build was skipped), a cold start
    /// a miss. `health` reports these as the index memo hit rate.
    pub ann_memo_hits: usize,
    pub ann_memo_misses: usize,
}

impl ServeState {
    /// The mapper answering a `query-mapping` request: the default
    /// (exact) mapper, or a cheap clone in the requested mode — the
    /// sub-linear structures were built once at startup, so a mode
    /// switch is an `Arc` bump, never an index build.
    pub fn mapper_for(&self, mode: Option<RetrievalMode>) -> Mapper {
        match mode {
            None => self.mapper.clone(),
            Some(mode) => self.mapper.with_retrieval_mode(mode),
        }
    }
}

/// How to build the daemon's state.
#[derive(Debug, Clone)]
pub struct StateOptions {
    /// Catalog vendors to assimilate and serve.
    pub vendors: Vec<String>,
    /// Persisted store to warm-start from (loaded lossily) and to save
    /// back to on drain. `None` = in-memory only.
    pub store_path: Option<PathBuf>,
}

impl Default for StateOptions {
    fn default() -> StateOptions {
        StateOptions {
            vendors: vec!["cirrus".to_string()],
            store_path: None,
        }
    }
}

impl StateOptions {
    /// The full four-vendor demo catalog.
    pub fn full_catalog() -> StateOptions {
        StateOptions {
            vendors: style::vendors().iter().map(|s| s.name.to_string()).collect(),
            store_path: None,
        }
    }

    pub fn with_store(mut self, path: impl Into<PathBuf>) -> StateOptions {
        self.store_path = Some(path.into());
        self
    }
}

impl ServeState {
    /// Build the served artifacts: load (lossily) or create the store,
    /// assimilate every catalog vendor through it, generate the demo UDM
    /// and construct the mapper through the store's embedding cache.
    /// Returns the state plus the store, so the daemon can persist it
    /// again on drain.
    pub fn build(opts: &StateOptions) -> Result<(ServeState, ArtifactStore), NassimError> {
        let mut startup_diagnostics = Vec::new();
        let mut store = match &opts.store_path {
            Some(path) if path.exists() => {
                let (store, diags) = ArtifactStore::load_lossy(path)?;
                startup_diagnostics = diags;
                store
            }
            _ => ArtifactStore::new(),
        };

        let catalog = Catalog::base();
        let budget = IngestBudget::default();
        let mut vendors = BTreeMap::new();
        for name in &opts.vendors {
            let st = style::vendor(name)?;
            let manual = manualgen::generate(
                &st,
                &catalog,
                &manualgen::GenOptions {
                    seed: DEMO_SEED,
                    syntax_error_rate: 0.0,
                    ambiguity_rate: 0.0,
                    ..Default::default()
                },
            );
            let parser = parser_for(name)?;
            let pages: Vec<(&str, &str)> = manual
                .pages
                .iter()
                .map(|p| (p.url.as_str(), p.html.as_str()))
                .collect();
            let a = assimilate_incremental(parser.as_ref(), pages, &budget, &mut store)?;
            let vdm = Arc::new(a.build.vdm);
            vendors.insert(
                name.clone(),
                VendorEntry {
                    vendor: name.clone(),
                    pages: manual.pages.len(),
                    nodes: vdm.walk().len(),
                    params: vdm_param_refs(&vdm).len(),
                    vdm,
                },
            );
        }

        let udm = udmgen::generate(
            &catalog,
            &udmgen::UdmGenOptions {
                seed: DEMO_SEED,
                paraphrase_strength: 0.6,
                distractors: 8,
                synthetic_leaves: 0,
            },
        );
        let mut mapper = store.mapper_dl(
            &udm.udm,
            Arc::new(DemoEmbedder::default()),
            DEMO_EMBEDDER_ID,
        );
        // Build the sub-linear retrieval structures once, through the
        // store's ann cache (a persisted store warm-starts them), then
        // restore the default mode — per-request `mode` overrides are
        // then clone-and-flip, sharing the built index.
        let default_mode = mapper.retrieval_mode();
        mapper.set_retrieval_mode_cached(RetrievalMode::Quantized, &mut store.ann);
        mapper.set_retrieval_mode(default_mode);
        let (ann_memo_hits, ann_memo_misses) = (store.ann.hits, store.ann.misses);
        let warm_page_hits = store.stats.page_hits;
        if warm_page_hits > 0 {
            startup_diagnostics.push(Diagnostic::note(
                Stage::Internal,
                format!("warm start: {warm_page_hits} parse artifacts reused from the store"),
            ));
        }
        Ok((
            ServeState {
                vendors,
                mapper,
                startup_diagnostics,
                warm_page_hits,
                ann_memo_hits,
                ann_memo_misses,
            },
            store,
        ))
    }

    /// Persist the store for the next (warm) start.
    pub fn save_store(store: &ArtifactStore, path: &Path) -> Result<(), NassimError> {
        store.save(path)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn demo_embedder_is_deterministic() {
        let e = DemoEmbedder::default();
        assert_eq!(e.embed("bgp as-number"), e.embed("bgp as-number"));
        assert_eq!(e.embed("bgp as-number").len(), 64);
        assert_ne!(e.embed("bgp as-number"), e.embed("vlan id"));
    }

    #[test]
    fn demo_embedder_golden_vector() {
        // The daemon and its oracles share this embedder, so no parity
        // test would notice a changed word hash; pin one sentence.
        let v = DemoEmbedder::default().embed("interface vlan 10 ip address bgp as-number vlan");
        let mut want = vec![0.0f32; 64];
        // One slot per word; "vlan" appears twice.
        for i in [16, 17, 28, 28, 34, 36, 51, 60] {
            want[i] += 1.0;
        }
        assert_eq!(v, want);
    }

    #[test]
    fn builds_the_default_catalog() {
        let (state, store) = ServeState::build(&StateOptions::default()).unwrap();
        assert_eq!(state.vendors.len(), 1);
        let entry = state.vendors.get("cirrus").unwrap();
        assert!(entry.pages > 0);
        assert!(entry.nodes > 0);
        assert!(entry.params > 0);
        assert!(state.mapper.candidate_count() > 0);
        assert_eq!(state.warm_page_hits, 0, "cold build has no hits");
        assert_eq!(store.stats.page_misses, entry.pages);
    }

    #[test]
    fn warm_start_reuses_persisted_artifacts() {
        let dir = std::env::temp_dir().join("nassim-serve-warm-start");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.json");
        std::fs::remove_file(&path).ok();
        let opts = StateOptions::default().with_store(&path);
        let (cold, store) = ServeState::build(&opts).unwrap();
        ServeState::save_store(&store, &path).unwrap();
        let (warm, _) = ServeState::build(&opts).unwrap();
        assert!(warm.warm_page_hits > 0, "persisted artifacts not reused");
        // Warm-started artifacts are identical to cold-built ones.
        let c = cold.vendors.get("cirrus").unwrap();
        let w = warm.vendors.get("cirrus").unwrap();
        assert_eq!(c.vdm, w.vdm);
        assert_eq!(
            cold.mapper.candidate_count(),
            warm.mapper.candidate_count()
        );
        std::fs::remove_file(&path).ok();
    }
}
