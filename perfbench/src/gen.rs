//! Seeded request streams for the three workloads.
//!
//! Request `i` of connection `c` is a pure function of `(seed, c, i)`, so
//! a stream never has to be materialised up front and the same seed
//! always yields byte-identical request lines. The daemon only ever sees
//! these lines.

use nassim_datasets::catalog::Catalog;
use nassim_datasets::words::{ATTR_WORDS, FEATURE_WORDS, OBJECT_WORDS};
use nassim_datasets::{manualgen, style};
use nassim_mapper::{Context, RetrievalMode};
use nassim_serve::Request;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Top-k every `query-mapping` request asks for.
pub const K: usize = 10;
/// Distinct contexts a controller re-asks about on `query_catalog`.
/// The pool size and the skew below are assumptions, not measurements:
/// no trace of controller queries was available to draw them from.
const CATALOG_POOL: usize = 64;
/// Zipf exponent of the draw over that pool, the popularity skew commonly
/// fitted to web request streams (Breslau et al., "Web caching and
/// Zipf-like distributions", INFOCOM 1999): a few parameters are asked
/// about far more often than the rest.
const CATALOG_ZIPF_S: f64 = 1.0;
/// `query_udm_scale` retrieval modes per ten requests: ann, the mode a
/// large UDM is served in, for most, exact and quantized for the rest.
/// An assumed mix: ann sets the median, exact the 90th percentile.
const ANN_IN_TEN: u8 = 7;
const EXACT_IN_TEN: u8 = 2;
/// The `submit_journaled` manual pool: this many manuals, of page counts
/// spread evenly on a log scale from [`MIN_PAGES`] to [`MAX_PAGES`], the
/// four vendor styles taking turns along the sizes. An assumed mix: no
/// size distribution of vendor manuals was available to draw from, so
/// each size step gets the same share.
pub const MANUAL_POOL: usize = 24;
/// The smallest manual is the base catalog's.
const MIN_PAGES: usize = BASE_PAGES;
const MAX_PAGES: usize = 1_500;
/// Pages of `Catalog::base()` plus its preface; each procedural command
/// adds about 1.126 pages (every eighth opens a view of its own).
const BASE_PAGES: usize = 82;
const PAGES_PER_EXTRA: f64 = 1.126;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    QueryCatalog,
    QueryUdmScale,
    SubmitJournaled,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::QueryCatalog,
        Workload::QueryUdmScale,
        Workload::SubmitJournaled,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::QueryCatalog => "query_catalog",
            Workload::QueryUdmScale => "query_udm_scale",
            Workload::SubmitJournaled => "submit_journaled",
        }
    }

    /// Closed-loop connections (one generator thread each): the SDN
    /// controller and the onboarding tooling on the query workloads, the
    /// onboarding tooling alone on the submit workload.
    pub fn connections(self) -> usize {
        match self {
            Workload::SubmitJournaled => 1,
            _ => 2,
        }
    }

    /// Warm-up requests per connection, answered and checked but kept
    /// out of the latency samples.
    pub fn warmup(self) -> u64 {
        match self {
            Workload::SubmitJournaled => 2,
            _ => 8,
        }
    }
}

/// One generated manual: the vendor and its `(url, html)` pages.
pub struct ManualInput {
    pub vendor: String,
    pub pages: Vec<(String, String)>,
}

/// One generated request plus what the oracle and the trace need to know
/// about it without re-parsing the line.
pub struct Item {
    pub request: Request,
    /// Identity of the request's input: the context for queries, the
    /// manual for submissions. Equal keys mean a repeated input.
    pub input_key: u64,
    /// Index into [`Generator::manuals`] for submissions.
    pub manual: Option<usize>,
}

pub struct Generator {
    workload: Workload,
    seed: u64,
    catalog_pool: Vec<Context>,
    zipf_cdf: Vec<f64>,
    pub manuals: Vec<Arc<ManualInput>>,
}

/// SplitMix64 finaliser over the stream coordinates, so neighbouring
/// `(seed, conn, i)` triples seed unrelated generators.
fn mix(parts: &[u64]) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for &p in parts {
        x ^= p;
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
    }
    x
}

fn hash_of(value: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

impl Generator {
    /// Build the generator's seeded input pools: the catalog context pool
    /// and its Zipf table, or the manual pool.
    pub fn new(workload: Workload, seed: u64) -> Generator {
        let mut generator = Generator {
            workload,
            seed,
            catalog_pool: Vec::new(),
            zipf_cdf: Vec::new(),
            manuals: Vec::new(),
        };
        match workload {
            Workload::QueryCatalog => generator.build_catalog_pool(),
            Workload::QueryUdmScale => {}
            Workload::SubmitJournaled => generator.build_manuals(),
        }
        generator
    }

    /// Parameter contexts shaped like the mapper's VDM-side context
    /// (token, template, parameter info, view, function), drawn from the
    /// catalog the daemon serves.
    fn build_catalog_pool(&mut self) {
        let catalog = Catalog::base();
        let mut all: Vec<Context> = catalog
            .commands
            .iter()
            .flat_map(|cmd| {
                cmd.params.iter().map(move |p| Context {
                    sequences: vec![
                        p.name.clone(),
                        cmd.template.clone(),
                        p.description.clone(),
                        cmd.view.clone(),
                        cmd.func.clone(),
                    ],
                })
            })
            .collect();
        all.shuffle(&mut StdRng::seed_from_u64(mix(&[self.seed, 1])));
        all.truncate(CATALOG_POOL);
        let weights: Vec<f64> = (0..all.len())
            .map(|r| 1.0 / ((r + 1) as f64).powf(CATALOG_ZIPF_S))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        self.zipf_cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        self.catalog_pool = all;
    }

    /// The manual pool: [`MANUAL_POOL`] sizes from [`manual_pages`], with
    /// vendors taking turns along them, so every seed submits the same
    /// size and vendor mix; the seed picks the manuals' content (including
    /// where the generator's default defect rates inject errors) and the
    /// order. Each submission is a new journaled job with its own store,
    /// so nothing in the daemon is shared between jobs of the same manual.
    fn build_manuals(&mut self) {
        let vendors = style::vendors();
        self.manuals = (0..MANUAL_POOL)
            .map(|j| {
                let pages = manual_pages(j);
                let extra = ((pages - BASE_PAGES) as f64 / PAGES_PER_EXTRA).round() as usize;
                let st = &vendors[j % vendors.len()];
                let manual = manualgen::generate(
                    st,
                    &Catalog::with_scale(extra),
                    &manualgen::GenOptions {
                        seed: mix(&[self.seed, 3, j as u64]),
                        ..Default::default()
                    },
                );
                Arc::new(ManualInput {
                    vendor: st.name.to_string(),
                    pages: manual.pages.into_iter().map(|p| (p.url, p.html)).collect(),
                })
            })
            .collect();
    }

    /// Request `i` of connection `conn`.
    pub fn item(&self, conn: usize, i: u64) -> Item {
        let mut rng = StdRng::seed_from_u64(mix(&[self.seed, 4, conn as u64, i]));
        match self.workload {
            Workload::QueryCatalog => {
                let u: f64 = rng.gen();
                let rank = self.zipf_cdf.partition_point(|&c| c < u);
                let ctx = &self.catalog_pool[rank.min(self.catalog_pool.len() - 1)];
                query_item(ctx.sequences.clone(), None)
            }
            Workload::QueryUdmScale => {
                let pick =
                    |rng: &mut StdRng, words: &[&'static str]| words[rng.gen_range(0..words.len())];
                let feat = pick(&mut rng, FEATURE_WORDS);
                let obj = pick(&mut rng, OBJECT_WORDS);
                let attr = pick(&mut rng, ATTR_WORDS);
                let attr2 = pick(&mut rng, ATTR_WORDS);
                let sequences = vec![
                    attr.to_string(),
                    format!("{feat} {obj} {attr} <{attr}-value>"),
                    format!("the {attr} of the {obj} in {attr2} units"),
                    format!("{feat} {obj} view"),
                    format!("set the {feat} {obj} {attr}"),
                ];
                let mode = match rng.gen_range(0..10u8) {
                    d if d < ANN_IN_TEN => RetrievalMode::Ann { probes: 0 },
                    d if d < ANN_IN_TEN + EXACT_IN_TEN => RetrievalMode::Exact,
                    _ => RetrievalMode::Quantized,
                };
                query_item(sequences, Some(mode))
            }
            Workload::SubmitJournaled => {
                let m = self.manual_index(i);
                let manual = &self.manuals[m];
                Item {
                    request: Request::SubmitManual {
                        vendor: manual.vendor.clone(),
                        pages: manual.pages.clone(),
                        deadline_ms: None,
                        job: Some(job_id(self.seed, conn, i)),
                    },
                    input_key: m as u64,
                    manual: Some(m),
                }
            }
        }
    }

    /// Submission `i` walks the pool in a fresh seeded order every
    /// [`MANUAL_POOL`] submissions. A cycle is four blocks, each taking one
    /// manual from every run of four neighbouring sizes, so the unfinished
    /// cycle a window ends in has close to the pool's size mix whatever
    /// the seed.
    fn manual_index(&self, i: u64) -> usize {
        const BLOCKS: usize = 4;
        let cycle = i / MANUAL_POOL as u64;
        let mut rng = StdRng::seed_from_u64(mix(&[self.seed, 5, cycle]));
        let mut blocks: Vec<Vec<usize>> = vec![Vec::new(); BLOCKS];
        for first in (0..MANUAL_POOL).step_by(BLOCKS) {
            let mut run: Vec<usize> = (first..first + BLOCKS).collect();
            run.shuffle(&mut rng);
            for (block, m) in blocks.iter_mut().zip(run) {
                block.push(m);
            }
        }
        let order: Vec<usize> = blocks
            .into_iter()
            .flat_map(|mut block| {
                block.shuffle(&mut rng);
                block
            })
            .collect();
        order[(i % MANUAL_POOL as u64) as usize]
    }
}

/// Page count of pool manual `j`: [`MIN_PAGES`] times an equal ratio per
/// step, reaching [`MAX_PAGES`] at the last manual.
fn manual_pages(j: usize) -> usize {
    let ratio = MAX_PAGES as f64 / MIN_PAGES as f64;
    let step = j as f64 / (MANUAL_POOL - 1) as f64;
    (MIN_PAGES as f64 * ratio.powf(step)).round() as usize
}

fn query_item(sequences: Vec<String>, mode: Option<RetrievalMode>) -> Item {
    let input_key = hash_of(&sequences);
    Item {
        request: Request::QueryMapping {
            sequences,
            k: K,
            deadline_ms: None,
            mode,
        },
        input_key,
        manual: None,
    }
}

/// A job id no earlier submission of the run used.
pub fn job_id(seed: u64, conn: usize, i: u64) -> String {
    format!("pb-{seed}-{conn}-{i}")
}

/// Share of `keys` equal to a key earlier in the sequence.
pub fn repeat_share(keys: &[u64]) -> f64 {
    if keys.is_empty() {
        return 0.0;
    }
    let mut seen = std::collections::HashSet::new();
    let repeats = keys.iter().filter(|k| !seen.insert(**k)).count();
    repeats as f64 / keys.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first `n` request lines of every connection, concatenated.
    fn stream_bytes(workload: Workload, seed: u64, n: u64) -> Vec<u8> {
        let generator = Generator::new(workload, seed);
        let mut out = Vec::new();
        for conn in 0..workload.connections() {
            for i in 0..n {
                out.extend_from_slice(generator.item(conn, i).request.to_line().as_bytes());
                out.push(b'\n');
            }
        }
        out
    }

    #[test]
    fn same_seed_gives_a_byte_identical_stream() {
        for workload in Workload::ALL {
            let n = if workload == Workload::SubmitJournaled {
                30
            } else {
                500
            };
            assert_eq!(
                stream_bytes(workload, 7, n),
                stream_bytes(workload, 7, n),
                "{}",
                workload.name()
            );
        }
    }

    #[test]
    fn different_seed_gives_a_different_stream() {
        for workload in Workload::ALL {
            let n = if workload == Workload::SubmitJournaled {
                30
            } else {
                500
            };
            assert_ne!(
                stream_bytes(workload, 7, n),
                stream_bytes(workload, 8, n),
                "{}",
                workload.name()
            );
        }
    }

    #[test]
    fn catalog_queries_repeat_and_udm_queries_mostly_do_not() {
        let keys = |workload: Workload| -> Vec<u64> {
            let generator = Generator::new(workload, 11);
            (0..1000).map(|i| generator.item(0, i).input_key).collect()
        };
        assert!(repeat_share(&keys(Workload::QueryCatalog)) > 0.5);
        assert!(repeat_share(&keys(Workload::QueryUdmScale)) < 0.1);
    }

    #[test]
    fn manuals_span_the_page_range_and_every_vendor() {
        let generator = Generator::new(Workload::SubmitJournaled, 3);
        let pages: Vec<usize> = generator.manuals.iter().map(|m| m.pages.len()).collect();
        assert!(pages.iter().any(|&p| p < 100), "{pages:?}");
        assert!(pages.iter().any(|&p| p > 1_400), "{pages:?}");
        assert_eq!(manual_pages(0), MIN_PAGES);
        assert_eq!(manual_pages(MANUAL_POOL - 1), MAX_PAGES);
        let vendors: std::collections::BTreeSet<&str> = generator
            .manuals
            .iter()
            .map(|m| m.vendor.as_str())
            .collect();
        assert_eq!(vendors.len(), style::vendors().len());
    }
}
