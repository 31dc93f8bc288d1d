//! # cafc-corpus
//!
//! A synthetic deep-web generator substituting for the paper's data
//! acquisition (the UIUC repository, a form-focused crawler, and AltaVista
//! `link:` backlinks — none of which are available offline).
//!
//! The generator emits a full [`SyntheticWeb`]: real HTML form pages for
//! the paper's eight database domains (with gold labels recorded at
//! creation), site roots, non-searchable forms, hub/directory pages, and a
//! backlink structure — all calibrated to the corpus statistics the paper
//! reports. See `DESIGN.md` §2 for the substitution rationale: the
//! clustering pipeline consumes only parsed HTML text and link structure,
//! both of which this generator produces with the paper's measured
//! characteristics (vocabulary overlap between Music/Movie, the Table-1
//! form-size/page-size anticorrelation, ~69 % homogeneous hub clusters,
//! >15 % backlink-less pages).
//!
//! ```
//! use cafc_corpus::{generate, CorpusConfig};
//!
//! let web = generate(&CorpusConfig::small(1));
//! assert_eq!(web.form_pages.len(), 80);
//! // Every form page carries real, parseable HTML:
//! let html = web.graph.html(web.form_pages[0].page).unwrap();
//! assert_eq!(cafc_html::extract_forms(&cafc_html::parse(html)).len(), 1);
//! ```

#![warn(missing_docs)]

pub mod domain;
pub mod export;
pub mod formgen;
pub mod mutate;
pub mod pagegen;
pub mod shard;
pub mod stats;
pub mod text_gen;
pub mod web;

pub use domain::{Domain, GENERIC_TERMS};
pub use export::{export_web, load_web, LoadedWeb, ManifestPage};
pub use formgen::{LabelStyle, NonSearchableKind};
pub use mutate::{mutate_page, page_rng, Mutation};
pub use shard::{generate_page, generate_shard, generate_sharded, ShardedCorpusConfig};
pub use stats::{count_terms, table1, PageTermCounts, Table1Row};
pub use web::{generate, CorpusConfig, FormPageRecord, SyntheticWeb};

// The old name the benchmark harness (`perfbench/`) still calls; it goes
// when its sources next change (ROADMAP item 1). Nothing else may call it.
#[doc(hidden)]
pub fn generate_sharded_exec(
    config: &ShardedCorpusConfig,
    policy: cafc_exec::ExecPolicy,
) -> Vec<Vec<String>> {
    generate_sharded(config, policy)
}
