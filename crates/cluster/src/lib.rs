//! # cafc-cluster
//!
//! Clustering algorithms for CAFC, generic over a [`ClusterSpace`] — an
//! abstraction of "n items with centroids and a similarity in `\[0, 1\]`".
//! The core crate instantiates the space with form pages whose similarity
//! is Equation 3 (the weighted average of per-feature-space cosines); the
//! algorithms here never see feature spaces, only similarities.
//!
//! Provided algorithms:
//!
//! * [`kmeans()`] — the paper's k-means variant (Algorithm 1): centroid
//!   assignment loop that stops when fewer than a configurable fraction of
//!   items (10 % in the paper) change cluster;
//! * [`hac()`] — hierarchical agglomerative clustering with single, complete,
//!   average and centroid linkage, supporting a non-trivial starting
//!   partition (Table 2 runs HAC seeded with hub clusters);
//! * [`seed`] — seeding strategies: random singletons, the greedy
//!   farthest-first selection over candidate clusters used by
//!   `SelectHubClusters` (Algorithm 3), and HAC-over-sample seeding (§4.3).
//!
//! k-means has one kernel: every assignment pass scores each item against
//! every centroid ([`nearest_centroid`]). An inverted term → centroid
//! index would skip no pair here: the generic terms every form page
//! carries give each page a term in common with every centroid at the
//! paper's k = 8 (DESIGN.md §17.3).

#![warn(missing_docs)]

pub mod bisect;
pub mod hac;
pub mod kmeans;
pub mod partition;
pub mod resume;
pub mod seed;
pub mod space;
pub mod validity;

pub use bisect::{bisecting_kmeans, BisectOptions};
pub use cafc_exec::ExecPolicy;
pub use cafc_obs::Obs;
pub use hac::{hac, HacOptions, Linkage};
pub use kmeans::{kmeans, nearest_centroid, KMeansOptions, KMeansOutcome};
pub use partition::Partition;
pub use resume::{hac_resumable, kmeans_resumable};
pub use seed::{greedy_distant_seeds, kmeanspp_seeds, random_singleton_seeds};
pub use space::{ClusterSpace, DenseSpace};
pub use validity::{choose_k, mean_silhouette, silhouette_of};

// Old names the benchmark harness (`perfbench/`) still calls; they go when
// its sources next change (ROADMAP item 1). Nothing else may call them.
#[doc(hidden)]
pub use kmeans_exec as kmeans_sparse_exec;
#[doc(hidden)]
pub fn kmeans_exec<S>(
    space: &S,
    seeds: &[Vec<usize>],
    opts: &KMeansOptions,
    policy: ExecPolicy,
) -> KMeansOutcome
where
    S: ClusterSpace + Sync,
    S::Centroid: Send + Sync,
{
    kmeans(space, seeds, opts, policy, &Obs::disabled())
}
#[doc(hidden)]
pub fn hac_exec<S>(
    space: &S,
    initial: &[Vec<usize>],
    opts: &HacOptions,
    policy: ExecPolicy,
) -> Partition
where
    S: ClusterSpace + Sync,
    S::Centroid: Send + Sync,
{
    hac(space, initial, opts, policy, &Obs::disabled())
}
