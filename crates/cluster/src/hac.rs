//! Hierarchical agglomerative clustering (§4.3 of the paper).
//!
//! "HAC starts with the individual documents as initial clusters and, at
//! each step, combines the closest pair of clusters." Table 2 also runs
//! HAC *from hub clusters*, so [`hac`] accepts an arbitrary starting
//! partition. Cluster distance is `1 − similarity` under the chosen
//! [`Linkage`].
//!
//! Cost, for `g` starting groups over `n` items:
//!
//! * **Centroid** linkage caches the g(g−1)/2 centroid similarities and,
//!   after each merge, re-evaluates only the merged cluster's g−2 pairs:
//!   O(g²) similarity evaluations in all, plus an O(g²) scan of cached
//!   values per merge (O(g³) comparisons). Centroid linkage is not
//!   reducible, so the nearest-neighbour-chain speed-up does not apply.
//! * **Single, complete and average** linkage build the group distance
//!   matrix from O(n²) item similarities, then merge by O(g²) scans and
//!   O(g) Lance–Williams row updates: O(g³) comparisons in all.

use crate::partition::Partition;
use crate::resume::HacCheckpointer;
use crate::space::ClusterSpace;
use cafc_exec::{par_map, par_map_obs, par_map_slice, ExecPolicy};
use cafc_obs::Obs;
use cafc_store::StoreError;

/// Linkage criterion: how the distance between two clusters is derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Linkage {
    /// Minimum pairwise item distance.
    Single,
    /// Maximum pairwise item distance.
    Complete,
    /// Unweighted average pairwise item distance (UPGMA).
    Average,
    /// Distance between cluster centroids (recomputed on merge) — matches
    /// the paper's Equation 3/4 machinery most directly.
    Centroid,
}

/// HAC options.
#[derive(Debug, Clone, Copy)]
pub struct HacOptions {
    /// Stop when this many clusters remain.
    pub target_clusters: usize,
    /// Linkage criterion (default: centroid, like the paper's k-means side).
    pub linkage: Linkage,
}

impl Default for HacOptions {
    fn default() -> Self {
        HacOptions {
            target_clusters: 8,
            linkage: Linkage::Centroid,
        }
    }
}

/// Run HAC down to `opts.target_clusters` clusters.
///
/// `initial` is the starting partition: pass one singleton per item for
/// classic HAC, or hub clusters plus singletons for the seeded variant.
/// Items absent from `initial` are added as singletons automatically.
pub fn hac<S>(space: &S, initial: &[Vec<usize>], opts: &HacOptions) -> Partition
where
    S: ClusterSpace + Sync,
    S::Centroid: Send + Sync,
{
    hac_exec(space, initial, opts, ExecPolicy::Serial)
}

/// Run HAC under an explicit execution policy.
///
/// Identical semantics (and bit-identical output) to [`hac`], which
/// delegates here with [`ExecPolicy::Serial`]. What fans out, per linkage:
///
/// * **Centroid:** the initial g(g−1)/2 similarity triangle (by row) and
///   each merge's g−2 refreshed similarities. The closest-pair scan over
///   the cached values is serial and row-major.
/// * **Pairwise:** the distance matrix and each step's closest-pair scan,
///   by matrix row, with per-row partial argmins merged in row order.
///
/// Either way ties resolve to the lexicographically smallest pair for
/// every policy — exactly the serial scan order.
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
    hac_obs(space, initial, opts, policy, &Obs::disabled())
}

/// Run HAC under an explicit execution policy with instrumentation.
///
/// Identical semantics (and bit-identical output) to [`hac_exec`], which
/// delegates here with [`Obs::disabled`]. Emits, when `obs` has a sink:
/// counter `hac.merges` (one per merge step), gauges `hac.initial_groups`
/// / `hac.final_groups`, and a `hac.merge_scan` span aggregating the
/// closest-pair scans. Centroid linkage adds counter
/// `hac.similarity_evals` (centroid similarities evaluated); the pairwise
/// linkages add span `hac.dissimilarity_matrix` for their O(g²)
/// initialization.
pub fn hac_obs<S>(
    space: &S,
    initial: &[Vec<usize>],
    opts: &HacOptions,
    policy: ExecPolicy,
    obs: &Obs,
) -> Partition
where
    S: ClusterSpace + Sync,
    S::Centroid: Send + Sync,
{
    match hac_driver(space, initial, opts, policy, obs, None) {
        Ok(partition) => partition,
        // Unreachable: the driver only fails through a checkpointer.
        Err(_) => Partition::new(Vec::new(), space.len()),
    }
}

/// The HAC loop proper, shared by the plain entry points (no checkpointer)
/// and [`hac_resumable`](crate::hac_resumable): the checkpointer journals
/// every merge decision and, on resume, replays journaled merges instead
/// of rerunning the closest-pair scans. Replayed and live merges mutate
/// the groups identically, so the final partition is bit-identical.
pub(crate) fn hac_driver<S>(
    space: &S,
    initial: &[Vec<usize>],
    opts: &HacOptions,
    policy: ExecPolicy,
    obs: &Obs,
    ckpt: Option<&mut HacCheckpointer<'_>>,
) -> Result<Partition, StoreError>
where
    S: ClusterSpace + Sync,
    S::Centroid: Send + Sync,
{
    let n = space.len();
    let mut groups: Vec<Vec<usize>> = initial.iter().filter(|g| !g.is_empty()).cloned().collect();
    // Add unassigned items as singletons.
    let mut seen = vec![false; n];
    for g in &groups {
        for &m in g {
            seen[m] = true;
        }
    }
    for (item, &s) in seen.iter().enumerate() {
        if !s {
            groups.push(vec![item]);
        }
    }
    obs.gauge("hac.initial_groups", groups.len() as f64);
    if groups.len() <= opts.target_clusters {
        obs.gauge("hac.final_groups", groups.len() as f64);
        return Ok(Partition::new(groups, n));
    }

    let partition = match opts.linkage {
        Linkage::Centroid => {
            hac_centroid(space, groups, opts.target_clusters, n, policy, obs, ckpt)?
        }
        _ => hac_pairwise(space, groups, opts, n, policy, obs, ckpt)?,
    };
    obs.gauge("hac.final_groups", partition.num_clusters() as f64);
    Ok(partition)
}

/// Centroid linkage: merge the pair with the most similar centroids and
/// recompute the merged centroid.
///
/// The upper triangle of centroid similarities is cached: `sims[i][j-i-1]`
/// holds `centroid_similarity(&centroids[i], &centroids[j])` for `i < j`.
/// A merge of `(bi, bj)` changes only `centroids[bi]`, so it drops row and
/// column `bj` and refills row `bi` — every other cached value is exactly
/// what a fresh evaluation would return, and the scan over the cache picks
/// the same pair a full rescan would.
#[allow(clippy::too_many_arguments)]
fn hac_centroid<S>(
    space: &S,
    mut groups: Vec<Vec<usize>>,
    target: usize,
    n: usize,
    policy: ExecPolicy,
    obs: &Obs,
    mut ckpt: Option<&mut HacCheckpointer<'_>>,
) -> Result<Partition, StoreError>
where
    S: ClusterSpace + Sync,
    S::Centroid: Send + Sync,
{
    let g = groups.len();
    let mut centroids: Vec<S::Centroid> = par_map(policy, g, |i| space.centroid(&groups[i]));
    let mut sims: Vec<Vec<f64>> = par_map(policy, g, |i| {
        ((i + 1)..g)
            .map(|j| space.centroid_similarity(&centroids[i], &centroids[j]))
            .collect()
    });
    // Counted locally and emitted once: `Obs` takes a lock per call.
    let mut evals = (g * g.saturating_sub(1) / 2) as u64;
    let mut step: u64 = 0;
    // `target` may be 0; a lone group cannot merge further.
    while groups.len() > target.max(1) {
        let _scan = obs.span("hac.merge_scan");
        obs.incr("hac.merges");
        // A journaled merge from an interrupted run replays directly,
        // skipping the closest-pair scan.
        let replayed = match ckpt.as_mut() {
            Some(c) => c.replay_merge(step, |i, j| i < j && j < groups.len())?,
            None => None,
        };
        let (bi, bj) = match replayed {
            Some(pair) => pair,
            None => {
                let pair = closest_pair(&sims);
                if let Some(c) = ckpt.as_mut() {
                    c.record_merge(step, pair.0, pair.1)?;
                }
                pair
            }
        };
        step += 1;
        let moved = groups.remove(bj);
        groups[bi].extend(moved);
        centroids.remove(bj);
        centroids[bi] = space.centroid(&groups[bi]);
        sims.remove(bj);
        for (i, row) in sims.iter_mut().enumerate().take(bj) {
            row.remove(bj - i - 1);
        }
        // Refill row and column `bi`, keeping each pair's (lower, higher)
        // argument order.
        let others: Vec<usize> = (0..groups.len()).filter(|&k| k != bi).collect();
        let fresh = par_map_slice(policy, &others, |_, &k| {
            space.centroid_similarity(&centroids[k.min(bi)], &centroids[k.max(bi)])
        });
        evals += others.len() as u64;
        for (&k, sim) in others.iter().zip(fresh) {
            let (lo, hi) = (k.min(bi), k.max(bi));
            sims[lo][hi - lo - 1] = sim;
        }
    }
    obs.add("hac.similarity_evals", evals);
    if let Some(c) = ckpt.as_mut() {
        c.finish(step)?;
    }
    Ok(Partition::new(groups, n))
}

/// The most similar cached pair `(i, j)`, `i < j`, scanned row-major with
/// strict `>` so the first maximum wins; `(0, 1)` when no value beats
/// `-inf` (all NaN).
fn closest_pair(sims: &[Vec<f64>]) -> (usize, usize) {
    let (mut bi, mut bj, mut best) = (0, 1, f64::NEG_INFINITY);
    for (i, row) in sims.iter().enumerate() {
        for (off, &sim) in row.iter().enumerate() {
            if sim > best {
                best = sim;
                bi = i;
                bj = i + 1 + off;
            }
        }
    }
    (bi, bj)
}

/// Single/complete/average linkage over a pairwise distance matrix with
/// Lance–Williams updates.
#[allow(clippy::too_many_arguments)]
fn hac_pairwise<S>(
    space: &S,
    mut groups: Vec<Vec<usize>>,
    opts: &HacOptions,
    n: usize,
    policy: ExecPolicy,
    obs: &Obs,
    mut ckpt: Option<&mut HacCheckpointer<'_>>,
) -> Result<Partition, StoreError>
where
    S: ClusterSpace + Sync,
{
    let g = groups.len();
    // dist[i][j] for i<j; initialized from linkage over item pairs. Each
    // row is one closure, so the matrix is identical for every policy.
    let matrix_span = obs.span("hac.dissimilarity_matrix");
    let upper = par_map_obs(policy, g, obs, "hac.dissimilarity_matrix", |i| {
        ((i + 1)..g)
            .map(|j| group_distance(space, &groups[i], &groups[j], opts.linkage))
            .collect::<Vec<f64>>()
    });
    drop(matrix_span);
    let mut dist = vec![vec![0.0f64; g]; g];
    for (i, row) in upper.into_iter().enumerate() {
        for (off, d) in row.into_iter().enumerate() {
            let j = i + 1 + off;
            dist[i][j] = d;
            dist[j][i] = d;
        }
    }
    let mut alive: Vec<bool> = vec![true; g];
    let mut sizes: Vec<usize> = groups.iter().map(Vec::len).collect();
    let mut remaining = g;

    let mut step: u64 = 0;
    while remaining > opts.target_clusters {
        let _scan = obs.span("hac.merge_scan");
        // A journaled merge from an interrupted run replays directly,
        // skipping the closest-pair scan.
        let replayed = match ckpt.as_mut() {
            Some(c) => c.replay_merge(step, |i, j| i < j && j < g && alive[i] && alive[j])?,
            None => None,
        };
        let (bi, bj) = match replayed {
            Some(pair) => pair,
            None => {
                // Find the closest live pair: per-row argmin (strict `<`,
                // first minimum wins), rows merged in index order — the
                // serial scan order.
                let row_best = par_map(policy, g, |i| {
                    if !alive[i] {
                        return (f64::INFINITY, usize::MAX);
                    }
                    let mut best = (f64::INFINITY, usize::MAX);
                    for j in (i + 1)..g {
                        if alive[j] && dist[i][j] < best.0 {
                            best = (dist[i][j], j);
                        }
                    }
                    best
                });
                let (mut bi, mut bj, mut best) = (usize::MAX, usize::MAX, f64::INFINITY);
                for (i, &(d, j)) in row_best.iter().enumerate() {
                    if j != usize::MAX && d < best {
                        best = d;
                        bi = i;
                        bj = j;
                    }
                }
                if bi == usize::MAX {
                    break; // fewer than two live groups (target_clusters of 0)
                }
                if let Some(c) = ckpt.as_mut() {
                    c.record_merge(step, bi, bj)?;
                }
                (bi, bj)
            }
        };
        step += 1;
        // Merge bj into bi, updating distances by Lance–Williams.
        for k in 0..g {
            if !alive[k] || k == bi || k == bj {
                continue;
            }
            let dik = dist[bi][k];
            let djk = dist[bj][k];
            let d = match opts.linkage {
                Linkage::Single => dik.min(djk),
                Linkage::Complete => dik.max(djk),
                Linkage::Average => {
                    let (si, sj) = (sizes[bi] as f64, sizes[bj] as f64);
                    (si * dik + sj * djk) / (si + sj)
                }
                // hac() routes centroid linkage to hac_centroid; if that
                // ever changes, the unweighted average is a sane stand-in.
                Linkage::Centroid => (dik + djk) / 2.0,
            };
            dist[bi][k] = d;
            dist[k][bi] = d;
        }
        let moved = std::mem::take(&mut groups[bj]);
        groups[bi].extend(moved);
        sizes[bi] += sizes[bj];
        alive[bj] = false;
        remaining -= 1;
        obs.incr("hac.merges");
    }
    if let Some(c) = ckpt.as_mut() {
        c.finish(step)?;
    }
    let final_groups: Vec<Vec<usize>> = groups
        .into_iter()
        .zip(alive)
        .filter(|(_, a)| *a)
        .map(|(g, _)| g)
        .collect();
    Ok(Partition::new(final_groups, n))
}

/// Initial inter-group distance under a pairwise linkage.
fn group_distance<S: ClusterSpace>(space: &S, a: &[usize], b: &[usize], linkage: Linkage) -> f64 {
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    let mut sum = 0.0;
    let mut count = 0usize;
    for &x in a {
        for &y in b {
            let d = 1.0 - space.item_similarity(x, y);
            min = min.min(d);
            max = max.max(d);
            sum += d;
            count += 1;
        }
    }
    match linkage {
        Linkage::Single => min,
        Linkage::Complete => max,
        // Also covers the centroid fallback path (see hac_pairwise).
        Linkage::Average | Linkage::Centroid => sum / count.max(1) as f64,
    }
}

/// Convenience: classic HAC from singletons.
pub fn hac_from_singletons<S>(space: &S, opts: &HacOptions) -> Partition
where
    S: ClusterSpace + Sync,
    S::Centroid: Send + Sync,
{
    hac(space, &[], opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::DenseSpace;

    fn blobs() -> DenseSpace {
        DenseSpace::new(vec![
            vec![0.0],
            vec![0.1],
            vec![0.2],
            vec![10.0],
            vec![10.1],
            vec![10.2],
        ])
    }

    fn sorted(p: &Partition) -> Vec<Vec<usize>> {
        let mut cs: Vec<Vec<usize>> = p
            .clusters()
            .iter()
            .map(|c| {
                let mut c = c.clone();
                c.sort_unstable();
                c
            })
            .collect();
        cs.sort();
        cs
    }

    #[test]
    fn separates_blobs_every_linkage() {
        let space = blobs();
        for linkage in [
            Linkage::Single,
            Linkage::Complete,
            Linkage::Average,
            Linkage::Centroid,
        ] {
            let p = hac_from_singletons(
                &space,
                &HacOptions {
                    target_clusters: 2,
                    linkage,
                },
            );
            assert_eq!(
                sorted(&p),
                vec![vec![0, 1, 2], vec![3, 4, 5]],
                "linkage {linkage:?} failed"
            );
        }
    }

    #[test]
    fn respects_target_cluster_count() {
        let space = blobs();
        for target in 1..=6 {
            let p = hac_from_singletons(
                &space,
                &HacOptions {
                    target_clusters: target,
                    linkage: Linkage::Average,
                },
            );
            assert_eq!(p.num_clusters(), target);
            assert_eq!(p.num_assigned(), 6);
        }
    }

    #[test]
    fn seeded_start_preserves_groups() {
        let space = blobs();
        // Start with {0,1,2} pre-grouped; remaining items join as singletons.
        let p = hac(
            &space,
            &[vec![0, 1, 2]],
            &HacOptions {
                target_clusters: 2,
                linkage: Linkage::Centroid,
            },
        );
        let cs = sorted(&p);
        assert_eq!(cs, vec![vec![0, 1, 2], vec![3, 4, 5]]);
    }

    #[test]
    fn initial_already_coarse_enough() {
        let space = blobs();
        let init = vec![vec![0, 1, 2], vec![3, 4, 5]];
        let p = hac(
            &space,
            &init,
            &HacOptions {
                target_clusters: 4,
                linkage: Linkage::Average,
            },
        );
        // Only 2 groups supplied and target is 4 -> returned unchanged plus
        // nothing (all items covered).
        assert_eq!(p.num_clusters(), 2);
    }

    #[test]
    fn empty_groups_in_initial_ignored() {
        let space = blobs();
        let p = hac(
            &space,
            &[vec![], vec![0, 1]],
            &HacOptions {
                target_clusters: 2,
                linkage: Linkage::Average,
            },
        );
        assert_eq!(p.num_assigned(), 6);
        assert_eq!(p.num_clusters(), 2);
    }

    #[test]
    fn deterministic() {
        let space = blobs();
        let o = HacOptions {
            target_clusters: 3,
            linkage: Linkage::Average,
        };
        assert_eq!(
            hac_from_singletons(&space, &o),
            hac_from_singletons(&space, &o)
        );
    }

    #[test]
    fn exec_policies_agree_exactly() {
        let space = blobs();
        for linkage in [
            Linkage::Single,
            Linkage::Complete,
            Linkage::Average,
            Linkage::Centroid,
        ] {
            let o = HacOptions {
                target_clusters: 2,
                linkage,
            };
            let baseline = hac_exec(&space, &[], &o, ExecPolicy::Serial);
            for policy in [
                ExecPolicy::Parallel { threads: 1 },
                ExecPolicy::Parallel { threads: 7 },
                ExecPolicy::Auto,
            ] {
                assert_eq!(
                    hac_exec(&space, &[], &o, policy),
                    baseline,
                    "{linkage:?} under {policy:?}"
                );
            }
        }
    }

    #[test]
    fn centroid_similarity_evals_match_closed_form() {
        // From g singletons: the initial g(g−1)/2 triangle, then g_t − 2
        // refreshed pairs after the merge that starts from g_t groups.
        let space = blobs();
        let g = space.len() as u64;
        for target in [0, 1, 2, 5, 6] {
            let obs = Obs::enabled();
            let o = HacOptions {
                target_clusters: target,
                linkage: Linkage::Centroid,
            };
            let p = hac_obs(&space, &[], &o, ExecPolicy::Parallel { threads: 3 }, &obs);
            assert_eq!(p, hac_exec(&space, &[], &o, ExecPolicy::Serial));
            let last = (target as u64).max(1);
            let expected = g * (g - 1) / 2 + ((last + 1)..=g).map(|gt| gt - 2).sum::<u64>();
            let evals = obs
                .snapshot()
                .counters
                .into_iter()
                .find(|(name, _)| name == "hac.similarity_evals")
                .map(|(_, v)| v);
            let expected = (g > last).then_some(expected);
            assert_eq!(evals, expected, "target {target}");
        }
    }

    #[test]
    fn single_linkage_chains() {
        // A chain 0-1-2-3 with equal gaps plus a far point: single linkage
        // merges the chain before the outlier.
        let space = DenseSpace::new(vec![
            vec![0.0],
            vec![1.0],
            vec![2.0],
            vec![3.0],
            vec![100.0],
        ]);
        let p = hac_from_singletons(
            &space,
            &HacOptions {
                target_clusters: 2,
                linkage: Linkage::Single,
            },
        );
        assert_eq!(sorted(&p), vec![vec![0, 1, 2, 3], vec![4]]);
    }
}
