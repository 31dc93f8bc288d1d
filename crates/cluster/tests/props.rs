//! `cafc-check` property suite for seed selection (Algorithm 3), the
//! k-means loop and centroid-linkage HAC over generated dense points and
//! term-set documents. Runs offline on every commit.

use cafc_check::corpus::clustering;
use cafc_check::gen::{f64s, pairs, usizes, vecs, Gen};
use cafc_check::{check, require, require_eq, CheckConfig};
use cafc_cluster::ExecPolicy::Serial;
use cafc_cluster::{
    greedy_distant_seeds, kmeans, random_singleton_seeds, ClusterSpace, DenseSpace, ExecPolicy,
    HacOptions, KMeansOptions, Linkage, Obs,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const NO_OBS: &Obs = &Obs::disabled();

/// A selection problem: 2-D points, candidate seed clusters over them, and
/// a requested seed count.
type SelectionProblem = (Vec<Vec<f64>>, Vec<Vec<usize>>, usize);

/// `n` 2-D points (n in 2..=10) plus candidate seed clusters over them and
/// a requested seed count `k` in 2..=6.
fn selection_problem() -> Gen<SelectionProblem> {
    usizes(2, 10).flat_map(|&n| {
        let points = vecs(&vecs(&f64s(-3.0, 3.0), 2, 2), n, n);
        pairs(&pairs(&points, &clustering(n, 5)), &usizes(2, 6))
            .map(|((points, candidates), k)| (points.clone(), candidates.clone(), *k))
    })
}

/// Algorithm 3's selection half always returns `min(k, #candidates)`
/// mutually distinct candidate indices — when enough candidates exist, it
/// returns exactly `k` distinct hub clusters.
#[test]
fn greedy_selection_returns_k_distinct_candidates() {
    check!(CheckConfig::new(), selection_problem(), |(
        points,
        candidates,
        k,
    )| {
        let space = DenseSpace::new(points.clone());
        let picked = greedy_distant_seeds(&space, candidates, *k);
        require_eq!(picked.len(), (*k).min(candidates.len()));
        let mut sorted = picked.clone();
        sorted.sort_unstable();
        sorted.dedup();
        require_eq!(sorted.len(), picked.len());
        require!(
            picked.iter().all(|&i| i < candidates.len()),
            "index out of range: {picked:?}"
        );
        Ok(())
    });
}

/// The greedy selection is deterministic: same space, same candidates,
/// same `k` — same indices in the same order.
#[test]
fn greedy_selection_deterministic() {
    check!(CheckConfig::new(), selection_problem(), |(
        points,
        candidates,
        k,
    )| {
        let space = DenseSpace::new(points.clone());
        require_eq!(
            greedy_distant_seeds(&space, candidates, *k),
            greedy_distant_seeds(&space, candidates, *k)
        );
        Ok(())
    });
}

/// The k-means properties every input must satisfy: a valid full
/// partition (every item in exactly one cluster), an iteration count
/// within the configured cap, no more clusters than seeds, the same
/// outcome under `Serial` and `Parallel { threads: 3 }`, and every item in
/// `zero_overlap` (similarity exactly 0 to every centroid it can meet) in
/// cluster 0, the lowest-index tie-break. Starved clusters may end empty —
/// that is allowed; losing or duplicating an item is not.
fn require_kmeans_props<S>(
    space: &S,
    seeds: &[Vec<usize>],
    zero_overlap: &[usize],
) -> Result<(), String>
where
    S: ClusterSpace + Sync,
    S::Centroid: Send + Sync,
{
    let opts = KMeansOptions::default();
    let out = kmeans(space, seeds, &opts, Serial, NO_OBS);
    let mut assigned: Vec<usize> = out.partition.clusters().iter().flatten().copied().collect();
    assigned.sort_unstable();
    require_eq!(assigned, (0..space.len()).collect::<Vec<_>>());
    require!(out.partition.num_clusters() <= seeds.len());
    require!(
        out.iterations <= opts.max_iterations.max(1),
        "iterations {} above cap",
        out.iterations
    );
    let parallel = kmeans(
        space,
        seeds,
        &opts,
        ExecPolicy::Parallel { threads: 3 },
        NO_OBS,
    );
    require_eq!(out.partition.clusters(), parallel.partition.clusters());
    require_eq!(out.iterations, parallel.iterations);
    require_eq!(out.converged, parallel.converged);
    for &item in zero_overlap {
        require!(
            out.partition.clusters()[0].contains(&item),
            "zero-overlap item {item} not in cluster 0: {:?}",
            out.partition.clusters()
        );
    }
    Ok(())
}

/// k-means from arbitrary generated seed clusters satisfies
/// [`require_kmeans_props`] on dense points and on term-set documents.
#[test]
fn kmeans_yields_valid_partition() {
    check!(CheckConfig::new(), selection_problem(), |(
        points,
        seeds,
        _,
    )| {
        require_kmeans_props(&DenseSpace::new(points.clone()), seeds, &[])
    });
    check!(CheckConfig::new(), sparse_problem(), |(docs, seeds)| {
        let space = TermSets { docs: docs.clone() };
        // The generated seeds cover every document; seeding from the first
        // half of them leaves the rest to the first assignment pass.
        for seeds in [&seeds[..], &seeds[..seeds.len().div_ceil(2)]] {
            // A document in no seed that shares no term with any other
            // document scores 0.0 against every seed centroid, joins
            // cluster 0 on the first pass, and overlaps only cluster 0
            // after that.
            let zero_overlap: Vec<usize> = (0..docs.len())
                .filter(|&i| {
                    !seeds.iter().flatten().any(|&m| m == i)
                        && docs.iter().enumerate().all(|(j, other)| {
                            j == i || !docs[i].iter().any(|t| other.binary_search(t).is_ok())
                        })
                })
                .collect();
            require_kmeans_props(&space, seeds, &zero_overlap)?;
        }
        Ok(())
    });
}

/// Degenerate seeds fall back instead of panicking: all-empty seed lists
/// produce the single-cluster fallback holding every item.
#[test]
fn kmeans_degenerate_seeds_fall_back() {
    let points = usizes(1, 8).flat_map(|&n| vecs(&vecs(&f64s(-3.0, 3.0), 2, 2), n, n));
    check!(CheckConfig::new(), points, |points: &Vec<Vec<f64>>| {
        let n = points.len();
        let space = DenseSpace::new(points.clone());
        let empty_seeds: Vec<Vec<usize>> = vec![Vec::new(), Vec::new()];
        let out = kmeans(
            &space,
            &empty_seeds,
            &KMeansOptions::default(),
            Serial,
            NO_OBS,
        );
        require_eq!(out.partition.num_clusters(), 1);
        require_eq!(out.partition.clusters()[0].len(), n);
        Ok(())
    });
}

/// Selection respects the space: the two seeds picked first are a pair at
/// maximal centroid distance (sanity link between Algorithm 3 and the
/// similarity space).
#[test]
fn greedy_selection_starts_with_a_farthest_pair() {
    check!(CheckConfig::new(), selection_problem(), |(
        points,
        candidates,
        k,
    )| {
        if candidates.len() <= *k {
            return Ok(()); // all candidates returned; no selection ran
        }
        let space = DenseSpace::new(points.clone());
        let picked = greedy_distant_seeds(&space, candidates, *k);
        let centroids: Vec<Vec<f64>> = candidates.iter().map(|c| space.centroid(c)).collect();
        let d = |i: usize, j: usize| 1.0 - space.centroid_similarity(&centroids[i], &centroids[j]);
        let first = d(picked[0], picked[1]);
        for i in 0..candidates.len() {
            for j in (i + 1)..candidates.len() {
                require!(
                    d(i, j) <= first + 1e-9,
                    "pair ({i},{j}) at {} beats the chosen pair at {first}",
                    d(i, j)
                );
            }
        }
        Ok(())
    });
}

// ---------------------------------------------------------------------
// Term-set spaces: cosine over sparse documents, with empty and
// zero-overlap documents.
// ---------------------------------------------------------------------

/// A term-set space: each item is a set of `u64` term keys, an item's
/// vector is the indicator over its terms, and similarity is cosine, so
/// disjoint supports ⇒ dot = 0 ⇒ similarity exactly `0.0`.
struct TermSets {
    docs: Vec<Vec<u64>>, // each sorted + deduped
}

impl ClusterSpace for TermSets {
    type Centroid = Vec<(u64, f64)>; // sorted by term, non-zero weights

    fn len(&self) -> usize {
        self.docs.len()
    }

    fn centroid(&self, members: &[usize]) -> Self::Centroid {
        let mut acc: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
        for &m in members {
            for &t in &self.docs[m] {
                *acc.entry(t).or_insert(0.0) += 1.0;
            }
        }
        let n = members.len().max(1) as f64;
        acc.into_iter().map(|(t, w)| (t, w / n)).collect()
    }

    fn similarity(&self, centroid: &Self::Centroid, item: usize) -> f64 {
        let doc = &self.docs[item];
        let dot: f64 = centroid
            .iter()
            .filter(|(t, _)| doc.binary_search(t).is_ok())
            .map(|&(_, w)| w)
            .sum();
        let nc: f64 = centroid.iter().map(|&(_, w)| w * w).sum::<f64>().sqrt();
        let nd = (doc.len() as f64).sqrt();
        if nc == 0.0 || nd == 0.0 {
            0.0
        } else {
            (dot / (nc * nd)).clamp(0.0, 1.0)
        }
    }

    fn centroid_similarity(&self, a: &Self::Centroid, b: &Self::Centroid) -> f64 {
        let mut dot = 0.0;
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    dot += a[i].1 * b[j].1;
                    i += 1;
                    j += 1;
                }
            }
        }
        let na: f64 = a.iter().map(|&(_, w)| w * w).sum::<f64>().sqrt();
        let nb: f64 = b.iter().map(|&(_, w)| w * w).sum::<f64>().sqrt();
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            (dot / (na * nb)).clamp(0.0, 1.0)
        }
    }
}

/// Documents as term sets, plus seed clusters over them.
type SparseProblem = (Vec<Vec<u64>>, Vec<Vec<usize>>);

/// A sparse clustering problem: documents as small term sets — including
/// empty documents and documents isolated onto a private term range (zero
/// overlap with everything else) — plus seed clusters over them.
fn sparse_problem() -> Gen<SparseProblem> {
    usizes(2, 9).flat_map(|&n| {
        // Per doc: a term set in 0..12, possibly empty, and an isolation
        // flag that moves the doc onto a disjoint private range.
        let doc = pairs(&vecs(&usizes(0, 11), 0, 4), &cafc_check::gen::bools());
        pairs(&vecs(&doc, n, n), &clustering(n, 4)).map(|(docs, seeds)| {
            let docs: Vec<Vec<u64>> = docs
                .iter()
                .enumerate()
                .map(|(i, (terms, isolated))| {
                    let offset = if *isolated { 1_000 + 100 * i as u64 } else { 0 };
                    let mut v: Vec<u64> = terms.iter().map(|&t| t as u64 + offset).collect();
                    v.sort_unstable();
                    v.dedup();
                    v
                })
                .collect();
            (docs, seeds.clone())
        })
    })
}

/// `n` 1-D points in `[0, 100]`, n in `lo..=hi`.
fn line_points(lo: usize, hi: usize) -> Gen<Vec<Vec<f64>>> {
    vecs(&f64s(0.0, 100.0).map(|&x| vec![x]), lo, hi)
}

/// k-means from `k` random singleton seeds keeps exactly `k` clusters and
/// assigns every item once.
#[test]
fn kmeans_from_singleton_seeds_keeps_k_clusters() {
    let problem = pairs(&line_points(1, 40), &pairs(&usizes(1, 5), &usizes(0, 99)));
    check!(CheckConfig::new(), problem, |(points, (k, rng_seed))| {
        let space = DenseSpace::new(points.clone());
        let k = (*k).min(space.len());
        let mut rng = StdRng::seed_from_u64(*rng_seed as u64);
        let seeds = random_singleton_seeds(&space, k, &mut rng);
        let out = kmeans(&space, &seeds, &KMeansOptions::default(), Serial, NO_OBS);
        require_eq!(out.partition.num_clusters(), k);
        let mut assigned: Vec<usize> = out.partition.clusters().iter().flatten().copied().collect();
        assigned.sort_unstable();
        require_eq!(assigned, (0..space.len()).collect::<Vec<_>>());
        Ok(())
    });
}

/// HAC from singletons stops at exactly the target cluster count and
/// covers every item, under every linkage.
#[test]
fn hac_reaches_target_under_every_linkage() {
    check!(
        CheckConfig::new(),
        pairs(&line_points(1, 25), &usizes(1, 5)),
        |(points, target)| {
            let space = DenseSpace::new(points.clone());
            let target = (*target).min(space.len());
            for linkage in [
                Linkage::Single,
                Linkage::Complete,
                Linkage::Average,
                Linkage::Centroid,
            ] {
                let p = hac(
                    &space,
                    &[],
                    &HacOptions {
                        target_clusters: target,
                        linkage,
                    },
                    Serial,
                    NO_OBS,
                );
                require_eq!(p.num_clusters(), target);
                require_eq!(p.num_assigned(), space.len());
            }
            Ok(())
        }
    );
}

/// With two far-apart blobs and target 2, average-linkage HAC never mixes
/// the blobs.
#[test]
fn hac_keeps_separated_blobs_apart() {
    let left = vecs(&f64s(0.0, 1.0), 2, 5);
    let right = vecs(&f64s(1000.0, 1001.0), 2, 5);
    check!(CheckConfig::new(), pairs(&left, &right), |(left, right)| {
        let n_left = left.len();
        let points: Vec<Vec<f64>> = left.iter().chain(right).map(|&x| vec![x]).collect();
        let p = hac(
            &DenseSpace::new(points),
            &[],
            &HacOptions {
                target_clusters: 2,
                linkage: Linkage::Average,
            },
            Serial,
            NO_OBS,
        );
        for c in p.clusters() {
            let one_side = c.iter().all(|&i| i < n_left) || c.iter().all(|&i| i >= n_left);
            require!(one_side, "mixed cluster {c:?}");
        }
        Ok(())
    });
}

// ---------------------------------------------------------------------
// Centroid-linkage HAC: the cached kernel against a full rescan.
// ---------------------------------------------------------------------

use cafc_check::gen::from_slice;
use cafc_cluster::{hac, Partition};

/// Centroid linkage with no similarity cache: after every merge, rescan
/// all centroid pairs (row-major, strict `>`, first maximum wins). O(g³)
/// similarity evaluations; kept only as the oracle for `hac`.
/// Returns the partition and the starting group count `g`.
fn hac_centroid_rescan<S: ClusterSpace>(
    space: &S,
    initial: &[Vec<usize>],
    target: usize,
) -> (Partition, usize) {
    let n = space.len();
    let mut groups: Vec<Vec<usize>> = initial.iter().filter(|g| !g.is_empty()).cloned().collect();
    let mut seen = vec![false; n];
    for &m in groups.iter().flatten() {
        seen[m] = true;
    }
    groups.extend((0..n).filter(|&i| !seen[i]).map(|i| vec![i]));
    let g = groups.len();
    let mut centroids: Vec<S::Centroid> = groups.iter().map(|m| space.centroid(m)).collect();
    while g > target && groups.len() > target.max(1) {
        let (mut bi, mut bj, mut best) = (0, 1, f64::NEG_INFINITY);
        for i in 0..groups.len() {
            for j in (i + 1)..groups.len() {
                let sim = space.centroid_similarity(&centroids[i], &centroids[j]);
                if sim > best {
                    (bi, bj, best) = (i, j, sim);
                }
            }
        }
        let moved = groups.remove(bj);
        groups[bi].extend(moved);
        centroids.remove(bj);
        centroids[bi] = space.centroid(&groups[bi]);
    }
    (Partition::new(groups, n), g)
}

/// `hac` with centroid linkage equals the rescan oracle under every
/// policy, for targets 0, 1 and g−1.
fn require_centroid_hac_matches_rescan<S>(space: &S, initial: &[Vec<usize>]) -> Result<(), String>
where
    S: ClusterSpace + Sync,
    S::Centroid: Send + Sync,
{
    let g = hac_centroid_rescan(space, initial, 0).1;
    for target in [0, 1, g.saturating_sub(1)] {
        let expected = hac_centroid_rescan(space, initial, target).0;
        let opts = HacOptions {
            target_clusters: target,
            linkage: Linkage::Centroid,
        };
        for policy in [
            ExecPolicy::Serial,
            ExecPolicy::Parallel { threads: 1 },
            ExecPolicy::Parallel { threads: 7 },
        ] {
            let got = hac(space, initial, &opts, policy, NO_OBS);
            require_eq!(got, expected);
        }
    }
    Ok(())
}

/// A hub-seeded start: the first `keep` clusters of a clustering; the
/// items they leave out start as singletons (`keep` 0: all singletons).
fn seeded_start(n: usize) -> Gen<Vec<Vec<usize>>> {
    pairs(&clustering(n, 5), &usizes(0, 5))
        .map(|(clusters, keep)| clusters.iter().take(*keep).cloned().collect())
}

/// Random 2-D points (continuous coordinates: ties are rare).
#[test]
fn centroid_hac_matches_rescan_on_random_points() {
    let problem = usizes(1, 14)
        .flat_map(|&n| pairs(&vecs(&vecs(&f64s(-3.0, 3.0), 2, 2), n, n), &seeded_start(n)));
    check!(CheckConfig::new(), problem, |(points, initial)| {
        require_centroid_hac_matches_rescan(&DenseSpace::new(points.clone()), initial)
    });
}

/// 2-D points on a coarse grid: duplicate points and exactly tied pairs
/// are common, so the first-maximum tie-break decides most merges.
#[test]
fn centroid_hac_matches_rescan_on_tied_points() {
    let coord = from_slice(&[0.0, 1.0, 2.0]);
    let problem =
        usizes(1, 14).flat_map(move |&n| pairs(&vecs(&vecs(&coord, 2, 2), n, n), &seeded_start(n)));
    check!(CheckConfig::new(), problem, |(points, initial)| {
        require_centroid_hac_matches_rescan(&DenseSpace::new(points.clone()), initial)
    });
}

/// Term-set documents (cosine, with empty and zero-overlap documents)
/// from their seed clusters and from the rescan's partial starts.
#[test]
fn centroid_hac_matches_rescan_on_term_sets() {
    check!(CheckConfig::new(), sparse_problem(), |(docs, seeds)| {
        let space = TermSets { docs: docs.clone() };
        require_centroid_hac_matches_rescan(&space, seeds)?;
        require_centroid_hac_matches_rescan(&space, &seeds[..seeds.len() / 2])?;
        require_centroid_hac_matches_rescan(&space, &[])
    });
}
