//! Incremental cluster maintenance.
//!
//! The paper's premise is a web "so vast and dynamic — with new sources
//! constantly being added" (§1); §5 sketches using built clusters to
//! classify new sources. This module makes that operational: an
//! [`IncrementalClusters`] state absorbs newly discovered form pages one
//! at a time (nearest-centroid assignment with centroid updates) and
//! tracks *drift* — how far the evolving centroids have moved from the
//! clustering they started as — so callers know when a full re-clustering
//! is warranted.

use crate::space::{FormPageSpace, MultiCentroid};
use cafc_cluster::{nearest_centroid, ClusterSpace, Partition};

/// A clustering that can absorb new items.
#[derive(Debug, Clone)]
pub struct IncrementalClusters {
    members: Vec<Vec<usize>>,
    centroids: Vec<MultiCentroid>,
    initial_centroids: Vec<MultiCentroid>,
}

impl IncrementalClusters {
    /// Start from an existing partition (empty clusters are kept so
    /// indices remain stable but are never assigned to until re-seeded).
    pub fn from_partition(space: &FormPageSpace<'_>, partition: &Partition) -> Self {
        let members: Vec<Vec<usize>> = partition.clusters().to_vec();
        let centroids: Vec<MultiCentroid> = members
            .iter()
            .map(|m| {
                if m.is_empty() {
                    MultiCentroid::default()
                } else {
                    space.centroid(m)
                }
            })
            .collect();
        IncrementalClusters {
            initial_centroids: centroids.clone(),
            members,
            centroids,
        }
    }

    /// Current member lists.
    pub fn members(&self) -> &[Vec<usize>] {
        &self.members
    }

    /// Assign one new item to its most similar non-empty cluster (ties to
    /// the lowest index, as in k-means), add it, and refresh that cluster's
    /// centroid. Returns the cluster index.
    ///
    /// When every cluster is empty (a fully-quarantined start state) the
    /// item founds cluster 0, which is created if no slot exists at all.
    pub fn assign(&mut self, space: &FormPageSpace<'_>, item: usize) -> usize {
        let live = self
            .centroids
            .iter()
            .enumerate()
            .filter(|(ci, _)| !self.members[*ci].is_empty());
        let best = nearest_centroid(space, item, live).unwrap_or(0);
        if self.members.is_empty() {
            self.members.push(Vec::new());
            self.centroids.push(MultiCentroid::default());
            self.initial_centroids.push(MultiCentroid::default());
        }
        self.members[best].push(item);
        self.centroids[best] = space.centroid(&self.members[best]);
        best
    }

    /// Assign a batch, returning `(item, cluster)` pairs in input order.
    pub fn add_batch(&mut self, space: &FormPageSpace<'_>, items: &[usize]) -> Vec<(usize, usize)> {
        items.iter().map(|&i| (i, self.assign(space, i))).collect()
    }

    /// Move `item` from cluster `from` to cluster `to` without touching
    /// centroids. The repair pass in [`crate::stream`] applies a batch of
    /// moves and then refreshes every affected centroid exactly once via
    /// [`IncrementalClusters::refresh_centroids`]; refreshing per move
    /// would make the outcome depend on move order twice over.
    ///
    /// A no-op when `item` is not currently in `from`.
    pub fn move_item(&mut self, item: usize, from: usize, to: usize) {
        if from == to {
            return;
        }
        if let Some(pos) = self.members[from].iter().position(|&m| m == item) {
            self.members[from].remove(pos);
            self.members[to].push(item);
        }
    }

    /// Recompute the centroids of the listed clusters from their current
    /// members. Clusters emptied by moves get a default (zero) centroid,
    /// matching the empty-cluster convention of
    /// [`IncrementalClusters::from_partition`].
    pub fn refresh_centroids(&mut self, space: &FormPageSpace<'_>, clusters: &[usize]) {
        for &ci in clusters {
            self.centroids[ci] = if self.members[ci].is_empty() {
                MultiCentroid::default()
            } else {
                space.centroid(&self.members[ci])
            };
        }
    }

    /// Mean centroid drift since construction: `1 − sim(initial, current)`
    /// averaged over non-empty clusters. 0.0 means nothing moved; values
    /// near 1.0 mean the clustering has effectively been replaced and a
    /// fresh CAFC-CH run is in order.
    pub fn drift(&self, space: &FormPageSpace<'_>) -> f64 {
        let mut sum = 0.0;
        let mut count = 0usize;
        for (ci, m) in self.members.iter().enumerate() {
            if m.is_empty() {
                continue;
            }
            sum +=
                1.0 - space.centroid_similarity(&self.initial_centroids[ci], &self.centroids[ci]);
            count += 1;
        }
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }

    /// Snapshot as a [`Partition`] over `num_items` total items.
    pub fn to_partition(&self, num_items: usize) -> Partition {
        Partition::new(self.members.clone(), num_items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FormPageCorpus;
    use crate::space::FeatureConfig;
    use crate::ExecPolicy::Serial;
    use crate::Obs;

    const NO_OBS: &Obs = &Obs::disabled();

    /// 4 seed pages in two domains + 4 new arrivals (2 per domain).
    fn fixture() -> FormPageCorpus {
        let pages = [
            "<p>airfare flights travel airline deals</p><form>departure <input name=a></form>",
            "<p>flights airfare vacation travel</p><form>arrival <input name=b></form>",
            "<p>careers employment salary resume</p><form>keywords <input name=c></form>",
            "<p>employment careers hiring resume</p><form>category <input name=d></form>",
            // arrivals
            "<p>airline flights airfare deals</p><form>return <input name=e></form>",
            "<p>careers salary openings hiring</p><form>location <input name=f></form>",
            "<p>travel airfare airline vacation</p><form>cabin <input name=g></form>",
            "<p>resume employment salary careers</p><form>industry <input name=h></form>",
        ];
        FormPageCorpus::from_html(pages, &Default::default(), Serial, NO_OBS)
    }

    #[test]
    fn arrivals_join_matching_clusters() {
        let corpus = fixture();
        let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
        let partition = Partition::new(vec![vec![0, 1], vec![2, 3]], 8);
        let mut inc = IncrementalClusters::from_partition(&space, &partition);
        let assigned = inc.add_batch(&space, &[4, 5, 6, 7]);
        assert_eq!(assigned, vec![(4, 0), (5, 1), (6, 0), (7, 1)]);
        assert_eq!(inc.members()[0], vec![0, 1, 4, 6]);
        assert_eq!(inc.members()[1], vec![2, 3, 5, 7]);
    }

    #[test]
    fn centroids_update_with_arrivals() {
        let corpus = fixture();
        let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
        let partition = Partition::new(vec![vec![0, 1], vec![2, 3]], 8);
        let mut inc = IncrementalClusters::from_partition(&space, &partition);
        assert_eq!(inc.drift(&space), 0.0);
        inc.add_batch(&space, &[4, 5, 6, 7]);
        let drift = inc.drift(&space);
        assert!(drift > 0.0, "absorbing items must move centroids");
        assert!(
            drift < 0.5,
            "same-domain arrivals should not upend centroids: {drift}"
        );
    }

    #[test]
    fn empty_clusters_never_receive_items() {
        let corpus = fixture();
        let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
        let partition = Partition::new(vec![vec![0, 1], vec![], vec![2, 3]], 8);
        let mut inc = IncrementalClusters::from_partition(&space, &partition);
        for item in 4..8 {
            let c = inc.assign(&space, item);
            assert_ne!(c, 1, "item {item} landed in the empty cluster");
        }
    }

    #[test]
    fn to_partition_roundtrip() {
        let corpus = fixture();
        let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
        let partition = Partition::new(vec![vec![0, 1], vec![2, 3]], 8);
        let mut inc = IncrementalClusters::from_partition(&space, &partition);
        inc.add_batch(&space, &[4, 5]);
        let p = inc.to_partition(8);
        assert_eq!(p.num_assigned(), 6);
        assert_eq!(p.num_clusters(), 2);
    }

    #[test]
    fn move_item_defers_centroid_refresh() {
        let corpus = fixture();
        let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
        let partition = Partition::new(vec![vec![0, 1], vec![2, 3]], 8);
        let mut inc = IncrementalClusters::from_partition(&space, &partition);
        inc.move_item(1, 0, 1);
        assert_eq!(inc.members()[0], vec![0]);
        assert_eq!(inc.members()[1], vec![2, 3, 1]);
        // Centroids are stale until refreshed, so drift is still zero.
        assert_eq!(inc.drift(&space), 0.0);
        inc.refresh_centroids(&space, &[0, 1]);
        assert!(inc.drift(&space) > 0.0, "refresh must recompute centroids");
        // Moving an item that is not in `from` is a no-op.
        inc.move_item(7, 0, 1);
        assert_eq!(inc.members()[0], vec![0]);
        assert_eq!(inc.members()[1], vec![2, 3, 1]);
    }

    #[test]
    fn refresh_zeroes_an_emptied_cluster() {
        let corpus = fixture();
        let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
        let partition = Partition::new(vec![vec![0], vec![2, 3]], 8);
        let mut inc = IncrementalClusters::from_partition(&space, &partition);
        inc.move_item(0, 0, 1);
        inc.refresh_centroids(&space, &[0, 1]);
        // The emptied cluster is back to the default centroid and never
        // attracts assignments.
        for item in 4..8 {
            assert_eq!(inc.assign(&space, item), 1);
        }
    }

    #[test]
    fn all_empty_founds_first_cluster() {
        let corpus = fixture();
        let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
        let partition = Partition::new(vec![vec![], vec![]], 8);
        let mut inc = IncrementalClusters::from_partition(&space, &partition);
        assert_eq!(inc.assign(&space, 0), 0);
        assert_eq!(inc.members()[0], vec![0]);
        // The next arrival sees a non-empty cluster and joins normally.
        assert_eq!(inc.assign(&space, 1), 0);
    }

    #[test]
    fn zero_cluster_start_creates_slot() {
        let corpus = fixture();
        let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
        let partition = Partition::new(Vec::new(), 8);
        let mut inc = IncrementalClusters::from_partition(&space, &partition);
        assert_eq!(inc.assign(&space, 0), 0);
        assert_eq!(inc.members().len(), 1);
    }
}
