//! Nearest-centroid assignment of new form pages — the §5 application:
//! "Once the clusters are built and properly labeled with the domain name,
//! they can be used as the basis to automatically classify new sources."

use crate::space::FormPageSpace;
use cafc_cluster::{nearest_centroid, ClusterSpace, Partition};

/// Assign each of `items` (indices into the space's corpus) to the most
/// similar non-empty cluster of `partition`, ties to the lowest cluster
/// index as in k-means ([`nearest_centroid`]). Returns `(item, cluster)`
/// pairs in input order.
///
/// The typical workflow: build one [`crate::FormPageCorpus`] over the
/// already-clustered pages *plus* the new pages (so IDF statistics are
/// shared), cluster the former, then assign the latter.
///
/// A partition with no non-empty cluster offers nothing to assign against;
/// the result is empty rather than a panic (an adversarial corpus can
/// quarantine every clustered page).
pub fn assign_to_clusters(
    space: &FormPageSpace<'_>,
    partition: &Partition,
    items: &[usize],
) -> Vec<(usize, usize)> {
    let centroids: Vec<(usize, <FormPageSpace<'_> as ClusterSpace>::Centroid)> = partition
        .clusters()
        .iter()
        .enumerate()
        .filter(|(_, members)| !members.is_empty())
        .map(|(ci, members)| (ci, space.centroid(members)))
        .collect();
    items
        .iter()
        .filter_map(|&item| {
            let best = nearest_centroid(space, item, centroids.iter().map(|(ci, c)| (*ci, c)))?;
            Some((item, best))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FormPageCorpus;
    use crate::space::{FeatureConfig, FormPageSpace};
    use crate::ExecPolicy::Serial;
    use crate::Obs;

    const NO_OBS: &Obs = &Obs::disabled();

    #[test]
    fn assigns_new_pages_to_matching_cluster() {
        // Items 0-1: airfare; 2-3: jobs; 4: a NEW airfare page; 5: a NEW
        // jobs page. Cluster {0,1} and {2,3}, then assign 4 and 5.
        let pages = [
            "<p>airfare travel flights deals</p><form>departure <input name=a></form>",
            "<p>airfare flights vacation airline</p><form>arrival <input name=b></form>",
            "<p>careers employment salary</p><form>keywords <input name=c></form>",
            "<p>careers hiring openings resume</p><form>category <input name=d></form>",
            "<p>flights airfare airline travel</p><form>departure <input name=e></form>",
            "<p>employment resume salary careers</p><form>keywords <input name=f></form>",
        ];
        let corpus = FormPageCorpus::from_html(pages, &Default::default(), Serial, NO_OBS);
        let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
        let partition = Partition::new(vec![vec![0, 1], vec![2, 3]], 6);
        let assigned = assign_to_clusters(&space, &partition, &[4, 5]);
        assert_eq!(assigned, vec![(4, 0), (5, 1)]);
    }

    #[test]
    fn empty_clusters_never_chosen() {
        let pages = [
            "<p>airfare flights</p>",
            "<p>airfare travel</p>",
            "<p>flights airline</p>",
        ];
        let corpus = FormPageCorpus::from_html(pages, &Default::default(), Serial, NO_OBS);
        let space = FormPageSpace::new(&corpus, FeatureConfig::PcOnly);
        let partition = Partition::new(vec![vec![], vec![0, 1]], 3);
        let assigned = assign_to_clusters(&space, &partition, &[2]);
        assert_eq!(assigned, vec![(2, 1)]);
    }

    #[test]
    fn zero_overlap_page_goes_to_the_first_cluster_like_kmeans() {
        use crate::incremental::IncrementalClusters;
        use cafc_cluster::{kmeans, KMeansOptions};
        // Page 2 shares no term with either cluster, so both similarities
        // are exactly 0.0: the tie must resolve to cluster 0 everywhere.
        let pages = [
            "<p>airfare flights</p><form>departure <input name=a></form>",
            "<p>careers salary</p><form>keywords <input name=b></form>",
            "<p>zebra quartz</p><form>volcano <input name=c></form>",
        ];
        let corpus = FormPageCorpus::from_html(pages, &Default::default(), Serial, NO_OBS);
        let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
        for seed in [0, 1] {
            assert_eq!(space.similarity(&space.centroid(&[seed]), 2), 0.0);
        }
        let seeds = [vec![0], vec![1]];
        let one_pass = KMeansOptions::new().with_max_iterations(1);
        let km = kmeans(&space, &seeds, &one_pass, Serial, NO_OBS);
        assert_eq!(km.partition.clusters(), &[vec![0, 2], vec![1]]);

        let partition = Partition::new(seeds.to_vec(), 3);
        assert_eq!(assign_to_clusters(&space, &partition, &[2]), vec![(2, 0)]);
        let mut inc = IncrementalClusters::from_partition(&space, &partition);
        assert_eq!(inc.assign(&space, 2), 0);
    }

    #[test]
    fn empty_partition_assigns_nothing() {
        let pages = ["<p>x y z</p>"];
        let corpus = FormPageCorpus::from_html(pages, &Default::default(), Serial, NO_OBS);
        let space = FormPageSpace::new(&corpus, FeatureConfig::PcOnly);
        let partition = Partition::new(vec![vec![]], 1);
        assert!(assign_to_clusters(&space, &partition, &[0]).is_empty());
    }
}
