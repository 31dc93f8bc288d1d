//! The clustering space over form pages: Equation 3 similarity and
//! Equation 4 centroids, generic over which feature spaces participate.

use crate::model::FormPageCorpus;
use cafc_cluster::ClusterSpace;
use cafc_vsm::SparseVector;

/// Which feature spaces contribute to similarity, and with what weights
/// (the `C1`/`C2` of Equation 3; the paper uses `C1 = C2 = 1`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FeatureConfig {
    /// Form contents only.
    FcOnly,
    /// Page contents only.
    PcOnly,
    /// `sim = (C1·cos(PC) + C2·cos(FC)) / (C1 + C2)` — the paper's FC+PC.
    Combined {
        /// Page-content weight `C1`.
        c1: f64,
        /// Form-content weight `C2`.
        c2: f64,
    },
    /// The §6 extension: PC + FC + in-link anchor text.
    WithAnchors {
        /// Page-content weight.
        c1: f64,
        /// Form-content weight.
        c2: f64,
        /// Anchor-text weight.
        c3: f64,
    },
}

impl FeatureConfig {
    /// The paper's headline configuration: FC+PC with equal weights.
    pub fn combined() -> Self {
        FeatureConfig::Combined { c1: 1.0, c2: 1.0 }
    }
}

impl Default for FeatureConfig {
    fn default() -> Self {
        FeatureConfig::combined()
    }
}

/// A multi-space centroid (Equation 4: per-space member average).
#[derive(Debug, Clone, Default)]
pub struct MultiCentroid {
    /// Page-content centroid.
    pub pc: SparseVector,
    /// Form-content centroid.
    pub fc: SparseVector,
    /// Anchor-text centroid.
    pub anchor: SparseVector,
}

/// The [`ClusterSpace`] over a [`FormPageCorpus`].
#[derive(Debug, Clone, Copy)]
pub struct FormPageSpace<'a> {
    corpus: &'a FormPageCorpus,
    config: FeatureConfig,
}

impl<'a> FormPageSpace<'a> {
    /// Wrap a corpus with a feature configuration.
    pub fn new(corpus: &'a FormPageCorpus, config: FeatureConfig) -> Self {
        FormPageSpace { corpus, config }
    }

    /// The underlying corpus.
    pub fn corpus(&self) -> &'a FormPageCorpus {
        self.corpus
    }

    /// The feature configuration.
    pub fn config(&self) -> FeatureConfig {
        self.config
    }

    /// Equation 3: the weighted average of per-space cosines **over the
    /// spaces that are actually enabled and populated**. `anchor` is `None`
    /// when the anchor space carries no signal for the pair (both vectors
    /// empty — e.g. a corpus built without in-link anchor text); a missing
    /// space must drop out of both the numerator *and* the denominator,
    /// otherwise an anchor-less corpus under [`FeatureConfig::WithAnchors`]
    /// would have every similarity diluted by `(c1+c2)/(c1+c2+c3)`.
    fn combine(&self, pc: f64, fc: f64, anchor: Option<f64>) -> f64 {
        match self.config {
            FeatureConfig::FcOnly => fc,
            FeatureConfig::PcOnly => pc,
            FeatureConfig::Combined { c1, c2 } => (c1 * pc + c2 * fc) / (c1 + c2),
            FeatureConfig::WithAnchors { c1, c2, c3 } => match anchor {
                Some(anchor) => (c1 * pc + c2 * fc + c3 * anchor) / (c1 + c2 + c3),
                None => (c1 * pc + c2 * fc) / (c1 + c2),
            },
        }
    }
}

/// The anchor-space cosine for [`FormPageSpace::combine`]: `None` when the
/// space is silent for this pair (both vectors empty), so it cannot dilute
/// the Equation 3 average.
fn anchor_cosine(a: &SparseVector, b: &SparseVector) -> Option<f64> {
    if a.is_empty() && b.is_empty() {
        None
    } else {
        Some(a.cosine(b))
    }
}

impl ClusterSpace for FormPageSpace<'_> {
    type Centroid = MultiCentroid;

    fn len(&self) -> usize {
        self.corpus.len()
    }

    fn centroid(&self, members: &[usize]) -> MultiCentroid {
        MultiCentroid {
            pc: SparseVector::centroid(members.iter().map(|&m| &self.corpus.pc[m])),
            fc: SparseVector::centroid(members.iter().map(|&m| &self.corpus.fc[m])),
            anchor: SparseVector::centroid(members.iter().map(|&m| &self.corpus.anchor[m])),
        }
    }

    fn similarity(&self, centroid: &MultiCentroid, item: usize) -> f64 {
        self.combine(
            centroid.pc.cosine(&self.corpus.pc[item]),
            centroid.fc.cosine(&self.corpus.fc[item]),
            anchor_cosine(&centroid.anchor, &self.corpus.anchor[item]),
        )
    }

    fn centroid_similarity(&self, a: &MultiCentroid, b: &MultiCentroid) -> f64 {
        self.combine(
            a.pc.cosine(&b.pc),
            a.fc.cosine(&b.fc),
            anchor_cosine(&a.anchor, &b.anchor),
        )
    }

    fn item_similarity(&self, a: usize, b: usize) -> f64 {
        self.combine(
            self.corpus.pc[a].cosine(&self.corpus.pc[b]),
            self.corpus.fc[a].cosine(&self.corpus.fc[b]),
            anchor_cosine(&self.corpus.anchor[a], &self.corpus.anchor[b]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FormPageCorpus;
    use crate::ExecPolicy::Serial;
    use crate::Obs;

    const NO_OBS: &Obs = &Obs::disabled();

    fn corpus() -> FormPageCorpus {
        // Two airfare-ish pages, one job page. Body text differs from form
        // text so FC and PC pull in different directions.
        let pages = [
            "<title>Flights</title><p>airfare travel deals vacation</p>\
             <form>departure arrival <input name=a></form>",
            "<p>airfare travel bargain vacation</p>\
             <form>departure return cabin <input name=b></form>",
            "<title>Jobs</title><p>careers employment salary resume</p>\
             <form>keywords category location <input name=c></form>",
        ];
        FormPageCorpus::from_html(pages, &Default::default(), Serial, NO_OBS)
    }

    #[test]
    fn similar_domain_pages_are_closer() {
        let c = corpus();
        let space = FormPageSpace::new(&c, FeatureConfig::combined());
        let same = space.item_similarity(0, 1);
        let diff = space.item_similarity(0, 2);
        assert!(
            same > diff,
            "same-domain sim {same} <= cross-domain sim {diff}"
        );
    }

    #[test]
    fn fc_only_ignores_body_text() {
        let pages = [
            // Identical forms, wildly different bodies.
            "<p>airfare travel flights</p><form>departure city <input name=a></form>",
            "<p>careers salary resume</p><form>departure city <input name=b></form>",
            "<p>third page noise words</p><form>other things <input name=c></form>",
        ];
        let c = FormPageCorpus::from_html(pages, &Default::default(), Serial, NO_OBS);
        let fc_space = FormPageSpace::new(&c, FeatureConfig::FcOnly);
        let sim = fc_space.item_similarity(0, 1);
        assert!(
            (sim - 1.0).abs() < 1e-9,
            "identical forms must have FC sim 1, got {sim}"
        );
        let pc_space = FormPageSpace::new(&c, FeatureConfig::PcOnly);
        assert!(pc_space.item_similarity(0, 1) < 0.5);
    }

    #[test]
    fn combined_is_average_of_spaces() {
        let c = corpus();
        let fc = FormPageSpace::new(&c, FeatureConfig::FcOnly).item_similarity(0, 1);
        let pc = FormPageSpace::new(&c, FeatureConfig::PcOnly).item_similarity(0, 1);
        let both = FormPageSpace::new(&c, FeatureConfig::combined()).item_similarity(0, 1);
        assert!(((fc + pc) / 2.0 - both).abs() < 1e-12);
    }

    #[test]
    fn unequal_weights_shift_the_average() {
        let c = corpus();
        let fc = FormPageSpace::new(&c, FeatureConfig::FcOnly).item_similarity(0, 1);
        let pc = FormPageSpace::new(&c, FeatureConfig::PcOnly).item_similarity(0, 1);
        let lopsided = FormPageSpace::new(&c, FeatureConfig::Combined { c1: 3.0, c2: 1.0 })
            .item_similarity(0, 1);
        assert!(((3.0 * pc + fc) / 4.0 - lopsided).abs() < 1e-12);
    }

    #[test]
    fn centroid_similarity_matches_item_for_singletons() {
        let c = corpus();
        let space = FormPageSpace::new(&c, FeatureConfig::combined());
        let ca = space.centroid(&[0]);
        let cb = space.centroid(&[2]);
        assert!((space.centroid_similarity(&ca, &cb) - space.item_similarity(0, 2)).abs() < 1e-12);
    }

    #[test]
    fn empty_anchor_space_does_not_dilute_similarity() {
        // `from_html` builds no anchor vectors, so WithAnchors over this
        // corpus must degrade to exactly the two-space Equation 3 —
        // anchor-off and anchor-empty give identical similarities.
        let c = corpus();
        let combined = FormPageSpace::new(&c, FeatureConfig::Combined { c1: 2.0, c2: 1.0 });
        let with_anchors = FormPageSpace::new(
            &c,
            FeatureConfig::WithAnchors {
                c1: 2.0,
                c2: 1.0,
                c3: 5.0,
            },
        );
        for a in 0..3 {
            for b in 0..3 {
                let off = combined.item_similarity(a, b);
                let empty = with_anchors.item_similarity(a, b);
                assert_eq!(
                    off.to_bits(),
                    empty.to_bits(),
                    "sim({a},{b}): anchor-off {off} != anchor-empty {empty}"
                );
            }
        }
        // Same for the centroid paths used by k-means/HAC.
        let ca = with_anchors.centroid(&[0, 1]);
        let cb = with_anchors.centroid(&[2]);
        assert_eq!(
            with_anchors.centroid_similarity(&ca, &cb).to_bits(),
            combined.centroid_similarity(&ca, &cb).to_bits()
        );
        assert_eq!(
            with_anchors.similarity(&ca, 2).to_bits(),
            combined.similarity(&ca, 2).to_bits()
        );
    }

    #[test]
    fn populated_anchor_space_still_weighs_in() {
        let c = corpus();
        let space = FormPageSpace::new(
            &c,
            FeatureConfig::WithAnchors {
                c1: 1.0,
                c2: 1.0,
                c3: 2.0,
            },
        );
        // A present (even one-sided) anchor signal re-enters the average.
        assert_eq!(space.combine(0.8, 0.4, Some(1.0)), (0.8 + 0.4 + 2.0) / 4.0);
        assert_eq!(space.combine(0.8, 0.4, None), (0.8 + 0.4) / 2.0);
    }

    #[test]
    fn anchor_cosine_is_none_only_when_both_sides_empty() {
        let empty = SparseVector::default();
        let full = SparseVector::from_entries(vec![(cafc_text::TermId(0), 1.0)]);
        assert_eq!(anchor_cosine(&empty, &empty), None);
        assert_eq!(anchor_cosine(&full, &empty), Some(0.0));
        assert_eq!(anchor_cosine(&empty, &full), Some(0.0));
        assert_eq!(anchor_cosine(&full, &full), Some(1.0));
    }

    #[test]
    fn similarity_in_unit_interval() {
        let c = corpus();
        for config in [
            FeatureConfig::FcOnly,
            FeatureConfig::PcOnly,
            FeatureConfig::combined(),
            FeatureConfig::WithAnchors {
                c1: 1.0,
                c2: 1.0,
                c3: 1.0,
            },
        ] {
            let space = FormPageSpace::new(&c, config);
            for a in 0..3 {
                for b in 0..3 {
                    let s = space.item_similarity(a, b);
                    assert!((0.0..=1.0).contains(&s), "{config:?}: sim({a},{b}) = {s}");
                }
            }
        }
    }
}
