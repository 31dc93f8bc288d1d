//! End-to-end integration: synthetic web → form-page model → CAFC-C /
//! CAFC-CH → evaluation. Crosses every crate in the workspace.

use cafc::ExecPolicy::Serial;
use cafc::{
    cafc_c, cafc_ch, CafcChConfig, CafcChOutcome, FeatureConfig, FormPageCorpus, FormPageSpace,
    HubClusterOptions, KMeansOptions, ModelOptions, Obs,
};
use cafc_corpus::{generate, CorpusConfig, Domain, SyntheticWeb};
use cafc_eval::{entropy, f_measure, EntropyBase};
use cafc_webgraph::PageId;
use rand::rngs::StdRng;
use rand::SeedableRng;

const NO_OBS: &Obs = &Obs::disabled();

/// The small synthetic web for `seed`, its form pages, and their model.
fn small_web(seed: u64, anchors: bool) -> (SyntheticWeb, Vec<PageId>, FormPageCorpus) {
    let web = generate(&CorpusConfig::small(seed));
    let targets = web.form_page_ids();
    let opts = ModelOptions::default();
    let corpus = if anchors {
        FormPageCorpus::from_graph_with_anchors(&web.graph, &targets, &opts, Serial, NO_OBS)
    } else {
        FormPageCorpus::from_graph(&web.graph, &targets, &opts, Serial, NO_OBS)
    };
    (web, targets, corpus)
}

/// CAFC-CH at k = 8 (hub cardinality ≥ 4) with the RNG seeded by `seed`.
fn run_ch(
    web: &SyntheticWeb,
    targets: &[PageId],
    space: &FormPageSpace,
    seed: u64,
) -> CafcChOutcome {
    let config = CafcChConfig::paper_default(8).with_hub(HubClusterOptions {
        min_cardinality: 4,
        ..Default::default()
    });
    let mut rng = StdRng::seed_from_u64(seed);
    cafc_ch(
        &web.graph, targets, space, &config, &mut rng, Serial, NO_OBS,
    )
}

/// Mean CAFC-C entropy at k = 8 over RNG seeds 0..5.
fn mean_cafc_c_entropy(space: &FormPageSpace, labels: &[Domain]) -> f64 {
    let opts = KMeansOptions::default();
    let mut acc = 0.0;
    for run in 0..5u64 {
        let mut rng = StdRng::seed_from_u64(run);
        let out = cafc_c(space, 8, &opts, &mut rng, Serial, NO_OBS);
        acc += entropy(out.partition.clusters(), labels, EntropyBase::Two);
    }
    acc / 5.0
}

#[test]
fn end_to_end_cafc_ch_beats_random_chance() {
    let (web, targets, corpus) = small_web(1, false);
    let labels = web.labels();
    let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
    let result = run_ch(&web, &targets, &space, 2);
    let clusters = result.outcome.partition.clusters();

    let e = entropy(clusters, &labels, EntropyBase::Two);
    let f = f_measure(clusters, &labels);
    // Random assignment over 8 domains would give entropy near 3 bits and
    // F near 1/8; CAFC-CH must be far better.
    assert!(e < 1.2, "entropy {e} too high");
    assert!(f > 0.6, "F-measure {f} too low");
    assert_eq!(result.outcome.partition.num_assigned(), targets.len());
}

#[test]
fn cafc_ch_beats_cafc_c_on_average() {
    let (web, targets, corpus) = small_web(5, false);
    let labels = web.labels();
    let space = FormPageSpace::new(&corpus, FeatureConfig::combined());

    let c_entropy = mean_cafc_c_entropy(&space, &labels);
    let ch = run_ch(&web, &targets, &space, 9);
    let ch_entropy = entropy(ch.outcome.partition.clusters(), &labels, EntropyBase::Two);
    assert!(
        ch_entropy < c_entropy,
        "hub seeding must improve entropy: CAFC-CH {ch_entropy} vs CAFC-C {c_entropy}"
    );
}

#[test]
fn combined_features_beat_fc_only() {
    let (web, _, corpus) = small_web(8, false);
    let labels = web.labels();
    let entropies: Vec<f64> = [FeatureConfig::FcOnly, FeatureConfig::combined()]
        .into_iter()
        .map(|config| mean_cafc_c_entropy(&FormPageSpace::new(&corpus, config), &labels))
        .collect();
    assert!(
        entropies[1] < entropies[0],
        "FC+PC ({}) must beat FC-only ({})",
        entropies[1],
        entropies[0]
    );
}

#[test]
fn deterministic_given_seeds() {
    let (web, targets, corpus) = small_web(3, false);
    let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
    let run = |seed| run_ch(&web, &targets, &space, seed).outcome.partition;
    assert_eq!(run(4), run(4));
}

#[test]
fn every_page_lands_in_exactly_one_cluster() {
    let (web, targets, corpus) = small_web(6, false);
    let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
    let result = run_ch(&web, &targets, &space, 6);
    let mut seen: Vec<usize> = result
        .outcome
        .partition
        .clusters()
        .iter()
        .flatten()
        .copied()
        .collect();
    seen.sort_unstable();
    let expect: Vec<usize> = (0..targets.len()).collect();
    assert_eq!(seen, expect);
}

#[test]
fn anchor_extension_produces_valid_space() {
    let (web, targets, corpus) = small_web(7, true);
    // Most pages receive in-link anchor text from hubs.
    let with_anchor_text = corpus.anchor.iter().filter(|v| !v.is_empty()).count();
    assert!(
        with_anchor_text * 2 > targets.len(),
        "only {with_anchor_text} of {} pages got anchor vectors",
        targets.len()
    );
    let space = FormPageSpace::new(
        &corpus,
        FeatureConfig::WithAnchors {
            c1: 1.0,
            c2: 1.0,
            c3: 1.0,
        },
    );
    let result = run_ch(&web, &targets, &space, 7);
    assert_eq!(result.outcome.partition.num_assigned(), targets.len());
}
