//! Differential oracles over the core pipeline: pairs of code paths that
//! are contractually equivalent, pinned against each other on *generated*
//! corpora via `cafc_check::check_equiv`. Any disagreement is shrunk to a
//! minimal witness and reported with a replayable `CAFC_CHECK_SEED`.

use cafc::ExecPolicy::Serial;
use cafc::{
    Algorithm, FeatureConfig, FormPageCorpus, FormPageSpace, IngestLimits, IngestReport, Linkage,
    ModelOptions, Pipeline,
};
use cafc_check::corpus::clean_html_corpus;
use cafc_check::gen::{pairs, usizes, Gen};
use cafc_check::{check, check_equiv, require, require_eq, CheckConfig};
use cafc_cluster::Partition;
use cafc_corpus::{mutate_page, page_rng, Mutation};
use cafc_exec::ExecPolicy;
use cafc_obs::Obs;
use rand::rngs::StdRng;
use rand::SeedableRng;

const NO_OBS: &Obs = &Obs::disabled();

/// A generated corpus plus an independent clustering seed.
fn corpus_and_seed() -> Gen<(Vec<String>, usize)> {
    pairs(&clean_html_corpus(3, 6), &usizes(0, 9_999))
}

/// Pipelines run whole k-means clusterings per case; keep the case count
/// modest so the suite stays in test-blink territory.
fn cfg() -> CheckConfig {
    let base = CheckConfig::new();
    let cases = base.cases.min(24);
    base.with_cases(cases)
}

fn run_pipeline(pages: &[String], seed: u64, exec: ExecPolicy, obs: Obs) -> Partition {
    let refs: Vec<&str> = pages.iter().map(String::as_str).collect();
    Pipeline::builder()
        .algorithm(Algorithm::CafcC { k: 2 })
        .seed(seed)
        .exec(exec)
        .obs(obs)
        .build()
        .run_html(&refs)
        .expect("CafcC accepts HTML input")
        .partition
}

/// The `Pipeline` front door and the direct stage-function path
/// (`from_html` → `FormPageSpace` → `cafc_c`) must produce the identical
/// partition for the same seed.
#[test]
fn pipeline_matches_direct_cafc_c() {
    check_equiv(
        "Pipeline::run_html == from_html + cafc_c",
        &cfg(),
        &corpus_and_seed(),
        |(pages, seed)| run_pipeline(pages, *seed as u64, ExecPolicy::Serial, Obs::disabled()),
        |(pages, seed)| {
            let corpus = FormPageCorpus::from_html(
                pages.iter().map(String::as_str),
                &Default::default(),
                Serial,
                NO_OBS,
            );
            let space = FormPageSpace::new(&corpus, FeatureConfig::default());
            let mut rng = StdRng::seed_from_u64(*seed as u64);
            cafc::cafc_c(&space, 2, &Default::default(), &mut rng, Serial, NO_OBS).partition
        },
    );
}

/// Execution policy changes wall-clock only: `Serial` and `Parallel { 3 }`
/// produce bit-identical partitions.
#[test]
fn serial_matches_parallel() {
    check_equiv(
        "ExecPolicy::Serial == ExecPolicy::Parallel{3}",
        &cfg(),
        &corpus_and_seed(),
        |(pages, seed)| run_pipeline(pages, *seed as u64, ExecPolicy::Serial, Obs::disabled()),
        |(pages, seed)| {
            run_pipeline(
                pages,
                *seed as u64,
                ExecPolicy::Parallel { threads: 3 },
                Obs::disabled(),
            )
        },
    );
}

/// Every HTML-input algorithm (CAFC-C, HAC, bisecting k-means), each over
/// raw `from_html` and over hardened ingest, run under one `Obs` handle:
/// the six partitions and ingest reports.
fn every_html_run(
    pages: &[String],
    seed: u64,
    obs: &Obs,
) -> Vec<(Partition, Option<IngestReport>)> {
    let refs: Vec<&str> = pages.iter().map(String::as_str).collect();
    let algorithms = [
        Algorithm::CafcC { k: 2 },
        Algorithm::Hac {
            k: 2,
            linkage: Linkage::Centroid,
        },
        Algorithm::Bisect { k: 2, trials: 2 },
    ];
    let mut runs = Vec::new();
    for algorithm in algorithms {
        for hardened in [false, true] {
            let mut builder = Pipeline::builder()
                .algorithm(algorithm.clone())
                .seed(seed)
                .obs(obs.clone());
            if hardened {
                builder = builder.ingest_limits(IngestLimits::new());
            }
            let out = builder
                .build()
                .run_html(&refs)
                .expect("HTML input suffices");
            runs.push((out.partition, out.ingest));
        }
    }
    runs
}

/// Observability is read-only: an enabled `Obs` handle never changes the
/// clustering or the ingest report of any HTML-input algorithm, over raw
/// or hardened ingest — and the enabled handle really recorded each stage.
#[test]
fn metrics_on_matches_metrics_off() {
    check_equiv(
        "Obs::enabled == Obs::disabled",
        &cfg(),
        &corpus_and_seed(),
        |(pages, seed)| every_html_run(pages, *seed as u64, NO_OBS),
        |(pages, seed)| {
            let obs = Obs::enabled();
            let runs = every_html_run(pages, *seed as u64, &obs);
            let counters = obs.snapshot().counters;
            for stage in [
                "ingest.pages_total",
                "kmeans.iterations",
                "hac.merges",
                "bisect.splits",
            ] {
                assert!(
                    counters.iter().any(|(name, _)| name == stage),
                    "{stage} not recorded"
                );
            }
            runs
        },
    );
}

fn mutated(pages: &[String], seed: u64) -> Vec<String> {
    pages
        .iter()
        .enumerate()
        .map(|(i, html)| mutate_page(html, &Mutation::ALL, 2, &mut page_rng(seed, i)))
        .collect()
}

/// Tight enough that mutated pages actually hit the degraded and
/// quarantined outcomes, not just `Ok`.
fn tight_limits() -> IngestLimits {
    IngestLimits::new()
        .with_hard_max_bytes(64 * 1024)
        .with_soft_max_bytes(8 * 1024)
        .with_max_terms(2_000)
}

/// Clean generated corpora ingest losslessly: nothing is quarantined
/// (titleless or form-empty pages may be kept as `Degraded`, but every
/// page survives into the corpus) and accounting balances.
#[test]
fn clean_ingestion_accounts_for_every_page() {
    check!(cfg(), clean_html_corpus(1, 8), |pages: &Vec<String>| {
        let (corpus, report) = FormPageCorpus::from_html_ingest(
            pages.iter().map(String::as_str),
            &ModelOptions::default(),
            &IngestLimits::default(),
            Serial,
            NO_OBS,
        );
        require!(report.is_accounted(), "accounting identity broken");
        require_eq!(report.quarantined(), 0);
        require_eq!(report.ok() + report.degraded(), report.total());
        require_eq!(corpus.len(), pages.len());
        Ok(())
    });
}

/// Adversarially mutated corpora still balance the books:
/// `ok + degraded + quarantined == total` and the built corpus holds
/// exactly the kept pages — no input silently dropped or double-counted.
#[test]
fn mutated_ingestion_accounts_for_every_page() {
    let cases = pairs(&clean_html_corpus(1, 5), &usizes(0, 9_999));
    check!(cfg().with_cases(cfg().cases.min(12)), cases, |(
        pages,
        seed,
    )| {
        let hostile = mutated(pages, *seed as u64);
        let (corpus, report) = FormPageCorpus::from_html_ingest(
            hostile.iter().map(String::as_str),
            &ModelOptions::default(),
            &tight_limits(),
            Serial,
            NO_OBS,
        );
        require!(report.is_accounted(), "accounting identity broken");
        require_eq!(report.total(), pages.len());
        require_eq!(corpus.len(), report.ok() + report.degraded());
        require_eq!(corpus.len(), report.kept.len());
        Ok(())
    });
}

/// Ingestion accounting is execution-policy invariant: the outcome
/// sequence and kept-mapping are identical under `Serial` and
/// `Parallel { 3 }`, even on hostile input.
#[test]
fn ingestion_accounting_is_exec_invariant() {
    let cases = pairs(&clean_html_corpus(1, 5), &usizes(0, 9_999));
    let tally = |pages: &[String], seed: u64, policy: ExecPolicy| {
        let hostile = mutated(pages, seed);
        let (corpus, report) = FormPageCorpus::from_html_ingest(
            hostile.iter().map(String::as_str),
            &ModelOptions::default(),
            &tight_limits(),
            policy,
            NO_OBS,
        );
        (
            report.ok(),
            report.degraded(),
            report.quarantined(),
            report.kept.clone(),
            corpus.len(),
        )
    };
    check_equiv(
        "ingest accounting: Serial == Parallel{3}",
        &cfg().with_cases(cfg().cases.min(12)),
        &cases,
        |(pages, seed)| tally(pages, *seed as u64, ExecPolicy::Serial),
        |(pages, seed)| tally(pages, *seed as u64, ExecPolicy::Parallel { threads: 3 }),
    );
}
