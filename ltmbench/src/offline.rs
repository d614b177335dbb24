//! The offline phase: raw triples through `ClaimDb::from_raw` and a
//! two-chain `fit_chains` (the paper's 100/20/4 schedule, book priors),
//! repeated in whole rounds.

use std::time::{Duration, Instant};

use ltm_core::{fit_chains, LtmConfig, Priors, SampleSchedule};
use ltm_model::ClaimDb;

use crate::data::{self, Books, Definition3};
use crate::report::{Report, Samples};
use crate::stats::median;

/// Chains per fit, as `ltm serve` runs them.
const CHAINS: usize = 2;

/// Inputs of the offline phase.
pub struct Offline {
    books: Books,
    config: LtmConfig,
}

/// Generates the phase's books (the whole of its set-up).
pub fn setup(num_books: usize, seed: u64) -> Offline {
    Offline {
        books: data::generate(num_books, seed),
        config: LtmConfig {
            priors: Priors::paper_books(),
            schedule: SampleSchedule::paper_default(),
            seed,
            ..LtmConfig::default()
        },
    }
}

/// Runs whole rounds until `budget` is spent (at least `min_rounds`),
/// records `fit_s` and, when traced, the Gibbs layers, then checks the
/// fit. Returns the phase's accuracy.
pub fn run(off: &Offline, budget: Duration, min_rounds: usize, trace: bool, r: &mut Report) -> f64 {
    let mut fit_s = Samples::default();
    let (mut from_raw_ms, mut chains_ms, mut one_chain_ms, mut updates) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    let mut first: Option<Vec<f64>> = None;
    let mut last = None;
    let mut round = 0usize;
    while round < min_rounds || started.elapsed() < budget {
        let traced = trace && round % 2 == 1;
        // Free the previous round's tables first, so no two rounds' data
        // are ever alive at once.
        drop(last.take());
        let t0 = Instant::now();
        let db = ClaimDb::from_raw(&off.books.raw);
        let t1 = Instant::now();
        let fit = fit_chains(&db, &off.config, CHAINS);
        let t2 = Instant::now();
        r.op(true);
        fit_s.push(traced, (t2 - t0).as_secs_f64());
        if traced {
            from_raw_ms.push((t1 - t0).as_secs_f64() * 1e3);
            chains_ms.push((t2 - t1).as_secs_f64() * 1e3);
            let work = db.num_claims() * off.config.schedule.iterations * CHAINS;
            updates.push(work as f64 / (t2 - t1).as_secs_f64());
            let t3 = Instant::now();
            let one = fit_chains(&db, &off.config, 1);
            one_chain_ms.push(t3.elapsed().as_secs_f64() * 1e3);
            std::hint::black_box(one);
        }
        match &first {
            None => first = Some(fit.truth.probs().to_vec()),
            Some(p) => r.check(p.as_slice() == fit.truth.probs(), || {
                format!("offline: round {round} posterior differs from round 0 under one seed")
            }),
        }
        last = Some((db, fit));
        round += 1;
    }
    r.e2e_samples("fit_s", &fit_s, "s", median);
    r.layer_median("model.from_raw_ms", &from_raw_ms, "ms");
    r.layer_median("gibbs.fit_chains_ms", &chains_ms, "ms");
    r.layer_median("gibbs.fit_one_chain_ms", &one_chain_ms, "ms");
    r.layer_median("gibbs.claim_updates_per_s", &updates, "1/s");

    let (db, fit) = last.expect("at least one round");
    check(off, &db, &fit, r)
}

/// Counts against the benchmark's own Definition-3 view, probabilities
/// in range, accuracy at least the majority vote.
fn check(off: &Offline, db: &ClaimDb, fit: &ltm_core::MultiChainFit, r: &mut Report) -> f64 {
    let mut view = Definition3::new();
    for book in &off.books.by_book {
        view.add(book);
    }
    let want = view.counts();
    let got = (db.num_facts(), db.num_claims(), db.num_positive_claims());
    r.check(got == (want.facts, want.claims, want.positive), || {
        format!(
            "offline: claim table (facts, claims, positive) = {got:?}, Definition 3 gives {want:?}"
        )
    });
    r.check(
        fit.truth.probs().iter().all(|p| (0.0..=1.0).contains(p)),
        || "offline: a posterior lies outside [0, 1]".into(),
    );
    let quality_ok = fit
        .quality
        .iter()
        .all(|(_, q)| (0.0..=1.0).contains(&q.sensitivity) && (0.0..=1.0).contains(&q.specificity));
    r.check(quality_ok, || {
        "offline: a source quality lies outside [0, 1]".into()
    });

    // Join the fit's facts to the benchmark's own fact list by name.
    let raw = &off.books.raw;
    let mut posterior = std::collections::HashMap::with_capacity(db.num_facts());
    for f in db.fact_ids() {
        let fact = db.fact(f);
        posterior.insert(
            (raw.entity_name(fact.entity), raw.attr_name(fact.attr)),
            fit.truth.prob(f),
        );
    }
    let facts = view.facts();
    let scored = facts.iter().map(|fc| {
        let p = posterior
            .get(&(fc.entity.as_str(), fc.attr.as_str()))
            .copied()
            .unwrap_or(f64::NAN);
        (fc, p)
    });
    let (accuracy, majority) = data::accuracy_vs_majority(scored, &off.books.truth);
    r.check(accuracy >= majority, || {
        format!("offline: accuracy {accuracy:.4} is below the majority vote's {majority:.4}")
    });
    accuracy
}
