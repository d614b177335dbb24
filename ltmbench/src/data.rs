//! Workload inputs drawn from `ltm_datagen::books`, plus the benchmark's
//! own Definition-3 bookkeeping over the triples it sends.
//!
//! Everything here is recomputed from plain `(entity, attribute, source)`
//! strings, independently of the claim tables the program builds, so the
//! program's counts and answers can be checked against it.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use ltm_datagen::books::{self, BookConfig};
use ltm_model::RawDatabase;

/// One raw row: `source` asserts `attr` for `entity` (paper Definition 1).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Triple {
    /// Entity (book) name.
    pub entity: String,
    /// Attribute value (author) name.
    pub attr: String,
    /// Source (seller) name.
    pub source: String,
}

impl Triple {
    /// Bytes of triple text a user sends: the three names.
    pub fn text_bytes(&self) -> usize {
        self.entity.len() + self.attr.len() + self.source.len()
    }
}

/// A generated book set: the raw database (for the offline path), the
/// same rows as name triples grouped by book, and the generator's truth
/// for every fact.
pub struct Books {
    /// The raw database exactly as the generator built it.
    pub raw: RawDatabase,
    /// Triples per book, books in generation order.
    pub by_book: Vec<Vec<Triple>>,
    /// Generator truth per `(entity, attr)` fact.
    pub truth: HashMap<(String, String), bool>,
}

/// Generates `num_books` books with the paper's 879 sellers and default
/// coverage. Every fact of every book is labeled by the generator.
pub fn generate(num_books: usize, seed: u64) -> Books {
    let generated = books::generate(&BookConfig {
        num_books,
        labeled_entities: num_books.min(100),
        seed,
        ..BookConfig::default()
    });
    let raw = generated.dataset.raw;
    let claims = generated.dataset.claims;
    let mut truth = HashMap::with_capacity(claims.num_facts());
    for f in claims.fact_ids() {
        let fact = claims.fact(f);
        let label = generated
            .full_truth
            .label(f)
            .unwrap_or_else(|| panic!("generator left fact {f:?} unlabeled"));
        truth.insert(
            (
                raw.entity_name(fact.entity).to_owned(),
                raw.attr_name(fact.attr).to_owned(),
            ),
            label,
        );
    }
    let mut by_book: Vec<Vec<Triple>> = vec![Vec::new(); raw.num_entities()];
    for row in raw.rows() {
        by_book[row.entity.index()].push(Triple {
            entity: raw.entity_name(row.entity).to_owned(),
            attr: raw.attr_name(row.attr).to_owned(),
            source: raw.source_name(row.source).to_owned(),
        });
    }
    Books {
        raw,
        by_book,
        truth,
    }
}

/// One fact under Definition 3: its claim list (one claim per source
/// covering the entity, in ascending source-name order) and how many of
/// those claims are positive.
#[derive(Debug, Clone, PartialEq)]
pub struct FactClaims {
    /// Entity name.
    pub entity: String,
    /// Attribute name.
    pub attr: String,
    /// `(source, asserted)` per covering source.
    pub claims: Vec<(String, bool)>,
}

impl FactClaims {
    /// Positive claims.
    pub fn positives(&self) -> usize {
        self.claims.iter().filter(|(_, o)| *o).count()
    }

    /// Majority vote: true when at least half the covering sources assert
    /// the fact.
    pub fn majority(&self) -> bool {
        2 * self.positives() >= self.claims.len()
    }
}

/// Facts, claims and positive claims implied by a triple set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Distinct `(entity, attr)` pairs.
    pub facts: usize,
    /// Σ over facts of the sources covering the fact's entity.
    pub claims: usize,
    /// Distinct triples.
    pub positive: usize,
}

/// The benchmark's own Definition-3 view of a set of triples: duplicates
/// collapse (Definition 1), every source that lists an entity covers all
/// of that entity's facts, and a covering source that does not assert a
/// fact contributes a negative claim.
#[derive(Debug, Default, Clone)]
pub struct Definition3 {
    /// Per entity: attribute → asserting sources.
    entities: BTreeMap<String, BTreeMap<String, BTreeSet<String>>>,
    /// Per entity: covering sources.
    cover: BTreeMap<String, BTreeSet<String>>,
}

impl Definition3 {
    /// An empty view.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds triples (duplicates are ignored).
    pub fn add<'a>(&mut self, triples: impl IntoIterator<Item = &'a Triple>) {
        for t in triples {
            self.entities
                .entry(t.entity.clone())
                .or_default()
                .entry(t.attr.clone())
                .or_default()
                .insert(t.source.clone());
            self.cover
                .entry(t.entity.clone())
                .or_default()
                .insert(t.source.clone());
        }
    }

    /// Facts, claims and positive claims of everything added so far.
    pub fn counts(&self) -> Counts {
        let mut c = Counts::default();
        for (entity, attrs) in &self.entities {
            let cover = self.cover[entity].len();
            c.facts += attrs.len();
            c.claims += attrs.len() * cover;
            c.positive += attrs.values().map(BTreeSet::len).sum::<usize>();
        }
        c
    }

    /// Every fact with its claim list, in `(entity, attr)` order.
    pub fn facts(&self) -> Vec<FactClaims> {
        let mut out = Vec::new();
        for (entity, attrs) in &self.entities {
            let cover = &self.cover[entity];
            for (attr, asserting) in attrs {
                out.push(FactClaims {
                    entity: entity.clone(),
                    attr: attr.clone(),
                    claims: cover
                        .iter()
                        .map(|s| (s.clone(), asserting.contains(s)))
                        .collect(),
                });
            }
        }
        out
    }
}

/// Share of `facts` whose score, thresholded at 0.5, matches the truth;
/// also the share the majority vote gets right on the same facts.
pub fn accuracy_vs_majority<'a>(
    facts: impl IntoIterator<Item = (&'a FactClaims, f64)>,
    truth: &HashMap<(String, String), bool>,
) -> (f64, f64) {
    let (mut n, mut hits, mut majority_hits) = (0usize, 0usize, 0usize);
    for (fact, score) in facts {
        let Some(&t) = truth.get(&(fact.entity.clone(), fact.attr.clone())) else {
            panic!("no truth for fact ({}, {})", fact.entity, fact.attr);
        };
        n += 1;
        hits += usize::from((score >= 0.5) == t);
        majority_hits += usize::from(fact.majority() == t);
    }
    assert!(n > 0, "accuracy over no facts");
    (hits as f64 / n as f64, majority_hits as f64 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(e: &str, a: &str, s: &str) -> Triple {
        Triple {
            entity: e.into(),
            attr: a.into(),
            source: s.into(),
        }
    }

    /// The paper's Table 1 example: three sources list the cast of Harry
    /// Potter, so Definition 3 gives its 4 facts × 3 covering sources,
    /// plus 1 × 1 for Pirates 4.
    fn table1() -> Vec<Triple> {
        vec![
            t("Harry Potter", "Daniel Radcliffe", "IMDB"),
            t("Harry Potter", "Emma Watson", "IMDB"),
            t("Harry Potter", "Rupert Grint", "IMDB"),
            t("Harry Potter", "Daniel Radcliffe", "Netflix"),
            t("Harry Potter", "Daniel Radcliffe", "BadSource.com"),
            t("Harry Potter", "Emma Watson", "BadSource.com"),
            t("Harry Potter", "Johnny Depp", "BadSource.com"),
            t("Pirates 4", "Johnny Depp", "Hulu.com"),
            // Duplicate rows collapse (Definition 1).
            t("Harry Potter", "Emma Watson", "IMDB"),
        ]
    }

    #[test]
    fn definition3_counts_match_the_paper_example() {
        let mut d = Definition3::new();
        d.add(&table1());
        // HP: 4 facts × 3 sources; Pirates: 1 fact × 1 source.
        assert_eq!(
            d.counts(),
            Counts {
                facts: 5,
                claims: 13,
                positive: 8,
            }
        );
    }

    #[test]
    fn definition3_claims_are_negative_for_covering_non_asserters() {
        let mut d = Definition3::new();
        d.add(&table1());
        let facts = d.facts();
        let depp = facts
            .iter()
            .find(|f| f.entity == "Harry Potter" && f.attr == "Johnny Depp")
            .unwrap();
        assert_eq!(
            depp.claims,
            vec![
                ("BadSource.com".to_owned(), true),
                ("IMDB".to_owned(), false),
                ("Netflix".to_owned(), false),
            ]
        );
        assert!(!depp.majority());
        let radcliffe = facts.iter().find(|f| f.attr == "Daniel Radcliffe").unwrap();
        assert_eq!(radcliffe.positives(), 3);
        assert!(radcliffe.majority());
        // Two of four: "at least half" counts as a majority.
        let grint = FactClaims {
            entity: "e".into(),
            attr: "a".into(),
            claims: vec![
                ("s0".into(), true),
                ("s1".into(), false),
                ("s2".into(), true),
                ("s3".into(), false),
            ],
        };
        assert!(grint.majority());
    }

    #[test]
    fn definition3_matches_the_library_claim_table() {
        let books = generate(40, 7);
        let mut d = Definition3::new();
        for b in &books.by_book {
            d.add(b);
        }
        let db = ltm_model::ClaimDb::from_raw(&books.raw);
        let c = d.counts();
        assert_eq!(c.facts, db.num_facts());
        assert_eq!(c.claims, db.num_claims());
        assert_eq!(c.positive, db.num_positive_claims());
        assert_eq!(books.truth.len(), c.facts);
    }
}
