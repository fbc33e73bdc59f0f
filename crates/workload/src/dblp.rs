//! Deterministic synthetic publication records.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One bibliographic record — the unit the paper counts ("about 20000
/// records about publications, about 1000 per node").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Publication {
    /// Globally unique id (plays the URI role of shared constants,
    /// Definition 1).
    pub id: i64,
    /// Title.
    pub title: String,
    /// Publication year.
    pub year: i64,
    /// Venue name.
    pub venue: String,
    /// Authors (1–3), first is the "first author".
    pub authors: Vec<String>,
}

const FIRST_NAMES: &[&str] = &[
    "ana",
    "boris",
    "carla",
    "dmitri",
    "elena",
    "franz",
    "gabriella",
    "henrik",
    "ilya",
    "jan",
    "katja",
    "luigi",
    "marta",
    "nikos",
    "olga",
    "paolo",
    "quentin",
    "rosa",
    "stefan",
    "tanya",
    "umberto",
    "vera",
    "walter",
    "xenia",
    "yannis",
    "zoe",
];

const LAST_NAMES: &[&str] = &[
    "albano",
    "bernstein",
    "calvanese",
    "degiacomo",
    "eiter",
    "franconi",
    "ghidini",
    "halevy",
    "ives",
    "jarke",
    "kuper",
    "lenzerini",
    "mylopoulos",
    "nejdl",
    "ooi",
    "popa",
    "quass",
    "rosati",
    "serafini",
    "tatarinov",
    "ullman",
    "vianu",
    "widom",
    "xu",
    "yang",
    "zaihrayeu",
];

const VENUES: &[&str] = &[
    "vldb", "sigmod", "icde", "edbt", "icdt", "pods", "webdb", "cidr", "dbisp2p", "p2pdb",
    "semweb", "caise",
];

const TITLE_WORDS: &[&str] = &[
    "peer",
    "data",
    "query",
    "schema",
    "update",
    "exchange",
    "semantic",
    "distributed",
    "mediation",
    "integration",
    "coordination",
    "network",
    "logic",
    "answering",
    "views",
    "consistency",
    "discovery",
    "propagation",
    "fixpoint",
    "relational",
];

/// Seeded generator of [`Publication`]s.
#[derive(Debug)]
pub struct DblpGenerator {
    rng: StdRng,
    next_id: i64,
}

impl DblpGenerator {
    /// Creates a generator; equal seeds produce identical streams.
    pub fn new(seed: u64) -> Self {
        DblpGenerator {
            rng: StdRng::seed_from_u64(seed),
            next_id: 1,
        }
    }

    /// Generates one publication.
    pub(crate) fn publication(&mut self) -> Publication {
        let id = self.next_id;
        self.next_id += 1;
        let year = 1994 + self.rng.gen_range(0..11i64); // 1994–2004
        let venue = VENUES[self.rng.gen_range(0..VENUES.len())].to_string();
        let title_len = self.rng.gen_range(3..6usize);
        let mut title = String::new();
        for i in 0..title_len {
            if i > 0 {
                title.push(' ');
            }
            title.push_str(TITLE_WORDS[self.rng.gen_range(0..TITLE_WORDS.len())]);
        }
        let author_count = self.rng.gen_range(1..4usize);
        let mut authors = Vec::with_capacity(author_count);
        for _ in 0..author_count {
            let name = format!(
                "{} {}",
                FIRST_NAMES[self.rng.gen_range(0..FIRST_NAMES.len())],
                LAST_NAMES[self.rng.gen_range(0..LAST_NAMES.len())]
            );
            if !authors.contains(&name) {
                authors.push(name);
            }
        }
        Publication {
            id,
            title,
            year,
            venue,
            authors,
        }
    }

    /// Generates a batch.
    pub fn batch(&mut self, n: usize) -> Vec<Publication> {
        (0..n).map(|_| self.publication()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = DblpGenerator::new(7).batch(50);
        let b = DblpGenerator::new(7).batch(50);
        let c = DblpGenerator::new(8).batch(50);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn ids_are_unique_and_increasing() {
        let pubs = DblpGenerator::new(1).batch(100);
        for (i, p) in pubs.iter().enumerate() {
            assert_eq!(p.id, i as i64 + 1);
        }
    }

    #[test]
    fn fields_are_plausible() {
        for p in DblpGenerator::new(3).batch(200) {
            assert!((1994..=2004).contains(&p.year));
            assert!(!p.title.is_empty());
            assert!(!p.venue.is_empty());
            assert!(!p.authors.is_empty() && p.authors.len() <= 3);
            // Authors deduplicated.
            let mut names = p.authors.clone();
            names.sort();
            names.dedup();
            assert_eq!(names.len(), p.authors.len());
        }
    }
}
