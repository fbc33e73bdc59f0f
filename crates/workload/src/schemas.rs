//! The three relational schemas the publications are "organised in"
//! (Section 5), plus the coordination-rule templates translating between
//! them.
//!
//! * **S1 — normalised**: `pub(id, title, year)` + `author(pid, name)`;
//! * **S2 — denormalised**: one wide
//!   `article(id, title, venue, year, first_author)` relation;
//! * **S3 — graph-ish**: `paper(id, title, year)` + `wrote(name, pid)` +
//!   `at_venue(pid, venue)`.
//!
//! S1 carries no venue, so the S1→S2 translation has an **existential**
//! venue variable — exercising labeled-null invention on realistic rules.
//! The template set is weakly acyclic on every topology: venue values only
//! ever flow between venue columns, which never feed back into S1 (see the
//! `templates_weakly_acyclic_on_cliques` test).

use crate::dblp::Publication;
use p2p_relational::Val;

/// Which of the three schemas a node uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemaFamily {
    /// Normalised two-relation schema.
    S1,
    /// Single wide relation.
    S2,
    /// Three-relation graph-ish schema.
    S3,
}

impl SchemaFamily {
    /// Round-robin assignment, matching "organised in 3 different relational
    /// schemas".
    pub fn for_node(node: u32) -> SchemaFamily {
        match node % 3 {
            0 => SchemaFamily::S1,
            1 => SchemaFamily::S2,
            _ => SchemaFamily::S3,
        }
    }

    /// Schema text for `DatabaseSchema::parse`.
    pub fn schema_text(self) -> &'static str {
        match self {
            SchemaFamily::S1 => "pub(id: int, title: str, year: int). author(pid: int, name: str).",
            SchemaFamily::S2 => {
                "article(id: int, title: str, venue: str, year: int, first_author: str)."
            }
            SchemaFamily::S3 => {
                "paper(id: int, title: str, year: int). wrote(name: str, pid: int). \
                 at_venue(pid: int, venue: str)."
            }
        }
    }

    /// Encodes one publication as tuples of this schema.
    pub fn tuples_for(self, p: &Publication) -> Vec<(&'static str, Vec<Val>)> {
        match self {
            SchemaFamily::S1 => {
                let mut out = vec![(
                    "pub",
                    vec![Val::Int(p.id), Val::str(&p.title), Val::Int(p.year)],
                )];
                for a in &p.authors {
                    out.push(("author", vec![Val::Int(p.id), Val::str(a)]));
                }
                out
            }
            SchemaFamily::S2 => vec![(
                "article",
                vec![
                    Val::Int(p.id),
                    Val::str(&p.title),
                    Val::str(&p.venue),
                    Val::Int(p.year),
                    Val::str(&p.authors[0]),
                ],
            )],
            SchemaFamily::S3 => {
                let mut out = vec![
                    (
                        "paper",
                        vec![Val::Int(p.id), Val::str(&p.title), Val::Int(p.year)],
                    ),
                    ("at_venue", vec![Val::Int(p.id), Val::str(&p.venue)]),
                ];
                for a in &p.authors {
                    out.push(("wrote", vec![Val::str(a), Val::Int(p.id)]));
                }
                out
            }
        }
    }

    /// Coordination-rule texts importing `src`'s data (in `src_family`) into
    /// a node of `self`'s family. `src` and `dst` are node names as known to
    /// the system builder.
    pub fn import_rules(self, src_family: SchemaFamily, src: &str, dst: &str) -> Vec<String> {
        use SchemaFamily::*;
        match (src_family, self) {
            (S1, S1) => vec![
                format!("{src}:pub(I,T,Y) => {dst}:pub(I,T,Y)"),
                format!("{src}:author(I,N) => {dst}:author(I,N)"),
            ],
            (S2, S1) => vec![
                format!("{src}:article(I,T,V,Y,N) => {dst}:pub(I,T,Y)"),
                format!("{src}:article(I,T,V,Y,N) => {dst}:author(I,N)"),
            ],
            (S3, S1) => vec![
                format!("{src}:paper(I,T,Y) => {dst}:pub(I,T,Y)"),
                format!("{src}:wrote(N,I) => {dst}:author(I,N)"),
            ],
            // S1 has no venue: V is existential (labeled-null invention).
            (S1, S2) => vec![format!(
                "{src}:pub(I,T,Y), {src}:author(I,N) => {dst}:article(I,T,V,Y,N)"
            )],
            (S2, S2) => vec![format!(
                "{src}:article(I,T,V,Y,N) => {dst}:article(I,T,V,Y,N)"
            )],
            (S3, S2) => vec![format!(
                "{src}:paper(I,T,Y), {src}:wrote(N,I), {src}:at_venue(I,V) => \
                 {dst}:article(I,T,V,Y,N)"
            )],
            (S1, S3) => vec![
                format!("{src}:pub(I,T,Y) => {dst}:paper(I,T,Y)"),
                format!("{src}:author(I,N) => {dst}:wrote(N,I)"),
            ],
            (S2, S3) => vec![
                format!("{src}:article(I,T,V,Y,N) => {dst}:paper(I,T,Y)"),
                format!("{src}:article(I,T,V,Y,N) => {dst}:wrote(N,I)"),
                format!("{src}:article(I,T,V,Y,N) => {dst}:at_venue(I,V)"),
            ],
            (S3, S3) => vec![
                format!("{src}:paper(I,T,Y) => {dst}:paper(I,T,Y)"),
                format!("{src}:wrote(N,I) => {dst}:wrote(N,I)"),
                format!("{src}:at_venue(I,V) => {dst}:at_venue(I,V)"),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dblp::DblpGenerator;
    use p2p_relational::query::Idents;
    use p2p_relational::DatabaseSchema;

    #[test]
    fn schema_texts_parse() {
        for f in [SchemaFamily::S1, SchemaFamily::S2, SchemaFamily::S3] {
            DatabaseSchema::parse(f.schema_text()).unwrap();
        }
    }

    #[test]
    fn tuples_fit_their_schema() {
        let mut gen = DblpGenerator::new(5);
        for f in [SchemaFamily::S1, SchemaFamily::S2, SchemaFamily::S3] {
            let schema = DatabaseSchema::parse(f.schema_text()).unwrap();
            let mut db = p2p_relational::Database::new(schema);
            for p in gen.batch(20) {
                for (rel, vals) in f.tuples_for(&p) {
                    db.insert_values(rel, vals).unwrap();
                }
            }
            assert!(db.total_tuples() >= 20);
        }
    }

    #[test]
    fn round_robin_families() {
        assert_eq!(SchemaFamily::for_node(0), SchemaFamily::S1);
        assert_eq!(SchemaFamily::for_node(1), SchemaFamily::S2);
        assert_eq!(SchemaFamily::for_node(2), SchemaFamily::S3);
        assert_eq!(SchemaFamily::for_node(3), SchemaFamily::S1);
    }

    #[test]
    fn all_nine_template_pairs_parse_as_rules() {
        use p2p_core::rule::CoordinationRule;
        use p2p_topology::NodeId;
        let resolve = |s: &str| match s {
            "A" => Some(NodeId(0)),
            "B" => Some(NodeId(1)),
            _ => None,
        };
        for src in [SchemaFamily::S1, SchemaFamily::S2, SchemaFamily::S3] {
            for dst in [SchemaFamily::S1, SchemaFamily::S2, SchemaFamily::S3] {
                for (k, text) in dst.import_rules(src, "B", "A").iter().enumerate() {
                    CoordinationRule::parse(
                        &format!("t{k}"),
                        text,
                        None,
                        &resolve,
                        &mut Idents::new(),
                    )
                    .unwrap_or_else(|e| panic!("{src:?}->{dst:?} [{text}]: {e}"));
                }
            }
        }
    }

    #[test]
    fn templates_weakly_acyclic_on_cliques() {
        // A 6-node clique (two nodes per family) with rules in both
        // directions everywhere: the S1→S2 existential must not create a
        // special-edge cycle.
        use p2p_core::rule::{CoordinationRule, RuleSet};
        use p2p_topology::NodeId;
        let name = |i: u32| NodeId(i).letter();
        let resolve = |s: &str| -> Option<NodeId> { (0..6u32).find(|i| name(*i) == s).map(NodeId) };
        let mut set = RuleSet::new();
        let mut k = 0;
        for i in 0..6u32 {
            for j in 0..6u32 {
                if i == j {
                    continue;
                }
                let dst_f = SchemaFamily::for_node(i);
                let src_f = SchemaFamily::for_node(j);
                for text in dst_f.import_rules(src_f, &name(j), &name(i)) {
                    k += 1;
                    set.add(
                        CoordinationRule::parse(
                            &format!("r{k}"),
                            &text,
                            None,
                            &resolve,
                            &mut Idents::new(),
                        )
                        .unwrap(),
                    )
                    .unwrap();
                }
            }
        }
        assert!(set.len() > 30);
        assert_eq!(set.check_weak_acyclicity(), Ok(()));
    }
}
