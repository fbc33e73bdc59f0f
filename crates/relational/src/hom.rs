//! Homomorphism checks between fact sets containing labeled nulls.
//!
//! Two distinct jobs share this question:
//!
//! 1. **The restricted-chase guard** (algorithm A6): before instantiating a
//!    rule head, the updater asks whether some homomorphic image of the head
//!    — universal positions fixed by the binding, existential positions
//!    flexible — already exists in the database. If so, inserting would add
//!    no information and is skipped; this is what bounds null invention.
//!    [`crate::chase::CompiledHead`] runs the same backtracking search over
//!    its compiled atoms instead of building [`FactPattern`]s per binding.
//! 2. **Comparing databases modulo null renaming**: two runs of the
//!    distributed algorithm (or a run vs. the global fix-point oracle) mint
//!    differently-labeled nulls for the same existential facts. Database
//!    equivalence is therefore homomorphic equivalence, not equality.

use crate::database::Database;
use crate::value::{NullId, Val};
use std::collections::HashMap;
use std::sync::Arc;

/// A term of a fact pattern: either a fixed value that must match exactly, or
/// a flexible variable to be mapped consistently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatTerm {
    /// Must match this exact value (constants, and nulls that already exist).
    Fixed(Val),
    /// A variable; all occurrences of the same id must map to one value.
    Flex(usize),
}

/// A fact with pattern terms, to be matched against a relation instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FactPattern {
    /// Target relation name.
    pub relation: Arc<str>,
    /// Pattern terms, one per column.
    pub terms: Vec<PatTerm>,
}

/// True iff there is an assignment of the flexible variables such that every
/// pattern is a fact of `db`. Fixed values (including existing nulls) must
/// match exactly.
///
/// Backtracking search; patterns are matched in order, most-constrained
/// first would be an optimization but head conjunctions are tiny (1–3 atoms)
/// so plain order suffices.
pub fn satisfiable(patterns: &[FactPattern], db: &Database) -> bool {
    let mut assignment: HashMap<usize, Val> = HashMap::new();
    backtrack(patterns, 0, db, &mut assignment)
}

fn backtrack(
    patterns: &[FactPattern],
    idx: usize,
    db: &Database,
    assignment: &mut HashMap<usize, Val>,
) -> bool {
    let Some(pat) = patterns.get(idx) else {
        return true;
    };
    let Ok(relation) = db.relation(&pat.relation) else {
        return false;
    };
    'tuples: for row in relation.iter() {
        if row.len() != pat.terms.len() {
            continue;
        }
        let mut newly_bound: Vec<usize> = Vec::new();
        for (pos, term) in pat.terms.iter().enumerate() {
            match term {
                PatTerm::Fixed(v) => {
                    if row[pos] != *v {
                        undo(assignment, &newly_bound);
                        continue 'tuples;
                    }
                }
                PatTerm::Flex(var) => match assignment.get(var) {
                    Some(bound) => {
                        if *bound != row[pos] {
                            undo(assignment, &newly_bound);
                            continue 'tuples;
                        }
                    }
                    None => {
                        assignment.insert(*var, row[pos]);
                        newly_bound.push(*var);
                    }
                },
            }
        }
        if backtrack(patterns, idx + 1, db, assignment) {
            return true;
        }
        undo(assignment, &newly_bound);
    }
    false
}

fn undo(assignment: &mut HashMap<usize, Val>, vars: &[usize]) {
    for v in vars {
        assignment.remove(v);
    }
}

/// True iff there is a homomorphism from the facts of `a` into the facts of
/// `b`: constants map to themselves, each labeled null of `a` maps to *some*
/// value of `b` (consistently across occurrences).
///
/// Null-free facts short-circuit to membership tests, read row by row in
/// place; facts with nulls are borrowed, grouped into connected
/// components, and each component is solved by backtracking independently,
/// which keeps the search tractable even on databases with thousands of
/// facts.
pub fn contained_modulo_nulls(a: &Database, b: &Database) -> bool {
    let mut null_components: UnionFind<NullId> = UnionFind::default();
    let mut null_facts: Vec<(&Arc<str>, &[Val])> = Vec::new();

    for (rel_name, rel) in a.relations() {
        let image = b.relation(rel_name).ok();
        for row in rel.iter() {
            // Link each null of the row to the one before it.
            let mut last = None;
            for v in row {
                if let Val::Null(id) = *v {
                    match last {
                        Some(prev) => null_components.union(prev, id),
                        None => null_components.ensure(id),
                    }
                    last = Some(id);
                }
            }
            if last.is_some() {
                null_facts.push((rel_name, row));
            } else if !image.is_some_and(|image| image.contains(row)) {
                // Null-free: must exist verbatim in b.
                return false;
            }
        }
    }

    // Group null-bearing facts by the component of (any of) their nulls.
    let mut groups: HashMap<NullId, Vec<FactPattern>> = HashMap::new();
    let mut flex_ids: HashMap<NullId, usize> = HashMap::new();
    let mut next_flex = 0usize;
    for (rel_name, row) in null_facts {
        let mut rep = None;
        let terms = row
            .iter()
            .map(|v| match v {
                Val::Null(id) => {
                    let r = null_components.find(*id);
                    rep = Some(r);
                    let flex = *flex_ids.entry(*id).or_insert_with(|| {
                        let f = next_flex;
                        next_flex += 1;
                        f
                    });
                    PatTerm::Flex(flex)
                }
                other => PatTerm::Fixed(*other),
            })
            .collect();
        let rep = rep.expect("null-bearing fact has a component representative");
        groups.entry(rep).or_default().push(FactPattern {
            relation: rel_name.clone(),
            terms,
        });
    }

    groups.values().all(|patterns| satisfiable(patterns, b))
}

/// Homomorphic equivalence: containment in both directions. This is the
/// notion under which the distributed update result "equals" the global
/// fix-point regardless of which peer minted which null.
pub fn equivalent_modulo_nulls(a: &Database, b: &Database) -> bool {
    contained_modulo_nulls(a, b) && contained_modulo_nulls(b, a)
}

// ---------------------------------------------------------------------------
// Small union-find over null ids
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct UnionFind<T: Copy + Eq + std::hash::Hash> {
    parent: HashMap<T, T>,
}

impl<T: Copy + Eq + std::hash::Hash> Default for UnionFind<T> {
    fn default() -> Self {
        UnionFind {
            parent: HashMap::new(),
        }
    }
}

impl<T: Copy + Eq + std::hash::Hash> UnionFind<T> {
    fn ensure(&mut self, x: T) {
        self.parent.entry(x).or_insert(x);
    }

    fn find(&mut self, x: T) -> T {
        self.ensure(x);
        let p = self.parent[&x];
        if p == x {
            return x;
        }
        let root = self.find(p);
        self.parent.insert(x, root);
        root
    }

    fn union(&mut self, a: T, b: T) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent.insert(ra, rb);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DatabaseSchema;
    use crate::value::NullFactory;

    fn schema() -> DatabaseSchema {
        DatabaseSchema::parse("r(x: int, y: int). s(x: int).").unwrap()
    }

    fn int_tuple(vals: &[i64]) -> Vec<Val> {
        vals.iter().map(|&v| Val::Int(v)).collect()
    }

    #[test]
    fn ground_containment_is_membership() {
        let mut a = Database::new(schema());
        let mut b = Database::new(schema());
        a.insert_values("r", int_tuple(&[1, 2])).unwrap();
        b.insert_values("r", int_tuple(&[1, 2])).unwrap();
        b.insert_values("r", int_tuple(&[3, 4])).unwrap();
        assert!(contained_modulo_nulls(&a, &b));
        assert!(!contained_modulo_nulls(&b, &a));
        assert!(!equivalent_modulo_nulls(&a, &b));
    }

    #[test]
    fn null_maps_to_constant() {
        let mut a = Database::new(schema());
        let mut b = Database::new(schema());
        let mut nf = NullFactory::new(1);
        let n = nf.fresh();
        a.insert_values("r", vec![Val::Int(1), n]).unwrap();
        b.insert_values("r", int_tuple(&[1, 7])).unwrap();
        assert!(contained_modulo_nulls(&a, &b));
        assert!(!contained_modulo_nulls(&b, &a)); // 7 cannot map to a null? It can: constants map to themselves only.
    }

    #[test]
    fn shared_null_must_map_consistently() {
        let mut a = Database::new(schema());
        let mut b = Database::new(schema());
        let mut nf = NullFactory::new(1);
        let n = nf.fresh();
        // a: r(1, N), s(N) — N shared.
        a.insert_values("r", vec![Val::Int(1), n]).unwrap();
        a.insert_values("s", vec![n]).unwrap();
        // b: r(1, 7), s(8) — no consistent image.
        b.insert_values("r", int_tuple(&[1, 7])).unwrap();
        b.insert_values("s", int_tuple(&[8])).unwrap();
        assert!(!contained_modulo_nulls(&a, &b));
        // Adding s(7) fixes it.
        b.insert_values("s", int_tuple(&[7])).unwrap();
        assert!(contained_modulo_nulls(&a, &b));
    }

    #[test]
    fn differently_labeled_nulls_are_equivalent() {
        let mut a = Database::new(schema());
        let mut b = Database::new(schema());
        let mut nfa = NullFactory::new(1);
        let mut nfb = NullFactory::new(2);
        a.insert_values("r", vec![Val::Int(1), nfa.fresh()])
            .unwrap();
        b.insert_values("r", vec![Val::Int(1), nfb.fresh()])
            .unwrap();
        assert!(equivalent_modulo_nulls(&a, &b));
    }

    #[test]
    fn null_to_null_mapping_allowed() {
        let mut a = Database::new(schema());
        let mut b = Database::new(schema());
        let mut nf = NullFactory::new(1);
        let n1 = nf.fresh();
        let n2 = nf.fresh();
        // a has two facts with distinct nulls; b has one null used twice.
        a.insert_values("r", vec![Val::Int(1), n1]).unwrap();
        a.insert_values("r", vec![Val::Int(2), n2]).unwrap();
        let m = nf.fresh();
        b.insert_values("r", vec![Val::Int(1), m]).unwrap();
        b.insert_values("r", vec![Val::Int(2), m]).unwrap();
        // a -> b: n1 -> m, n2 -> m. Fine.
        assert!(contained_modulo_nulls(&a, &b));
        // b -> a: m must map to both n1 and n2 — impossible.
        assert!(!contained_modulo_nulls(&b, &a));
    }

    #[test]
    fn satisfiable_head_pattern() {
        let mut db = Database::new(schema());
        db.insert_values("r", int_tuple(&[1, 9])).unwrap();
        // Pattern r(1, Z) with Z flexible: satisfied by r(1,9).
        let pat = FactPattern {
            relation: Arc::from("r"),
            terms: vec![PatTerm::Fixed(Val::Int(1)), PatTerm::Flex(0)],
        };
        assert!(satisfiable(std::slice::from_ref(&pat), &db));
        // Pattern r(2, Z): not satisfied.
        let pat2 = FactPattern {
            relation: Arc::from("r"),
            terms: vec![PatTerm::Fixed(Val::Int(2)), PatTerm::Flex(0)],
        };
        assert!(!satisfiable(&[pat2], &db));
        // Joint pattern r(1, Z), s(Z): needs s(9).
        let pat3 = FactPattern {
            relation: Arc::from("s"),
            terms: vec![PatTerm::Flex(0)],
        };
        assert!(!satisfiable(&[pat.clone(), pat3.clone()], &db));
        db.insert_values("s", int_tuple(&[9])).unwrap();
        assert!(satisfiable(&[pat, pat3], &db));
    }

    /// A fact of a relation `b` does not declare is not contained, null or
    /// no null; an empty one is. Nulls linked through shared facts form one
    /// component and must map together; separate components map apart.
    #[test]
    fn a_relation_b_lacks_fails_and_components_map_apart() {
        let wide = DatabaseSchema::parse("r(x: int, y: int). s(x: int). t(x: int).").unwrap();
        let mut nf = NullFactory::new(1);
        let (n, m) = (nf.fresh(), nf.fresh());
        let mut b = Database::new(schema());
        for row in [[1, 7], [2, 8]] {
            b.insert_values("r", int_tuple(&row)).unwrap();
        }
        b.insert_values("s", int_tuple(&[7])).unwrap();
        b.insert_values("s", int_tuple(&[8])).unwrap();

        let mut a = Database::new(wide.clone());
        assert!(contained_modulo_nulls(&a, &b), "an empty `t` asks nothing");
        // Two components, solved apart: r(1, N), s(N) maps N ↦ 7 and
        // r(2, M), s(M) maps M ↦ 8.
        a.insert_values("r", vec![Val::Int(1), n]).unwrap();
        a.insert_values("s", vec![n]).unwrap();
        a.insert_values("r", vec![Val::Int(2), m]).unwrap();
        a.insert_values("s", vec![m]).unwrap();
        assert!(contained_modulo_nulls(&a, &b));
        // One component once r(N, M) links them, and b has no r(7, 8).
        a.insert_values("r", vec![n, m]).unwrap();
        assert!(!contained_modulo_nulls(&a, &b));

        for fact in [int_tuple(&[7]), vec![n]] {
            let mut a = Database::new(wide.clone());
            a.insert_values("t", fact).unwrap();
            assert!(!contained_modulo_nulls(&a, &b), "b has no `t`");
        }
    }

    #[test]
    fn empty_pattern_set_is_satisfiable() {
        let db = Database::new(schema());
        assert!(satisfiable(&[], &db));
    }

    #[test]
    fn unknown_relation_in_pattern_is_unsatisfiable() {
        let db = Database::new(schema());
        let pat = FactPattern {
            relation: Arc::from("zzz"),
            terms: vec![PatTerm::Flex(0)],
        };
        assert!(!satisfiable(&[pat], &db));
    }
}
