//! Property tests of one relation's storage against a scan model: random
//! inserts (duplicates frequent) over arity 0–3, join indexes ensured on
//! random column lists before and after the rows arrive, symbol remaps,
//! serde round trips and clones that diverge. After every step the
//! relation must agree with a plain `Vec` of rows on membership, order,
//! watermark suffixes and the candidates of every key of every index.

use p2p_relational::{key_hash, ColumnType, Relation, RelationSchema, SymId, Val};
use proptest::prelude::*;

/// Distinct values per column: small, so rows and keys repeat.
const DOMAIN: u8 = 3;
const SYMS: [&str; DOMAIN as usize] = ["relation-model-a", "relation-model-b", "relation-model-c"];

/// Even columns hold ints, odd ones symbols.
fn column_type(col: usize) -> ColumnType {
    if col.is_multiple_of(2) {
        ColumnType::Int
    } else {
        ColumnType::Str
    }
}

/// Value `k` of column `col`.
fn val(col: usize, k: u8) -> Val {
    match column_type(col) {
        ColumnType::Int => Val::Int(i64::from(k)),
        ColumnType::Str => Val::str(SYMS[k as usize]),
    }
}

fn schema(arity: usize) -> RelationSchema {
    let names = ["c0", "c1", "c2"];
    RelationSchema::new(
        "m",
        (0..arity).map(|c| (names[c], column_type(c))).collect(),
    )
}

/// Every tuple of `DOMAIN` values over the columns `cols`.
fn all_keys(cols: &[usize]) -> Vec<Vec<Val>> {
    let mut keys = vec![Vec::new()];
    for &c in cols {
        keys = keys
            .into_iter()
            .flat_map(|k| {
                (0..DOMAIN).map(move |v| {
                    let mut k = k.clone();
                    k.push(val(c, v));
                    k
                })
            })
            .collect();
    }
    keys
}

/// The model: rows in insertion order, plus the column lists indexed.
#[derive(Debug, Clone, Default)]
struct Model {
    rows: Vec<Vec<Val>>,
    indexed: Vec<Vec<usize>>,
}

fn check(rel: &Relation, model: &Model, arity: usize) -> Result<(), TestCaseError> {
    prop_assert_eq!(rel.len(), model.rows.len());
    let stored: Vec<Vec<Val>> = rel.iter().map(<[Val]>::to_vec).collect();
    prop_assert_eq!(&stored, &model.rows);
    let every_column: Vec<usize> = (0..arity).collect();
    for row in all_keys(&every_column) {
        prop_assert_eq!(rel.contains(&row), model.rows.contains(&row), "{:?}", row);
    }
    for w in 0..=model.rows.len() + 1 {
        let suffix: Vec<Vec<Val>> = rel.since(w).map(<[Val]>::to_vec).collect();
        prop_assert_eq!(&suffix[..], &model.rows[w.min(model.rows.len())..]);
    }
    for cols in &model.indexed {
        let idx = rel
            .index(cols)
            .ok_or_else(|| TestCaseError::fail(format!("index on {cols:?} missing")))?;
        for key in all_keys(cols) {
            let raw: Vec<u32> = idx.candidates(key_hash(key.iter())).collect();
            prop_assert!(
                raw.windows(2).all(|w| w[0] < w[1])
                    && raw.iter().all(|&p| (p as usize) < rel.len()),
                "candidates {:?} out of order or range",
                raw
            );
            let matching: Vec<u32> = raw
                .into_iter()
                .filter(|&p| {
                    cols.iter()
                        .zip(&key)
                        .all(|(&c, k)| rel.row(p as usize)[c] == *k)
                })
                .collect();
            let expected: Vec<u32> = (0..model.rows.len() as u32)
                .filter(|&p| {
                    cols.iter()
                        .zip(&key)
                        .all(|(&c, k)| model.rows[p as usize][c] == *k)
                })
                .collect();
            prop_assert_eq!(matching, expected, "key {:?} on {:?}", key, cols);
        }
    }
    Ok(())
}

/// Inserts into relation and model alike.
fn insert(rel: &mut Relation, model: &mut Model, row: Vec<Val>) -> Result<(), TestCaseError> {
    let fresh = !model.rows.contains(&row);
    prop_assert_eq!(rel.insert_row(&row), fresh, "{:?}", row);
    if fresh {
        model.rows.push(row);
    }
    Ok(())
}

/// A step: `(kind, values, columns)`. Kinds 0–5 insert the row the values
/// name, 6–7 ensure an index on the columns (duplicates and out-of-range
/// columns dropped; an empty list is one bucket holding every row), 8 swaps
/// two symbols, 9 replaces the relation by its serde round trip.
type Step = (u8, (u8, u8, u8), Vec<usize>);

fn schedule() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        (
            0..10u8,
            (0..DOMAIN, 0..DOMAIN, 0..DOMAIN),
            proptest::collection::vec(0..3usize, 0..4),
        ),
        0..48,
    )
}

fn row_of(arity: usize, (a, b, c): (u8, u8, u8)) -> Vec<Val> {
    [a, b, c][..arity]
        .iter()
        .enumerate()
        .map(|(col, &k)| val(col, k))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every step leaves the relation equal to the model.
    #[test]
    fn relation_matches_a_scan_model(arity in 0..4usize, steps in schedule(), extra in schedule()) {
        let mut rel = Relation::new(schema(arity));
        let mut model = Model::default();
        for (kind, vals, cols) in steps {
            match kind {
                0..=5 => insert(&mut rel, &mut model, row_of(arity, vals))?,
                6 | 7 => {
                    let mut key: Vec<usize> = Vec::new();
                    for c in cols.into_iter().filter(|&c| c < arity) {
                        if !key.contains(&c) {
                            key.push(c);
                        }
                    }
                    rel.ensure_index(&key);
                    if !model.indexed.contains(&key) {
                        model.indexed.push(key);
                    }
                }
                8 => {
                    let (a, b) = (Val::str(SYMS[0]), Val::str(SYMS[1]));
                    let (a, b) = (a.as_sym().unwrap(), b.as_sym().unwrap());
                    let swap = |id: SymId| match id {
                        id if id == a => b,
                        id if id == b => a,
                        id => id,
                    };
                    rel.remap_syms(&swap);
                    for v in model.rows.iter_mut().flatten() {
                        if let Val::Sym(id) = v {
                            *id = swap(*id);
                        }
                    }
                    for cols in std::mem::take(&mut model.indexed) {
                        prop_assert!(rel.index(&cols).is_none(), "stale index on {:?}", cols);
                    }
                }
                _ => {
                    let text = serde_json::to_string(&rel).unwrap();
                    rel = serde_json::from_str(&text).unwrap();
                    for cols in std::mem::take(&mut model.indexed) {
                        prop_assert!(rel.index(&cols).is_none(), "index survived serde on {:?}", cols);
                    }
                }
            }
            check(&rel, &model, arity)?;
        }

        // A clone shares nothing mutable: rows inserted into it are absent
        // from the original, and the original's later rows from the clone.
        let mut copy = rel.clone();
        let mut copy_model = model.clone();
        for (_, vals, _) in &extra {
            insert(&mut copy, &mut copy_model, row_of(arity, *vals))?;
        }
        check(&copy, &copy_model, arity)?;
        check(&rel, &model, arity)?;
        for (_, vals, _) in extra.iter().rev() {
            let (a, b, c) = *vals;
            insert(&mut rel, &mut model, row_of(arity, (c, b, a)))?;
        }
        check(&rel, &model, arity)?;
        check(&copy, &copy_model, arity)?;
    }
}
