//! # p2p-relational
//!
//! A small in-memory relational engine purpose-built for peer-to-peer
//! database coordination, the substrate required by
//! *"A distributed algorithm for robust data sharing and updates in P2P
//! database networks"* (Franconi, Kuper, Lopatenko, Zaihrayeu — EDBT
//! P2P&DB'04).
//!
//! The paper assumes every peer is a relational database whose coordination
//! rules carry conjunctive queries (with built-in predicates) in their bodies
//! and conjunctive formulas — possibly with **existential variables** — in
//! their heads. This crate provides exactly that machinery:
//!
//! * [`Val`] — the fixed-width data-plane value: integers, **interned**
//!   string constants ([`catalog::ConstCatalog`], the paper's shared set `C`
//!   of constants "acting as URIs"), and **labeled nulls**, the fresh values
//!   invented for existential head variables ("insert with new values for
//!   existential", algorithm A6 of the paper). [`Value`] is the boundary
//!   form carrying strings verbatim for the external JSON formats;
//! * [`schema::RelationSchema`] / [`schema::DatabaseSchema`] — typed,
//!   named relation signatures (the paper's `DBS` module);
//! * [`RowSet`] — the one deduplicated, insertion-ordered **columnar** row
//!   set (one flat `Vec<Val>`, no allocation per row); [`Relation`] /
//!   [`Database`] — schemas over row sets, with lazily built, incrementally
//!   maintained join-key hash indexes;
//! * [`query`] — a conjunctive-query AST, a text parser
//!   (`q(X,Y) :- r(X,Z), s(Z,Y), X != Y`), and one compiled-plan hash-join
//!   evaluator under naive-table semantics (labeled nulls join only with
//!   themselves, built-ins involving nulls are *unknown* and therefore
//!   excluded — sound for certain answers of positive queries);
//! * [`tables`] — the sorted tables of a peer's control plane and of a
//!   fragment's watermarks ([`query::Marks`]);
//! * [`hom`] — homomorphism checks between sets of facts with nulls, used
//!   by tests that compare distributed results with the global fix-point
//!   oracle *modulo null renaming*;
//! * [`chase`] — restricted-chase application of rule heads, compiled once
//!   per rule: a head is instantiated only when no homomorphic image of it
//!   is already present, which is what bounds null invention and guarantees
//!   termination of the update fix-point for weakly-acyclic rule sets; its
//!   nulls are minted in first-occurrence order.
//!
//! The engine is deliberately self-contained (no external storage, no SQL)
//! and deterministic: all iteration that can influence observable behaviour
//! happens in insertion or lexicographic order.
//!
//! ## Quick example
//!
//! ```
//! use p2p_relational::{Database, DatabaseSchema, Val};
//! use p2p_relational::query::{parse_query, evaluate};
//!
//! let schema = DatabaseSchema::parse("b(x: int, y: int).").unwrap();
//! let mut db = Database::new(schema);
//! db.insert_values("b", vec![Val::Int(1), Val::Int(2)]).unwrap();
//! db.insert_values("b", vec![Val::Int(2), Val::Int(3)]).unwrap();
//!
//! let q = parse_query("q(X, Z) :- b(X, Y), b(Y, Z)").unwrap();
//! let ans = evaluate(&q, &db).unwrap();
//! assert_eq!(ans.len(), 1); // (1, 3)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod catalog;
pub mod chase;
pub(crate) mod database;
pub(crate) mod error;
pub mod hom;
pub mod query;
pub(crate) mod relation;
pub(crate) mod schema;
pub mod tables;
pub mod value;

pub use catalog::{ConstCatalog, SymId, SymRemap};
pub use database::Database;
pub use error::{Error, Result};
pub use p2p_topology::fxhash::{self, fx_hash, FxHashMap, FxHashSet};
pub use relation::{key_hash, Index, Relation, RowSet, ShowRow};
pub use schema::{ColumnType, DatabaseSchema, RelationSchema};
pub use value::{NullFactory, NullId, Val, Value};
