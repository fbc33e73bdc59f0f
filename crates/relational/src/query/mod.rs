//! Conjunctive queries with built-in predicates: AST, parser, and one
//! evaluator (compile to a [`QueryPlan`], run it with [`execute_plan`]).
//!
//! This is the query language the paper assigns to coordination rules —
//! "coordination rules may contain conjunctive queries in both the head and
//! body (without any safety assumption and possibly with built-in
//! predicates)" (Section 2). Atoms may carry a *qualifier* naming the peer a
//! formula belongs to (`B:b(X,Y)`), mirroring the paper's `j : b(x, y)`
//! notation; the evaluator itself works on a single local database and
//! rejects qualified atoms (the distributed layer strips qualifiers when it
//! routes sub-queries to peers).

pub mod ast;
pub(crate) mod eval;
pub(crate) mod parser;
pub(crate) mod plan;

pub use ast::{Atom, CmpOp, ConjunctiveQuery, Constraint, Idents, Term};
pub use eval::{evaluate, evaluate_bindings, evaluate_certain, Bindings};
pub use parser::{parse_implication, parse_query, Implication};
pub use plan::{
    compile_body, evaluate_bindings_since_planned, execute_plan, CompiledBody, EvalMetrics,
    MarkTable, Marks, PlanCatalog, QueryPlan,
};
