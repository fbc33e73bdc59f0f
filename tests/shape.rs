//! The program's shape, checked: its size as a number, and the guards that
//! keep deleted designs from coming back.
//!
//! A file's non-test code is the file up to its first `#[cfg(test)]` at
//! column 0. An indented one (a test-only method inside an `impl`) does not
//! stop it. The line count and every guard read a file through that one
//! rule, [`non_test`].
//!
//! **Size.** Every `.rs` file under `crates/*/src`, `vendor/*/src` and
//! `src/` counts. `cargo test --test shape -- --nocapture` prints the
//! per-crate counts.
//!
//! **Guards.** [`GUARDS`] is a table: each row names the files it reads
//! (globs from the repository root), the needles that must not appear in
//! them, where in a file it looks ([`Scope`], [`Region`]) and how a needle
//! matches ([`Match`]). A row fires when its hits across every file it
//! reads number more than its `at_most`, and then prints each offending
//! line once, with its step's name and message. Each row also carries a `plant`: a
//! snippet that breaks it. The tests check that every row holds on the
//! tree, fires on its plant, and reads at least one file through each of
//! its globs; a row that scans whole files also fires on its plant inside a
//! `#[cfg(test)]` module, and one that scans non-test code does not.
//!
//! To guard a deleted design, add a row with its needles, paths and plant,
//! and run `cargo test --test shape`. This file holds the needles, so it is
//! the one file no guard reads.

use std::fs;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// The most non-test lines the program may have. A change that grows the
/// total raises this pin and gives the reason in CHANGES.md.
const NON_TEST_LINES: usize = 26_738;

/// A file's non-test text: the file up to its first `#[cfg(test)]` at
/// column 0.
fn non_test(text: &str) -> &str {
    let mut end = 0;
    for line in text.split_inclusive('\n') {
        if line.starts_with("#[cfg(test)]") {
            break;
        }
        end += line.len();
    }
    &text[..end]
}

/// The non-test lines of a file's text.
fn non_test_lines(text: &str) -> usize {
    non_test(text).lines().count()
}

/// Every file under `dir`, recursively.
fn files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            files(&path, out);
        } else {
            out.push(path);
        }
    }
}

/// Non-test lines of each crate's `src/` (`crates/*`, `vendor/*`, and the
/// root package as `src`), in path order.
fn counts() -> Vec<(String, usize)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut crates = vec!["src".to_string()];
    for group in ["crates", "vendor"] {
        for entry in fs::read_dir(root.join(group)).unwrap() {
            let dir = entry.unwrap().path();
            if dir.join("src").is_dir() {
                let name = dir.file_name().unwrap().to_string_lossy();
                crates.push(format!("{group}/{name}"));
            }
        }
    }
    crates.sort();
    let count = |name: &String| {
        let src = if name == "src" {
            root.join("src")
        } else {
            root.join(name).join("src")
        };
        let mut found = Vec::new();
        files(&src, &mut found);
        let lines = found
            .iter()
            .filter(|file| file.extension().is_some_and(|ext| ext == "rs"))
            .map(|file| non_test_lines(&fs::read_to_string(file).unwrap()));
        (name.clone(), lines.sum())
    };
    crates.iter().map(count).collect()
}

/// What part of a file a guard reads.
#[derive(Clone, Copy, PartialEq)]
enum Scope {
    /// All of it, test modules included.
    Whole,
    /// Its non-test text.
    NonTest,
    /// Its non-test text, less the lines whose first non-space is `//`.
    NonTestCode,
}

/// Where in its scope a guard looks.
#[derive(Clone, Copy)]
enum Region {
    /// All of the scope.
    Everywhere,
    /// Only in the bodies of these items (see [`bodies`]).
    Within(&'static [&'static str]),
    /// Everywhere but the bodies of these items.
    Outside(&'static [&'static str]),
}

/// How a needle matches.
#[derive(Clone, Copy, PartialEq)]
enum Match {
    /// Anywhere.
    Plain,
    /// As a whole word: no identifier character on either side.
    Word,
    /// As a field of one of these receivers (`self.held`): right after
    /// `receiver.`, and followed by neither an identifier character nor `(`.
    Field(&'static [&'static str]),
    /// At the start of a line, after its indentation and visibility.
    Decl,
    /// With all whitespace taken out of the needle and the text alike.
    Folded,
    /// The needle is a line the file must have: the guard fires when it
    /// has not.
    Missing,
    /// The file must not exist: the guard fires on any file it reads.
    NoFile,
}

/// Which hits do not count.
#[derive(Clone, Copy)]
enum Unless {
    Never,
    /// A hit inside one of these strings, such as the declaration of the
    /// name a needle calls.
    Inside(&'static [&'static str]),
    /// A hit after this string, earlier in the same region.
    After(&'static str),
}

/// One guard row; see the module documentation.
struct Guard {
    /// The guard's name, shared by the rows that make it up.
    step: &'static str,
    /// What to do instead, printed when the row fires.
    message: &'static str,
    /// The files the row reads: globs from the repository root, where `*`
    /// stands for part of one name and `**` for any number of directories.
    paths: &'static [&'static str],
    /// Files among them that it does not read.
    except: &'static [&'static str],
    scope: Scope,
    region: Region,
    needles: &'static [&'static str],
    matching: Match,
    unless: Unless,
    /// How many hits the files it reads may have between them.
    at_most: usize,
    /// A snippet that breaks the row.
    plant: &'static str,
}

/// The fields most rows leave as they are.
const ROW: Guard = Guard {
    step: "",
    message: "",
    paths: &[],
    except: &[],
    scope: Scope::NonTest,
    region: Region::Everywhere,
    needles: &[],
    matching: Match::Plain,
    unless: Unless::Never,
    at_most: 0,
    plant: "",
};

/// The guards, grouped by step.
static GUARDS: &[Guard] = &[
    // One row set: a set of rows is a p2p_relational::RowSet — no
    // hand-rolled HashSet of tuples or dedup helper comes back, a fragment's
    // rows travel as one from evaluation to the wire, and an inserted fact
    // lives in its relation only — no Tuple type.
    Guard {
        step: "One row set",
        message: "keep rows that dedup or outlive a handler in a RowSet",
        paths: &["crates/*/src/**"],
        scope: Scope::Whole,
        needles: &["HashSet<Tuple>", "push_dedup"],
        plant: "    let mut seen: FxHashSet<Tuple> = FxHashSet::default();\n",
        ..ROW
    },
    Guard {
        step: "One row set",
        message: "an answer's rows, a logged answer's rows and an evaluated fragment are a RowSet",
        paths: &[
            "crates/core/src/messages.rs",
            "crates/storage/src/wal.rs",
            "crates/core/src/joins.rs",
            "crates/core/src/peer/*.rs",
            "crates/core/src/peer/subscriptions/*.rs",
        ],
        needles: &["Vec<Tuple>"],
        plant: "    pub rows: Vec<Tuple>,\n",
        ..ROW
    },
    Guard {
        step: "One row set",
        message: "a row block is column-major; rows of mixed widths do not decode",
        paths: &["crates/core/src/codec.rs"],
        scope: Scope::Whole,
        needles: &["ROWS_GENERIC"],
        plant: "const ROWS_GENERIC: u8 = 7;\n",
        ..ROW
    },
    Guard {
        step: "One row set",
        message: "a fact lives in its relation, a row is a slice of Vals: no Tuple type comes back",
        paths: &["crates/relational/src/tuple.rs"],
        scope: Scope::Whole,
        matching: Match::NoFile,
        plant: "pub struct Tuple(Vec<Val>);\n",
        ..ROW
    },
    Guard {
        step: "One row set",
        message: "a fact lives in its relation, a row is a slice of Vals: no Tuple type comes back",
        paths: &["crates/*/src/**/*.rs", "src/**/*.rs"],
        needles: &["Tuple"],
        matching: Match::Word,
        plant: "pub type Tuple = Vec<Val>;\n",
        ..ROW
    },
    Guard {
        step: "One row set",
        message: "the chase counts what it inserts; the facts live in their relations",
        paths: &["crates/relational/src/chase.rs"],
        scope: Scope::Whole,
        needles: &["inserted.push", "inserted.extend"],
        matching: Match::Folded,
        plant: "        inserted\n            .push(row);\n",
        ..ROW
    },
    // One query, one answer: rounds and repair traffic is a Query or an
    // Answer with a start point and an exchange — the folded kinds do not
    // come back.
    Guard {
        step: "One query, one answer",
        message: "a round's or a repair's request is a Query, its reply an Answer",
        paths: &["crates/*/src/**", "src/**", "tests/**", "examples/**"],
        scope: Scope::Whole,
        needles: &["WaveQuery", "WaveAnswer", "ResyncRequest", "ResyncAnswer"],
        plant: "    WaveQuery { round: u32 },\n",
        ..ROW
    },
    // One commit point: a delivery's records are one WAL frame, written by
    // DbPeer::commit alone; a frame's dictionary is the store's.
    Guard {
        step: "One commit point",
        message: "only DbPeer::commit writes to the store in peer/ (and attach_storage its first snapshot)",
        paths: &["crates/core/src/peer/*.rs"],
        scope: Scope::Whole,
        region: Region::Outside(&["fn commit"]),
        needles: &["store.commit("],
        plant: "    fn deliver(&mut self) {\n        st.store.commit(records)?;\n    }\n",
        ..ROW
    },
    Guard {
        step: "One commit point",
        message: "only DbPeer::commit writes to the store in peer/ (and attach_storage its first snapshot)",
        paths: &["crates/core/src/peer/*.rs"],
        scope: Scope::Whole,
        region: Region::Outside(&["fn commit", "fn attach_storage"]),
        needles: &["store.snapshot("],
        plant: "    fn restart(&mut self) {\n        store.snapshot(&self.db)?;\n    }\n",
        ..ROW
    },
    Guard {
        step: "One commit point",
        message: "a frame's dictionary is computed by p2p_storage at commit, nowhere else",
        paths: &["crates/*/src/**", "src/**", "tests/**", "examples/**"],
        except: &["crates/storage/src/**"],
        scope: Scope::Whole,
        needles: &["first_use_dict", "WalRecord::dict", ".dict()"],
        plant: "    let dict = WalRecord::dict(&records);\n",
        ..ROW
    },
    // One driver: an update run is a RunSpec given to P2PSystem::run, on the
    // simulator or the shard pool — the ten retired drivers do not come
    // back, and system.rs declares no other run_* entry point.
    Guard {
        step: "One driver",
        message: "describe the run with a RunSpec and call P2PSystem::run",
        paths: &["crates/**", "src/**", "examples/**", "tests/**"],
        scope: Scope::Whole,
        needles: &[
            "run_update_from",
            "run_updates",
            "run_scoped_update",
            "run_update_with_script",
            "run_updates_with_script",
            "run_update_resilient",
            "run_updates_resilient",
            "distributed_query",
            "run_discovery_all",
        ],
        matching: Match::Word,
        plant: "    let report = sys.run_updates(&owners);\n",
        ..ROW
    },
    Guard {
        step: "One driver",
        message: "system.rs's run_* entry points are run_update and run_discovery",
        paths: &["crates/core/src/system.rs"],
        scope: Scope::Whole,
        needles: &["pub fn run_"],
        unless: Unless::Inside(&["pub fn run_update(", "pub fn run_discovery("]),
        plant: "    pub fn run_update_from(&mut self, owner: NodeId) -> UpdateReport {\n",
        ..ROW
    },
    Guard {
        step: "One driver",
        message: "a run on the shard pool is a RunSpec with shards given to P2PSystem::run",
        paths: &["crates/**", "src/**", "tests/**", "examples/**"],
        scope: Scope::Whole,
        needles: &["run_updates_sharded"],
        plant: "    let report = sys.run_updates_sharded(&owners, 4);\n",
        ..ROW
    },
    // Dense accounting: NetStats counts a send in dense rows and columns —
    // no table keyed by node or by kind name comes back in stats.rs.
    Guard {
        step: "Dense accounting",
        message: "count per node in a dense row and per kind in an interned column",
        paths: &["crates/net/src/stats.rs"],
        needles: &["BTreeMap<String", "BTreeMap<NodeId"],
        plant: "    per_kind: BTreeMap<String, u64>,\n",
        ..ROW
    },
    // One agenda: the simulator keeps each pipe's FIFO floor with its
    // sender, for its sends in flight — no table keyed by the (from, to)
    // pair comes back in sim.rs.
    Guard {
        step: "One agenda",
        message: "keep a pipe's floor in its sender's in-flight records, not in a pair-keyed table",
        paths: &["crates/net/src/sim.rs"],
        needles: &["(NodeId, NodeId)"],
        matching: Match::Folded,
        plant: "    floors: HashMap<(NodeId,NodeId), u64>,\n",
        ..ROW
    },
    // One pool: each shard thread owns its peers and pops one FIFO queue —
    // no mailboxes, run queues, work stealing or hand-off channels come
    // back in sharded.rs.
    Guard {
        step: "One pool",
        message: "a shard owns its peers and one queue; route every send to the receiver's shard queue",
        paths: &["crates/net/src/sharded.rs"],
        needles: &["mpsc", "steal", "recv_timeout", "runnable", "scheduled"],
        plant: "use std::sync::mpsc;\n",
        ..ROW
    },
    // One loop: a socket node's loop writes its own pipe frames and control
    // replies — no writer thread or queue per pipe, reply channel per
    // request or shutdown hand-shake comes back in runtime.rs.
    Guard {
        step: "One loop",
        message: "the loop writes pipe frames and control replies itself; the reader threads feed its one channel",
        paths: &["crates/transport/src/runtime.rs"],
        needles: &["WriterSeat", "writer_loop", "ControlReply", "recv_timeout"],
        plant: "struct WriterSeat;\n",
        ..ROW
    },
    Guard {
        step: "One loop",
        message: "the loop writes pipe frames and control replies itself; the reader threads feed its one channel",
        paths: &["crates/transport/src/runtime.rs"],
        needles: &["mpsc::channel"],
        at_most: 1,
        plant: "    let (tx, rx) = mpsc::channel();\n    let (reply, answer) = mpsc::channel();\n",
        ..ROW
    },
    // One frame family: a store writes checksummed byte frames under either
    // codec — the text family, its line framing and callers of the four text
    // methods do not come back.
    Guard {
        step: "One frame family",
        message: "frame and checksum bytes only; the codec picks how a payload is encoded",
        paths: &["crates/storage/src/*.rs"],
        needles: &["jsonl", "Lines", "hex_crc"],
        plant: "const WAL: &str = \"wal.jsonl\";\n",
        ..ROW
    },
    Guard {
        step: "One frame family",
        message: "call the *_bytes methods; the text methods are kept only for the benchmark harness",
        paths: &["crates/**/*.rs", "src/**/*.rs"],
        except: &["**/tests/**"],
        scope: Scope::NonTestCode,
        needles: &["append_wal(", "read_wal(", "write_snapshot(", "read_snapshot("],
        unless: Unless::Inside(&[
            "fn append_wal(",
            "fn read_wal(",
            "fn write_snapshot(",
            "fn read_snapshot(",
        ]),
        plant: "    backend.append_wal(&line)?;\n",
        ..ROW
    },
    // One compile site: a peer takes its compiled plans and heads from its
    // system's PlanCatalog, through peer/catalog.rs — no other code in peer/
    // compiles one.
    Guard {
        step: "One compile site",
        message: "take compiled plans and heads from the catalog, in peer/catalog.rs",
        paths: &["crates/core/src/peer/*.rs"],
        except: &["crates/core/src/peer/catalog.rs"],
        needles: &[
            "compile_part(",
            "CompiledBody::compile(",
            "CompiledHead::compile(",
            "compile_body(",
        ],
        plant: "        let plan = CompiledBody::compile(&part.atoms, &db);\n",
        ..ROW
    },
    // Local lookups: a delivery reads its own peer — its session tables hold
    // their first entry inline, a fragment and a rule hold their plans and
    // head instead of a table per peer, and a plan or head finds its
    // relations by position, not by name.
    Guard {
        step: "Local lookups",
        message: "a session table is an InlineMap: its first entry costs no heap block",
        paths: &["crates/core/src/peer/sessions.rs"],
        needles: &["VecMap<SessionId"],
        plant: "    live: VecMap<SessionId, SessionState>,\n",
        ..ROW
    },
    Guard {
        step: "Local lookups",
        message: "a fragment holds its compiled body and a rule its head — no table of them per peer",
        paths: &["crates/core/src/peer/catalog.rs"],
        scope: Scope::Whole,
        needles: &["plans:", "heads:"],
        matching: Match::Decl,
        plant: "    pub(crate) plans: Vec<Arc<CompiledBody>>,\n",
        ..ROW
    },
    Guard {
        step: "Local lookups",
        message: "a plan step or head atom indexes the database's relations by the position it was compiled with",
        paths: &["crates/relational/src/query/plan.rs", "crates/relational/src/chase.rs"],
        needles: &["relation(&step.relation", "relation_mut(&atom.relation"],
        plant: "        let rel = db.relation(&step.relation)?;\n",
        ..ROW
    },
    // One owner: subscription state belongs to peer/subscriptions.rs and
    // session state to peer/sessions.rs — no other non-test code in peer/ or
    // system.rs touches their fields.
    Guard {
        step: "One owner",
        message: "call an operation of Subscriptions or Sessions instead",
        paths: &["crates/core/src/peer/*.rs", "crates/core/src/system.rs"],
        except: &[
            "crates/core/src/peer/subscriptions.rs",
            "crates/core/src/peer/sessions.rs",
        ],
        scope: Scope::NonTestCode,
        needles: &[
            "cursors",
            "held",
            "fragments",
            "void_owed",
            "pending_resync",
            "armed_fault",
            "live",
            "done",
            "is_super",
            "all_nodes",
            "rooted",
            "generation",
            "collected",
            "sup",
        ],
        matching: Match::Field(&["self", "peer", "p", "sup", "subscriptions", "sessions"]),
        plant: "        self.cursors.insert(key, marks);\n",
        ..ROW
    },
    // One SCC: one dense Tarjan over flat successor lists — no ordered-map
    // Tarjan comes back in scc.rs — and a build takes its cycle hints from
    // it over the rules' own edges, with each rule validated once, when it
    // is made.
    Guard {
        step: "One SCC",
        message: "scc.rs keeps Tarjan's state in vectors indexed by dense vertex ids",
        paths: &["crates/topology/src/scc.rs"],
        needles: &["BTreeMap"],
        plant: "use std::collections::BTreeMap;\n",
        ..ROW
    },
    Guard {
        step: "One SCC",
        message: "build_peers_of runs scc::tarjan over the rules' edges; make_rule validated every rule already",
        paths: &["crates/core/src/system.rs"],
        scope: Scope::Whole,
        region: Region::Within(&["fn build_peers_of"]),
        needles: &["dependency_graph(", "cyclic_nodes(", "validate("],
        plant: "    pub(crate) fn build_peers_of(&mut self) -> CoreResult<Peers> {\n        \
                let cyclic = self.rules.dependency_graph().cyclic_nodes();\n    }\n",
        ..ROW
    },
    // One parse: the rule parser takes its identifiers from the caller's
    // interner, and a rule groups its body without ordered maps or sets.
    Guard {
        step: "One parse",
        message: "parser.rs takes every identifier from an Idents interner",
        paths: &["crates/relational/src/query/parser.rs"],
        needles: &["Arc::from", "Arc::<str>::from"],
        plant: "        let name: Arc<str> = Arc::from(token);\n",
        ..ROW
    },
    Guard {
        step: "One parse",
        message: "CoordinationRule::parse and validate scan small vectors; they build no ordered map or set",
        paths: &["crates/core/src/rule.rs"],
        region: Region::Within(&["fn parse", "fn validate"]),
        needles: &["BTreeMap", "BTreeSet"],
        // `validate` reads the caller's table of databases.
        unless: Unless::Inside(&["databases: &BTreeMap<NodeId, Database>"]),
        plant: "    pub(crate) fn validate(&self) -> CoreResult<()> {\n        \
                let mut seen = BTreeSet::new();\n    }\n",
        ..ROW
    },
    // One declaration: a network's nodes, their names and base data live in
    // one table that the builder fills and the built system keeps; a
    // dynamic link is read through it.
    Guard {
        step: "One declaration",
        message: "system.rs declares a network once: no schemas map beside the node table, \
                  and make_add_link keeps no name map or interner of its own",
        paths: &["crates/core/src/system.rs"],
        needles: &["schemas:"],
        matching: Match::Decl,
        plant: "    schemas: BTreeMap<NodeId, DatabaseSchema>,\n",
        ..ROW
    },
    Guard {
        step: "One declaration",
        message: "system.rs declares a network once: no schemas map beside the node table, \
                  and make_add_link keeps no name map or interner of its own",
        paths: &["crates/core/src/system.rs"],
        needles: &["BTreeMap<String, NodeId>", "Idents::new()"],
        plant: "        let mut idents = Idents::new();\n",
        ..ROW
    },
    // One holder: a durable head's fragment rows live in its subscriptions
    // alone — the store's running fold keeps watermarks, cursors and the
    // newest session, and a checkpoint takes the rows from the peer — and
    // attach and restart replay a store through one step.
    Guard {
        step: "One holder",
        message: "the store's running fold (LogFold<Marks>) keeps what the log alone knows; \
                  a checkpoint takes a fragment's rows from the peer that holds them",
        paths: &["crates/storage/src/store.rs"],
        scope: Scope::Whole,
        needles: &["    folded: LogFold<Marks>,"],
        matching: Match::Missing,
        plant: "    folded: LogFold<FragmentMark>,\n",
        ..ROW
    },
    Guard {
        step: "One holder",
        message: "the store's running fold (LogFold<Marks>) keeps what the log alone knows; \
                  a checkpoint takes a fragment's rows from the peer that holds them",
        paths: &["crates/storage/src/store.rs"],
        region: Region::Within(&["struct LogFold", "impl Mark for Marks", "fn commit"]),
        needles: &["FragmentMark", ".insert(", ".extend(", "fold_answer"],
        plant: "    pub fn commit(&mut self, records: Vec<WalRecord>) -> StorageResult<bool> {\n        \
                self.rows.extend(fold_answer(&records));\n    }\n",
        ..ROW
    },
    Guard {
        step: "One holder",
        message: "attach_storage and restart_and_resync replay a store through DbPeer::replay \
                  and keep its RecoveredState",
        paths: &["crates/core/src/peer/durability.rs"],
        needles: &["struct Replayed"],
        plant: "struct Replayed {\n",
        ..ROW
    },
    Guard {
        step: "One holder",
        message: "attach_storage and restart_and_resync replay a store through DbPeer::replay \
                  and keep its RecoveredState",
        paths: &["crates/core/src/peer/durability.rs"],
        needles: &["store.recover("],
        at_most: 1,
        plant: "        let rec = store.recover(id)?;\n        let again = store.recover(id)?;\n",
        ..ROW
    },
    Guard {
        step: "One holder",
        message: "attach_storage and restart_and_resync replay a store through DbPeer::replay \
                  and keep its RecoveredState",
        paths: &["crates/core/src/peer/durability.rs"],
        needles: &["store.adopt("],
        at_most: 1,
        plant: "        store.adopt(&rec);\n        store.adopt(&again);\n",
        ..ROW
    },
    // Small sets, shared lists: a row set of a few rows keeps no membership
    // index, a variable list is one shared Arc<[Arc<str>]>, and watermarks
    // are p2p_relational's flat Marks — no ordered map of them comes back.
    Guard {
        step: "Small sets, shared lists",
        message: "a variable list is shared (Arc<[Arc<str>]>), never copied into a Vec of its own",
        paths: &["crates/core/src/**/*.rs", "crates/relational/src/**/*.rs"],
        needles: &["vars: Vec<Arc<str>>"],
        matching: Match::Decl,
        plant: "    pub vars: Vec<Arc<str>>,\n",
        ..ROW
    },
    Guard {
        step: "Small sets, shared lists",
        message: "watermarks are a p2p_relational::query::Marks, one sorted small vector",
        paths: &["crates/*/src/**"],
        needles: &["BTreeMap<Arc<str>, usize>"],
        plant: "pub type Watermarks = BTreeMap<Arc<str>, usize>;\n",
        ..ROW
    },
    Guard {
        step: "Small sets, shared lists",
        message: "RowSet::from_flat and with_capacity build membership only past LINEAR_ROWS rows",
        paths: &["crates/relational/src/relation.rs"],
        region: Region::Within(&["fn from_flat", "fn with_capacity"]),
        needles: &["Index::with_capacity"],
        unless: Unless::After("LINEAR_ROWS"),
        plant: "    pub(crate) fn with_capacity(arity: usize, rows: usize) -> Self {\n        \
                let seen = Index::with_capacity(rows);\n    }\n",
        ..ROW
    },
    // One cursor: a database schema is read on the query parser's cursor,
    // not on a second one of its own.
    Guard {
        step: "One cursor",
        message: "parse text on query::parser's cursor (DatabaseSchema::parse does)",
        paths: &["crates/relational/src/**"],
        needles: &["struct SchemaParser", "fn skip_ws"],
        plant: "struct SchemaParser<'a> {\n    input: &'a str,\n    pos: usize,\n}\n",
        ..ROW
    },
    // One head join: an arriving answer's new rows are joined against the
    // other fragments (Subscriptions::absorb); the n-way semi-naive union
    // does not come back.
    Guard {
        step: "One head join",
        message: "join the arriving fragment's new rows against the others with join_views",
        paths: &["crates/**", "src/**", "tests/**"],
        scope: Scope::Whole,
        needles: &["join_parts_seminaive", "PartDelta"],
        matching: Match::Word,
        plant: "    let staged: Vec<PartDelta<'_>> = Vec::new();\n",
        ..ROW
    },
    // One SplitMix64: vendor/rand's StdRng is the one generator; proptest
    // draws from it.
    Guard {
        step: "One SplitMix64",
        message: "draw from vendor/rand's StdRng, the one SplitMix64",
        paths: &["vendor/*/src/**"],
        needles: &["0xBF58_476D_1CE4_E5B9"],
        at_most: 1,
        plant: "    const MIX: u64 = 0xBF58_476D_1CE4_E5B9;\n    \
                const AGAIN: u64 = 0xBF58_476D_1CE4_E5B9;\n",
        ..ROW
    },
    // One sorted table: the session tables and a fragment's watermarks are
    // one inline-first table, p2p_relational's InlineMap.
    Guard {
        step: "One sorted table",
        message: "keep sorted tables in p2p_relational::tables; Marks wraps its InlineMap",
        paths: &["crates/core/src/peer/tables.rs"],
        scope: Scope::Whole,
        matching: Match::NoFile,
        plant: "pub(crate) struct InlineMap<K, V>(Slots<K, V>);\n",
        ..ROW
    },
    Guard {
        step: "One sorted table",
        message: "keep sorted tables in p2p_relational::tables; Marks wraps its InlineMap",
        paths: &["crates/relational/src/query/plan.rs"],
        needles: &["enum Entries"],
        matching: Match::Word,
        plant: "enum Entries {\n    None,\n    One((Arc<str>, usize)),\n}\n",
        ..ROW
    },
    // One binding table: rows over variables are p2p_relational's Bindings,
    // whatever made them — an evaluation, a fragment a head retains, a join.
    Guard {
        step: "One binding table",
        message: "hold rows over variables in a p2p_relational::query::Bindings",
        paths: &["crates/**"],
        needles: &["struct VarRows", "enum Rows"],
        matching: Match::Word,
        plant: "pub struct VarRows {\n    pub vars: Arc<[Arc<str>]>,\n}\n",
        ..ROW
    },
    // One constraint test: a rule's cross-fragment constraints resolve and
    // test as a body's do, through CompiledConstraint.
    Guard {
        step: "One constraint test",
        message: "resolve a constraint with CompiledConstraint::new and test it with holds",
        paths: &["crates/core/src/joins.rs"],
        region: Region::Within(&["fn join_filter"]),
        needles: &["Term::Const"],
        plant: "pub(crate) fn join_filter(vars: &[Arc<str>]) -> impl Fn(&[Val]) -> bool {\n    \
                let side = |t: &Term| matches!(t, Term::Const(_));\n}\n",
        ..ROW
    },
    // One held slot: a fragment's compiled body and a rule's compiled head
    // sit in one generic slot, catalog::Held.
    Guard {
        step: "One held slot",
        message: "hold what is compiled once in a catalog::Held<T>",
        paths: &["crates/core/src/**"],
        needles: &["struct HeldBody", "struct HeldHead"],
        matching: Match::Word,
        plant: "pub(crate) struct HeldHead(OnceLock<Arc<CompiledHead>>);\n",
        ..ROW
    },
];

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The byte range of the line of `text` that holds offset `at`, without
/// its newline.
fn line_at(text: &str, at: usize) -> Range<usize> {
    let start = text[..at].rfind('\n').map_or(0, |i| i + 1);
    let end = text[at..].find('\n').map_or(text.len(), |i| at + i);
    start..end
}

/// A line from where its declaration starts: past its indentation and any
/// visibility or `const`, `async` and `unsafe`.
fn after_modifiers(line: &str) -> &str {
    let mut rest = line.trim_start();
    loop {
        let next = if rest.starts_with("pub(") {
            rest.split_once(") ").map(|(_, after)| after)
        } else {
            ["pub ", "const ", "async ", "unsafe "]
                .iter()
                .find_map(|modifier| rest.strip_prefix(modifier))
        };
        match next {
            Some(after) => rest = after.trim_start(),
            None => return rest,
        }
    }
}

/// The byte ranges of the items of `text` that `items` name: each from
/// the line that declares one (`fn commit` also declares `pub(crate) fn
/// commit(`) to the closing brace at that line's indentation, or that line
/// alone when it ends the item.
fn bodies(text: &str, items: &[&str]) -> Vec<Range<usize>> {
    let mut found = Vec::new();
    let mut open: Option<(usize, &str)> = None;
    let mut at = 0;
    for line in text.split_inclusive('\n') {
        let end = at + line.len();
        let code = line.trim_end();
        match open {
            Some((start, indent)) => {
                if code.strip_prefix(indent) == Some("}") {
                    found.push(start..end);
                    open = None;
                }
            }
            None => {
                let declares = |item: &&str| {
                    let rest = after_modifiers(code).strip_prefix(*item);
                    rest.is_some_and(|rest| !rest.starts_with(is_ident))
                };
                if items.iter().any(declares) {
                    if code.ends_with(';') || code.ends_with('}') {
                        found.push(at..end);
                    } else {
                        open = Some((at, &code[..code.len() - code.trim_start().len()]));
                    }
                }
            }
        }
        at = end;
    }
    found.extend(open.map(|(start, _)| start..text.len()));
    found
}

impl Guard {
    /// Whether the row reads the file at `path`.
    fn reads(&self, path: &str) -> bool {
        self.paths.iter().any(|glob| matches(glob, path))
            && !self.except.iter().any(|glob| matches(glob, path))
    }

    /// Each needle's hits in `body` as (offset, length) pairs, before any
    /// is excused.
    fn find(&self, body: &str) -> Vec<(usize, usize)> {
        if self.matching == Match::Folded {
            let mut folded = String::new();
            let mut origin = Vec::new();
            for (at, c) in body.char_indices().filter(|(_, c)| !c.is_whitespace()) {
                folded.push(c);
                origin.extend(std::iter::repeat_n(at, c.len_utf8()));
            }
            let mut hits = Vec::new();
            for needle in self.needles {
                let needle: String = needle.split_whitespace().collect();
                for (at, _) in folded.match_indices(&needle) {
                    let end = origin[at + needle.len() - 1] + 1;
                    hits.push((origin[at], end - origin[at]));
                }
            }
            return hits;
        }
        let keep = |&(at, len): &(usize, usize)| {
            let before = body[..at].chars().next_back();
            let after = body[at + len..].chars().next();
            match self.matching {
                Match::Word => !before.is_some_and(is_ident) && !after.is_some_and(is_ident),
                Match::Field(receivers) => {
                    let receiver = body[..at].strip_suffix('.');
                    receiver.is_some_and(|r| receivers.iter().any(|name| r.ends_with(name)))
                        && !after.is_some_and(|c| is_ident(c) || c == '(')
                }
                Match::Decl => {
                    let line = line_at(body, at);
                    at == line.end - after_modifiers(&body[line]).len()
                }
                _ => true,
            }
        };
        self.needles
            .iter()
            .flat_map(|needle| body.match_indices(needle).map(|(at, _)| (at, needle.len())))
            .filter(keep)
            .collect()
    }

    /// The row's hits in `text`, the file at `path`, and the lines that
    /// hold them: each line once, in order.
    fn hits(&self, path: &str, text: &str) -> (usize, Vec<String>) {
        let text = if self.scope == Scope::Whole {
            text
        } else {
            non_test(text)
        };
        match self.matching {
            Match::NoFile => return (1, vec![format!("{path}: the file exists")]),
            Match::Missing => {
                let missing: Vec<String> = (self.needles.iter())
                    .filter(|n| !text.lines().any(|l| l == **n))
                    .map(|n| format!("{path}: no line `{n}`"))
                    .collect();
                return (missing.len(), missing);
            }
            _ => {}
        }
        let regions = match self.region {
            Region::Within(items) => bodies(text, items),
            _ => std::iter::once(0..text.len()).collect(),
        };
        let allowed = match self.region {
            Region::Outside(items) => bodies(text, items),
            _ => Vec::new(),
        };
        let mut hits = Vec::new();
        for region in regions {
            let body = &text[region.clone()];
            for (at, len) in self.find(body) {
                let hit = region.start + at;
                let comment = text[line_at(text, hit)]
                    .trim_start_matches(' ')
                    .starts_with("//");
                let excused = match self.unless {
                    Unless::Never => false,
                    Unless::Inside(spans) => spans.iter().any(|span| {
                        let mut around = body.match_indices(span);
                        around.any(|(start, _)| start <= at && at + len <= start + span.len())
                    }),
                    Unless::After(mark) => body[..at].contains(mark),
                } || allowed.iter().any(|range| range.contains(&hit))
                    || (self.scope == Scope::NonTestCode && comment);
                if !excused {
                    hits.push(hit);
                }
            }
        }
        hits.sort_unstable();
        let mut lines: Vec<usize> = hits.iter().map(|&at| line_at(text, at).start).collect();
        lines.dedup();
        let line = |start: usize| {
            let number = text[..start].matches('\n').count() + 1;
            format!("{path}:{number}: {}", &text[line_at(text, start)])
        };
        (hits.len(), lines.into_iter().map(line).collect())
    }

    /// Where the row fires in `files`, each a path and its text: nothing
    /// while its hits across all of them number at most `at_most`, else
    /// one report per offending line.
    fn scan(&self, files: &[(&str, &str)]) -> Vec<String> {
        let (mut count, mut lines) = (0, Vec::new());
        for (path, text) in files {
            let (hits, at) = self.hits(path, text);
            count += hits;
            lines.extend(at);
        }
        if count <= self.at_most {
            return Vec::new();
        }
        let report = |what: String| format!("{}: {what}\n    {}", self.step, self.message);
        lines.into_iter().map(report).collect()
    }
}

/// Whether `path` (relative, `/`-separated) matches `glob`.
fn matches(glob: &str, path: &str) -> bool {
    fn name(glob: &str, name: &str) -> bool {
        match glob.split_once('*') {
            None => glob == name,
            Some((head, tail)) => {
                name.len() >= head.len() + tail.len()
                    && name.starts_with(head)
                    && name.ends_with(tail)
            }
        }
    }
    fn segments(glob: &[&str], path: &[&str]) -> bool {
        match (glob.split_first(), path.split_first()) {
            (Some((&"**", rest)), _) => (0..=path.len()).any(|skip| segments(rest, &path[skip..])),
            (Some((first, rest)), Some((head, tail))) => name(first, head) && segments(rest, tail),
            (None, None) => true,
            _ => false,
        }
    }
    let glob: Vec<&str> = glob.split('/').collect();
    let path: Vec<&str> = path.split('/').collect();
    segments(&glob, &path)
}

/// Every file the guards may read — all of `crates/`, `src/`, `tests/`,
/// `examples/` and `vendor/` but this file — by its path from the
/// repository root, with its text.
fn tree() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut found = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "vendor"] {
        files(&root.join(dir), &mut found);
    }
    let read = |file: PathBuf| {
        let relative = file.strip_prefix(root).unwrap();
        let path = relative
            .iter()
            .map(|part| part.to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let text = String::from_utf8_lossy(&fs::read(&file).unwrap()).into_owned();
        (path != "tests/shape.rs").then_some((path, text))
    };
    found.into_iter().filter_map(read).collect()
}

#[test]
fn non_test_lines_stay_under_the_pin() {
    let counts = counts();
    for (name, lines) in &counts {
        println!("{name:<22} {lines:>6}");
    }
    let total: usize = counts.iter().map(|(_, lines)| lines).sum();
    println!("{:<22} {total:>6}", "total");
    assert!(
        total <= NON_TEST_LINES,
        "{total} non-test lines, over the pin of {NON_TEST_LINES}: \
         raise NON_TEST_LINES and say why in CHANGES.md"
    );
}

#[test]
fn the_count_stops_at_a_column_0_cfg_test_only() {
    let text = "\
struct S;

impl S {
    #[cfg(test)]
    fn probe(&self) {}
}

#[cfg(test)]
mod tests {
    fn helper() {}
}
";
    assert_eq!(
        non_test_lines(text),
        7,
        "an indented #[cfg(test)] counts on"
    );
    assert_eq!(
        non_test_lines("fn f() {}\n"),
        1,
        "no #[cfg(test)]: all of it"
    );
    assert_eq!(non_test_lines("#[cfg(test)]\nmod tests {}\n"), 0);
}

#[test]
fn the_guards_hold() {
    let tree = tree();
    let fired: Vec<String> = GUARDS
        .iter()
        .flat_map(|guard| {
            let read: Vec<(&str, &str)> = (tree.iter())
                .filter(|(path, _)| guard.reads(path))
                .map(|(path, text)| (path.as_str(), text.as_str()))
                .collect();
            guard.scan(&read)
        })
        .collect();
    assert!(fired.is_empty(), "{}", fired.join("\n"));
}

#[test]
fn every_guard_fires_on_its_plant_and_reads_a_file_through_each_glob() {
    let tree = tree();
    for guard in GUARDS {
        let path = guard.paths[0];
        assert!(
            !guard.scan(&[(path, guard.plant)]).is_empty(),
            "{}: its plant passes:\n{}",
            guard.step,
            guard.plant
        );
        // Whole-file rows read test modules too; the others stop at them.
        let in_tests = format!(
            "fn f() {{}}\n\n#[cfg(test)]\nmod tests {{\n{}}}\n",
            guard.plant
        );
        assert_eq!(
            !guard.scan(&[(path, &in_tests)]).is_empty(),
            guard.scope == Scope::Whole,
            "{}: its plant in a #[cfg(test)] module",
            guard.step
        );
        if guard.matching == Match::NoFile {
            continue;
        }
        for glob in guard.paths.iter().chain(guard.except) {
            assert!(
                tree.iter().any(|(file, _)| matches(glob, file)),
                "{}: {glob} matches no file",
                guard.step
            );
        }
    }
}

/// A line that holds two of a row's needles is one offending line, reported
/// once; and a row's `at_most` bounds its hits across every file it reads,
/// so a plant within the bound in each of two files fires.
#[test]
fn a_row_reports_a_line_once_and_counts_hits_across_files() {
    let two_needles = Guard {
        step: "plant",
        paths: &["a.rs"],
        needles: &["first", "second"],
        ..ROW
    };
    let fired = two_needles.scan(&[("a.rs", "fn f() { first(); second(); }\n")]);
    assert_eq!(fired.len(), 1, "{fired:?}");
    assert!(fired[0].starts_with("plant: a.rs:1: fn f()"), "{fired:?}");

    let at_most_one = Guard {
        step: "plant",
        paths: &["*.rs"],
        needles: &["MIX"],
        at_most: 1,
        ..ROW
    };
    let once = "const MIX: u64 = 1;\n";
    assert!(at_most_one.scan(&[("a.rs", once)]).is_empty());
    let fired = at_most_one.scan(&[("a.rs", once), ("b.rs", once)]);
    assert_eq!(fired.len(), 2, "{fired:?}");
    assert!(
        fired[1].starts_with("plant: b.rs:1: const MIX"),
        "{fired:?}"
    );
}
