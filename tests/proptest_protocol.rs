//! Property-based tests over randomly generated networks, data and change
//! scripts: the distributed update always agrees with the centralized
//! fix-point oracle; dynamic runs always land inside the Definition 9
//! envelope; duplication never changes results; and a long-lived system
//! keeps agreeing with the oracle session after session — the
//! subscription cursors that outlive a session, and the standing
//! subscriptions they are, never hide a row — under inserts, concurrent
//! roots, rule changes inside and outside sessions, crashes and dropped
//! messages, and a durable peer's restart re-ships none; and that net is
//! tight enough to catch five seeded faults.

use p2pdb::core::config::UpdateMode;
use p2pdb::core::dynamic::{lower_reference, upper_reference, ChangeOp, ChangeScript};
use p2pdb::core::oracle::{global_fixpoint, GlobalDb};
use p2pdb::core::peer::SeededFault;
use p2pdb::core::system::{P2PSystem, P2PSystemBuilder, RunSpec, UpdateReport};
use p2pdb::core::RuleSet;
use p2pdb::net::fault::LinkOutage;
use p2pdb::net::{ChurnPlan, Codec, FaultPlan, SimTime};
use p2pdb::relational::hom::contained_modulo_nulls;
use p2pdb::relational::{Database, Val};
use p2pdb::topology::NodeId;
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::collections::BTreeMap;

/// A random network description small enough to oracle-check.
#[derive(Debug, Clone)]
struct NetSpec {
    nodes: usize,
    /// Directed edges (head, body) with head ≠ body; rules are copy rules.
    edges: Vec<(u32, u32)>,
    /// Base tuples per node: (node, x, y).
    tuples: Vec<(u32, i64, i64)>,
}

fn net_spec() -> impl Strategy<Value = NetSpec> {
    (2usize..6).prop_flat_map(|nodes| {
        let n = nodes as u32;
        let edges = proptest::collection::vec(
            (0..n, 0..n).prop_filter("no self edges", |(a, b)| a != b),
            1..8,
        );
        let tuples = proptest::collection::vec((0..n, 0..6i64, 0..6i64), 1..25);
        (Just(nodes), edges, tuples).prop_map(|(nodes, mut edges, tuples)| {
            edges.sort();
            edges.dedup();
            NetSpec {
                nodes,
                edges,
                tuples,
            }
        })
    })
}

fn build(spec: &NetSpec, mode: UpdateMode) -> P2PSystemBuilder {
    let mut b = P2PSystemBuilder::new();
    for i in 0..spec.nodes as u32 {
        b.add_node_with_schema(i, &format!("t{i}(x: int, y: int)."))
            .unwrap();
    }
    for (k, (head, body)) in spec.edges.iter().enumerate() {
        let head_name = NodeId(*head).letter();
        let body_name = NodeId(*body).letter();
        b.add_rule(
            &format!("r{k}"),
            &format!("{body_name}:t{body}(X,Y) => {head_name}:t{head}(X,Y)"),
        )
        .unwrap();
    }
    for (node, x, y) in &spec.tuples {
        b.insert(*node, &format!("t{node}"), vec![Val::Int(*x), Val::Int(*y)])
            .unwrap();
    }
    b.config_mut().mode = mode;
    b
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Lemma 1 on random (possibly cyclic) copy-rule networks, eager mode.
    #[test]
    fn eager_matches_oracle_on_random_networks(spec in net_spec()) {
        let mut sys = build(&spec, UpdateMode::Eager).build().unwrap();
        let report = sys.run_update();
        prop_assert!(report.outcome.quiescent);
        prop_assert!(report.all_closed, "not closed: {spec:?}");
        prop_assert!(report.errors.is_empty());
        prop_assert!(sys.snapshot().equivalent(&sys.oracle().unwrap()));
    }

    /// Same for the synchronous rounds mode.
    #[test]
    fn rounds_matches_oracle_on_random_networks(spec in net_spec()) {
        let mut sys = build(&spec, UpdateMode::Rounds).build().unwrap();
        let report = sys.run_update();
        prop_assert!(report.outcome.quiescent);
        prop_assert!(report.all_closed, "not closed: {spec:?}");
        prop_assert!(sys.snapshot().equivalent(&sys.oracle().unwrap()));
    }

    /// Duplication is invisible (idempotent handlers), on random networks.
    #[test]
    fn duplication_invisible_on_random_networks(
        spec in net_spec(),
        seed in 0u64..1000,
    ) {
        let mut clean = build(&spec, UpdateMode::Eager).build().unwrap();
        clean.run_update();
        let mut b = build(&spec, UpdateMode::Eager);
        b.set_fault(FaultPlan::random(0, 30, seed));
        let mut sys = b.build().unwrap();
        let report = sys.run_update();
        prop_assert!(report.outcome.quiescent);
        prop_assert!(sys.snapshot().equivalent(&clean.snapshot()));
    }

    /// Definition 9 sandwich on random finite change scripts.
    #[test]
    fn dynamic_scripts_stay_in_the_envelope(
        spec in net_spec(),
        script_ops in proptest::collection::vec((0u8..2, 0u64..10), 0..4),
    ) {
        let mut sys = build(&spec, UpdateMode::Eager).build().unwrap();
        let mut script = ChangeScript::new();
        let rule_names: Vec<String> =
            (0..spec.edges.len()).map(|k| format!("r{k}")).collect();
        for (i, (kind, at)) in script_ops.iter().enumerate() {
            let at = SimTime::from_millis(1 + *at);
            if *kind == 0 {
                // Add a fresh copy rule between two existing nodes.
                let head = (i as u32) % spec.nodes as u32;
                let body = (head + 1) % spec.nodes as u32;
                if head != body {
                    let text = format!(
                        "{}:t{}(X,Y) => {}:t{}(X,Y)",
                        NodeId(body).letter(), body, NodeId(head).letter(), head
                    );
                    if let Ok(op) = sys.make_add_link(&format!("dyn{i}"), &text) {
                        script.push(at, op);
                    }
                }
            } else if let Some(name) = rule_names.get(i) {
                if let Ok(op) = sys.make_delete_link(name) {
                    script.push(at, op);
                }
            }
        }
        let run = RunSpec {
            script: script.clone(),
            ..Default::default()
        };
        let report = sys.run(&run).remove(0);
        prop_assert!(report.outcome.quiescent, "Theorem 2 violated");
        let upper = sys.oracle_with(&upper_reference(sys.rules(), &script)).unwrap();
        let lower = sys.oracle_with(&lower_reference(sys.rules(), &script)).unwrap();
        for (node, db) in &sys.snapshot().0 {
            prop_assert!(
                contained_modulo_nulls(db, upper.node(*node).unwrap()),
                "soundness violated at {node}"
            );
            prop_assert!(
                contained_modulo_nulls(lower.node(*node).unwrap(), db),
                "completeness violated at {node}"
            );
        }
    }
}

// ------------------------------------------------------------------
// Many sessions on one long-lived system
// ------------------------------------------------------------------

/// One step of a long-lived system's schedule. Node and rule indices are
/// reduced modulo what the network has.
#[derive(Debug, Clone)]
enum Step {
    /// A fresh base tuple at a node.
    Insert(u32, i64, i64),
    /// One global session from a root.
    Session(u32),
    /// Two interleaved sessions from two roots.
    Concurrent(u32, u32),
    /// A session at the super-peer with one rule change: a fresh copy rule
    /// (`add`) or a build-time rule deleted, either while the session runs
    /// or long after its fix-point (`late`). Eager mode only.
    Change {
        add: bool,
        pick: usize,
        late: bool,
        also: Option<u32>,
    },
    /// A non-super peer crashes — before anything of the session reaches
    /// it (`early`), or mid-session — and restarts (with its store, or with
    /// amnesia, as the run is configured); re-driven to closure.
    Crash {
        node: u32,
        also: Option<u32>,
        early: bool,
    },
    /// Sessions under random drops and duplicates, re-driven; then reliable
    /// pipes again and re-driven to closure.
    Drops(u8, u64, Option<u32>),
    /// Outside any session: a fresh tuple at the body node of a build-time
    /// copy rule, and the rule replaced under its id at its head by one
    /// that swaps the head's columns. Nobody else is told.
    Replace { pick: usize, x: i64, y: i64 },
}

/// The last three kinds run at the super-peer; half the time (`also`) a
/// second root's session interleaves with it, so a subscription of one
/// session is live while the other loses a message, a peer or a rule.
fn step() -> impl Strategy<Value = Step> {
    (0u8..26, 0u32..8, 0u32..8, 0i64..6, 0i64..6).prop_map(|(kind, a, b, x, y)| {
        let also = |root| (kind >= 13).then_some(root);
        match kind % 13 {
            0..=3 => Step::Insert(a, x, y),
            4..=5 => Step::Session(a),
            6 => Step::Concurrent(a, b),
            7..=8 => Step::Change {
                add: x % 2 == 0,
                pick: b as usize,
                late: y % 2 == 0,
                also: also(a),
            },
            9 => Step::Crash {
                node: a,
                also: also(b),
                early: x % 2 == 0,
            },
            10..=11 => Step::Drops(5 + (x as u8) * 5, u64::from(a * 8 + b), also(a)),
            _ => Step::Replace {
                pick: b as usize,
                x,
                y,
            },
        }
    })
}

/// A network with cycles allowed, at least three nodes, and — besides the
/// copy rules of [`build`] — one rule joining fragments of two body nodes.
fn multi_builder(
    spec: &NetSpec,
    mode: UpdateMode,
    codec: Codec,
    durable: bool,
) -> P2PSystemBuilder {
    let mut b = build(spec, mode);
    let n = spec.nodes as u32;
    let (head, left, right) = (
        spec.edges[0].0 % n,
        (spec.edges[0].0 + 1) % n,
        (spec.edges[0].0 + 2) % n,
    );
    b.add_rule(
        "join",
        &format!(
            "{}:t{left}(X,Y), {}:t{right}(Y,Z) => {}:t{head}(X,Z)",
            NodeId(left).letter(),
            NodeId(right).letter(),
            NodeId(head).letter()
        ),
    )
    .unwrap();
    b.config_mut().codec = codec;
    b.config_mut().durability = durable;
    b.config_mut().snapshot_every = 8;
    b
}

fn insert_into(dbs: &mut BTreeMap<NodeId, Database>, node: u32, x: i64, y: i64) {
    dbs.get_mut(&NodeId(node))
        .unwrap()
        .insert_values(&format!("t{node}"), vec![Val::Int(x), Val::Int(y)])
        .unwrap();
}

fn fixpoint(dbs: &BTreeMap<NodeId, Database>, rules: &RuleSet) -> GlobalDb {
    global_fixpoint(dbs, rules, 64).unwrap()
}

fn contained(a: &GlobalDb, b: &GlobalDb) -> bool {
    a.0.iter()
        .all(|(node, db)| contained_modulo_nulls(db, b.node(*node).unwrap()))
}

/// What the schedule should have produced so far.
struct Model {
    /// Expected state of every node (exact while no peer lost data).
    state: BTreeMap<NodeId, Database>,
    /// Every base tuple ever inserted: with all rules ever known, the upper
    /// bound for runs in which a peer lost its data.
    base: BTreeMap<NodeId, Database>,
    /// The rules in force.
    rules: RuleSet,
    /// Every rule ever in force.
    ever: RuleSet,
    /// A peer restarted without its data: exactness is gone for good.
    amnesia: bool,
}

impl Model {
    /// Checks the system against the model after a step whose sessions all
    /// closed, and advances the model.
    fn check_closed(&mut self, sys: &P2PSystem, what: &Step) -> Result<(), TestCaseError> {
        let actual = sys.snapshot();
        if self.amnesia {
            let upper = fixpoint(&self.base, &self.ever);
            prop_assert!(contained(&actual, &upper), "unsound after {what:?}");
            // Nothing a surviving cursor could have hidden: the state is
            // closed under the rules in force.
            prop_assert!(
                fixpoint(&actual.0, &self.rules).equivalent(&actual),
                "not a fix-point after {what:?}"
            );
        } else {
            let expected = fixpoint(&self.state, &self.rules);
            prop_assert!(
                actual.equivalent(&expected),
                "differs from the oracle after {what:?}"
            );
            self.state = expected.0;
        }
        Self::check_retired(sys, what)
    }

    /// Checks the system after a session during or after which the rules
    /// changed from `before` to `self.rules`. A change reaches the nodes
    /// its notification re-wakes, not the whole network, so the run lands
    /// inside Definition 9's envelope — between the fix-points under the
    /// smaller and the larger rule set — and the *next* full session is
    /// exact again, from wherever inside it this one stopped.
    fn check_changed(
        &mut self,
        sys: &P2PSystem,
        what: &Step,
        before: &RuleSet,
    ) -> Result<(), TestCaseError> {
        let actual = sys.snapshot();
        if self.amnesia {
            let upper = fixpoint(&self.base, &self.ever);
            prop_assert!(contained(&actual, &upper), "unsound after {what:?}");
        } else {
            let (a, b) = (
                fixpoint(&self.state, before),
                fixpoint(&self.state, &self.rules),
            );
            let (lower, upper) = if before.len() < self.rules.len() {
                (a, b)
            } else {
                (b, a)
            };
            prop_assert!(contained(&actual, &upper), "unsound after {what:?}");
            prop_assert!(contained(&lower, &actual), "incomplete after {what:?}");
            self.state = actual.0;
        }
        Self::check_retired(sys, what)
    }

    fn check_retired(sys: &P2PSystem, what: &Step) -> Result<(), TestCaseError> {
        for (id, peer) in sys.peers() {
            prop_assert_eq!(
                peer.session_table_len(),
                0,
                "leak at {} after {:?}",
                id,
                what
            );
        }
        Ok(())
    }
}

fn all_closed(reports: &[UpdateReport]) -> bool {
    reports
        .iter()
        .all(|r| r.outcome.quiescent && r.all_closed && r.errors.is_empty())
}

/// Rows shipped in answers, sessions' `Query`s (a repair's is counted in no
/// `queries_sent`) and cursor-void notices sent so far.
fn shipped(sys: &P2PSystem) -> (u64, u64, u64) {
    let peers = sys.sum_stats();
    let voids = sys.net_stats().sent_of_kind("CursorVoid");
    (peers.rows_shipped, peers.queries_sent, voids)
}

/// What outlives a session at every peer.
fn retained(sys: &P2PSystem) -> Vec<(usize, usize)> {
    sys.peers().map(|(_, p)| p.retained_entries()).collect()
}

/// Plain sessions from `roots`: they close, agree with the oracle, and — if
/// the step before was one of these too, with nothing inserted in between —
/// leave the retained per-peer state as they found it.
fn plain_sessions(
    sys: &mut P2PSystem,
    model: &mut Model,
    roots: &[NodeId],
    what: &Step,
    was_settled: bool,
) -> Result<(), TestCaseError> {
    let before = retained(sys);
    let reports = sys.run(&RunSpec {
        roots: roots.to_vec(),
        ..Default::default()
    });
    prop_assert!(all_closed(&reports), "{what:?} did not close");
    model.check_closed(sys, what)?;
    if was_settled {
        prop_assert_eq!(retained(sys), before, "retained state moved in {:?}", what);
    }
    Ok(())
}

/// Runs one schedule. Besides the oracle comparison after every step that
/// closes, every session's report must be free of peer errors — which is
/// where a Dijkstra–Scholten deficit driven below zero (an acknowledgement
/// without a send) surfaces — every closed step must leave every session
/// table empty, and a session that follows a settled one with nothing
/// inserted in between must leave the retained per-peer state as it found
/// it. `fault`, if any, is seeded where it can do its damage.
fn run_schedule(
    spec: &NetSpec,
    mode: UpdateMode,
    codec: Codec,
    durable: bool,
    steps: &[Step],
    fault: Option<SeededFault>,
) -> Result<(), TestCaseError> {
    let n = spec.nodes as u32;
    let mut sys = multi_builder(spec, mode, codec, durable).build().unwrap();
    let base = sys.snapshot().0;
    let mut model = Model {
        state: base.clone(),
        base,
        rules: sys.rules().clone(),
        ever: sys.rules().clone(),
        amnesia: false,
    };
    let static_rules: Vec<String> = sys.rules().iter().map(|r| r.name.to_string()).collect();
    // The model's id of each build-time rule (a replacement gets a new one
    // there; the system keeps the id).
    let mut model_ids: Vec<_> = sys.rules().iter().map(|r| r.id).collect();
    // The last step was a plain session that closed: everything there is
    // to commit is committed.
    let mut settled = false;
    let roots = |also: Option<u32>| -> Vec<NodeId> {
        [Some(0), also]
            .into_iter()
            .flatten()
            .map(|r| NodeId(r % n))
            .collect()
    };

    for (i, what) in steps.iter().enumerate() {
        let was_settled = std::mem::take(&mut settled);
        match *what {
            Step::Insert(node, x, y) => {
                let node = node % n;
                sys.insert(
                    NodeId(node),
                    &format!("t{node}"),
                    vec![Val::Int(x), Val::Int(y)],
                )
                .unwrap();
                insert_into(&mut model.state, node, x, y);
                insert_into(&mut model.base, node, x, y);
                if fault == Some(SeededFault::CursorsToNow) {
                    sys.seed_fault(SeededFault::CursorsToNow);
                }
            }
            Step::Session(root) => {
                plain_sessions(&mut sys, &mut model, &[NodeId(root % n)], what, was_settled)?;
                settled = true;
            }
            Step::Concurrent(a, b) => {
                let roots = [NodeId(a % n), NodeId(b % n)];
                plain_sessions(&mut sys, &mut model, &roots, what, was_settled)?;
                settled = true;
            }
            Step::Change {
                add,
                pick,
                late,
                also,
            } => {
                if mode != UpdateMode::Eager {
                    continue;
                }
                let op = if add {
                    let head = pick as u32 % n;
                    let body = (head + 1 + i as u32) % n;
                    if head == body {
                        continue;
                    }
                    let text = format!(
                        "{}:t{body}(X,Y) => {}:t{head}(X,Y)",
                        NodeId(body).letter(),
                        NodeId(head).letter()
                    );
                    sys.make_add_link(&format!("dyn{i}"), &text).unwrap()
                } else {
                    sys.make_delete_link(&static_rules[pick % static_rules.len()])
                        .unwrap()
                };
                let deleted = model_ids[pick % static_rules.len()];
                let mut script = ChangeScript::new();
                let at = if late { 60_000 } else { 2 };
                script.push(SimTime::from_millis(at), op.clone());
                let reports = sys.run(&RunSpec {
                    roots: roots(also).to_vec(),
                    script,
                    ..Default::default()
                });
                prop_assert!(all_closed(&reports), "{what:?} did not close");
                let before = model.rules.clone();
                match op {
                    ChangeOp::AddLink { rule } => {
                        model.rules.add(rule.clone()).unwrap();
                        model.ever.add(rule).unwrap();
                    }
                    ChangeOp::DeleteLink { .. } => {
                        model.rules.remove(deleted);
                    }
                }
                model.check_changed(&sys, what, &before)?;
            }
            Step::Crash { node, also, early } => {
                let victim = NodeId(1 + node % (n - 1));
                // The crash is the victim's to survive, not a root's.
                let also = also.filter(|r| NodeId(r % n) != victim);
                sys.set_churn(ChurnPlan::none().with_crash(
                    victim,
                    SimTime::from_millis(if early { 0 } else { 2 }),
                    SimTime::from_millis(6),
                ));
                model.amnesia |= !durable;
                if fault == Some(SeededFault::ForgetVoidNotice) {
                    // The crash and the restart fall into this run; what the
                    // victim owes would go out with the re-drive's flood.
                    sys.run(&RunSpec {
                        roots: roots(also).to_vec(),
                        ..Default::default()
                    });
                    sys.seed_fault(SeededFault::ForgetVoidNotice);
                }
                if let Some(
                    at_restart @ (SeededFault::RecoveredCursorsToNow
                    | SeededFault::HoldWithoutResync),
                ) = fault
                {
                    sys.seed_fault(at_restart);
                }
                let before = shipped(&sys);
                let reports = sys.run(&RunSpec {
                    roots: roots(also).to_vec(),
                    redrives: 4,
                    ..Default::default()
                });
                prop_assert!(all_closed(&reports), "{what:?} did not close");
                model.check_closed(&sys, what)?;
                // A crash costs what was at risk: with everything committed
                // and nothing inserted since, a durable peer's restart puts
                // no row on the wire again — neither one it held nor one its
                // subscribers did — and nobody has to ask or be told.
                if was_settled && durable && mode == UpdateMode::Eager && fault.is_none() {
                    prop_assert_eq!(shipped(&sys), before, "re-shipped after {:?}", what);
                }
            }
            Step::Drops(percent, seed, also) => {
                sys.set_fault(FaultPlan::random(percent, 10, seed));
                sys.run(&RunSpec {
                    roots: roots(also).to_vec(),
                    redrives: 2,
                    ..Default::default()
                });
                sys.set_fault(FaultPlan::none());
                let reports = sys.run(&RunSpec {
                    roots: roots(also).to_vec(),
                    redrives: 3,
                    ..Default::default()
                });
                prop_assert!(all_closed(&reports), "{what:?} did not close");
                model.check_closed(&sys, what)?;
            }
            Step::Replace { pick, x, y } => {
                let k = pick % spec.edges.len();
                let (head, body) = spec.edges[k];
                sys.insert(
                    NodeId(body),
                    &format!("t{body}"),
                    vec![Val::Int(x), Val::Int(y)],
                )
                .unwrap();
                insert_into(&mut model.state, body, x, y);
                insert_into(&mut model.base, body, x, y);
                let text = format!(
                    "{}:t{body}(X,Y) => {}:t{head}(Y,X)",
                    NodeId(body).letter(),
                    NodeId(head).letter()
                );
                let ChangeOp::AddLink { mut rule } =
                    sys.make_add_link(&format!("r{k}v{i}"), &text).unwrap()
                else {
                    unreachable!()
                };
                rule.id = sys.rules().by_name(&static_rules[k]).unwrap().id;
                sys.install_rule(rule.clone()).unwrap();
                if fault == Some(SeededFault::HoldEverything) {
                    sys.seed_fault(SeededFault::HoldEverything);
                }
                model.rules.remove(model_ids[k]);
                model_ids[k] = model.rules.add(rule.clone()).unwrap();
                model.ever.add(rule).unwrap();
            }
        }
    }
    Ok(())
}

fn multi_spec() -> impl Strategy<Value = NetSpec> {
    net_spec().prop_filter("three nodes for the join rule", |s| s.nodes >= 3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random topology (cycles included, one rule over two body nodes) ×
    /// eager/rounds × JSON/binary × with or without stores × a random
    /// schedule: after every step that closes, runs in which no peer lost
    /// data equal the oracle, the others stay inside it and at a fix-point.
    #[test]
    fn long_lived_systems_agree_with_the_oracle_after_every_step(
        spec in multi_spec(),
        rounds in any::<bool>(),
        binary in any::<bool>(),
        durable in any::<bool>(),
        steps in proptest::collection::vec(step(), 4..16),
    ) {
        let mode = if rounds { UpdateMode::Rounds } else { UpdateMode::Eager };
        let codec = if binary { Codec::Binary } else { Codec::Json };
        run_schedule(&spec, mode, codec, durable, &steps, None).map_err(|e| {
            TestCaseError::fail(format!(
                "{e}\n{mode:?} {codec:?} durable={durable}\n{spec:?}\n{steps:?}"
            ))
        })?;
    }
}

/// The net has no hole where it matters: with each of five faults seeded
/// into the peers' subscription state — a cursor-void notice that is never
/// sent, a head that counts a fragment as held after its rule was replaced
/// under the same id, a cursor ahead of what its subscriber was shipped,
/// and the two ways a restart that resumes can be wrong: a recovered cursor
/// moved to now, a fragment held without the resync that covers what the
/// log does not — some schedule of the generator's first 256 (eager mode;
/// the rounds have no cursors) ends in a state the oracle comparison
/// rejects.
#[test]
fn seeded_faults_are_caught_by_the_oracle_comparison() {
    let seed = (std::env::var("PROPTEST_SEED").ok())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(TestRng::__default_seed);
    let cases = (
        multi_spec(),
        any::<bool>(),
        any::<bool>(),
        proptest::collection::vec(step(), 4..16),
    );
    for fault in [
        SeededFault::ForgetVoidNotice,
        SeededFault::HoldEverything,
        SeededFault::CursorsToNow,
        SeededFault::RecoveredCursorsToNow,
        SeededFault::HoldWithoutResync,
    ] {
        let mut rng = TestRng::from_seed(seed);
        let caught = (0..256).any(|_| {
            let (spec, binary, durable, steps) = cases.generate(&mut rng);
            let codec = if binary { Codec::Binary } else { Codec::Json };
            // A corrupted peer may also trip one of the program's own
            // assertions: caught just the same.
            std::panic::catch_unwind(|| {
                run_schedule(
                    &spec,
                    UpdateMode::Eager,
                    codec,
                    durable,
                    &steps,
                    Some(fault),
                )
            })
            .map_or(true, |outcome| outcome.is_err())
        });
        assert!(caught, "{fault:?} went unnoticed (seed {seed})");
    }
}

/// One global session at the super-peer, re-driven up to `redrives`
/// times while it stays open.
fn redriven(redrives: u32) -> RunSpec {
    RunSpec {
        redrives,
        ..Default::default()
    }
}

/// `H:h ← B:b` behind a rule-less root, so the head can crash without
/// taking the session's root with it.
fn head_body_system() -> P2PSystem {
    let mut b = P2PSystemBuilder::new();
    b.add_node_with_schema(0, "a(x: int).").unwrap();
    b.add_node_with_schema(1, "h(x: int, y: int). u(x: int, y: int).")
        .unwrap();
    b.add_node_with_schema(2, "b(x: int, y: int).").unwrap();
    b.add_rule("r", "C:b(X,Y) => B:h(X,Y)").unwrap();
    for x in 0..20 {
        b.insert(2, "b", vec![Val::Int(x), Val::Int(x + 1)])
            .unwrap();
    }
    b.build().unwrap()
}

const HEAD: NodeId = NodeId(1);
const BODY: NodeId = NodeId(2);

fn rows(sys: &P2PSystem, node: NodeId, relation: &str) -> usize {
    sys.database(node)
        .unwrap()
        .relation(relation)
        .unwrap()
        .len()
}

/// A cursor moves when the session that carried the rows retires, not when
/// they are sent: rows of a dropped `Answer` are shipped again by the
/// re-drive, from the last committed point — not lost, and not the world.
#[test]
fn dropped_answer_is_reshipped_by_the_redrive_from_the_committed_cursor() {
    let mut sys = head_body_system();
    assert!(sys.run_update().all_closed);
    assert_eq!(rows(&sys, HEAD, "h"), 20);

    for x in 100..103 {
        sys.insert(BODY, "b", vec![Val::Int(x), Val::Int(x)])
            .unwrap();
    }
    // Everything the body sends the head is lost: the answer with the three
    // new rows, and the acks — the session cannot terminate.
    sys.set_fault(FaultPlan::none().with_outage(LinkOutage {
        from: BODY,
        to: HEAD,
        start: SimTime::ZERO,
        end: SimTime(u64::MAX),
    }));
    let stranded = sys.run_update();
    assert!(
        !stranded.all_closed,
        "a lost answer must not certify a fix-point"
    );
    assert_eq!(rows(&sys, HEAD, "h"), 20);

    sys.set_fault(FaultPlan::none());
    let before = sys.sum_stats();
    let redrive = sys.run(&redriven(1)).remove(0);
    assert!(
        redrive.all_closed && redrive.errors.is_empty(),
        "{redrive:?}"
    );
    assert_eq!(rows(&sys, HEAD, "h"), 23);
    assert!(sys.snapshot().equivalent(&sys.oracle().unwrap()));
    let after = sys.sum_stats();
    assert_eq!(after.resumed_answers - before.resumed_answers, 1);
    assert_eq!(
        after.rows_shipped - before.rows_shipped,
        3,
        "the dropped rows, not the full extension"
    );
}

/// Both ends commit when the broadcast reaches them, and it may reach only
/// one: a head that holds a fragment does not ask again, so the body node
/// must have a standing subscription for it even if it missed the
/// retirement of the only session that ever served it. Its cursor exists
/// from first contact on, at zero; the next session pushes from there —
/// everything, once — instead of keeping a silence the head would take for
/// "nothing new".
#[test]
fn body_node_that_missed_the_broadcast_still_serves_the_head_that_holds() {
    let mut sys = head_body_system();
    // The root's broadcast to the body node is lost (its flood is not).
    sys.set_fault(FaultPlan::none().with_outage(LinkOutage {
        from: NodeId(0),
        to: BODY,
        start: SimTime::from_millis(2),
        end: SimTime(u64::MAX),
    }));
    let first = sys.run_update();
    // (A rule-less node reads closed from the moment it joins, so not even
    // the driver notices.)
    assert!(first.all_closed);
    assert_eq!(
        sys.peer(BODY).unwrap().session_table_len(),
        1,
        "the body node never retired the session"
    );
    assert_eq!(rows(&sys, HEAD, "h"), 20);
    let (_, held) = sys.peer(HEAD).unwrap().retained_entries();
    assert_eq!(
        held, 1,
        "the head retired the session and holds the fragment"
    );

    sys.set_fault(FaultPlan::none());
    for x in 100..103 {
        sys.insert(BODY, "b", vec![Val::Int(x), Val::Int(x)])
            .unwrap();
    }
    let before = sys.net_stats().sent_of_kind("Query");
    let second = sys.run_update();
    assert!(second.all_closed && second.errors.is_empty(), "{second:?}");
    assert_eq!(
        sys.net_stats().sent_of_kind("Query"),
        before,
        "nobody asked"
    );
    assert_eq!(rows(&sys, HEAD, "h"), 23);
    assert!(sys.snapshot().equivalent(&sys.oracle().unwrap()));
}

/// A head that restarts without its data says so in its next `Query`, and
/// gets the fragment's full extension again instead of a delta it could do
/// nothing with.
#[test]
fn amnesiac_head_gets_the_full_extension_again() {
    let mut sys = head_body_system();
    assert!(sys.run_update().all_closed);
    assert!(sys.run_update().all_closed);
    assert_eq!(sys.sum_stats().resumed_answers, 1, "second session resumed");
    assert_eq!(rows(&sys, HEAD, "h"), 20);

    sys.set_churn(ChurnPlan::none().with_crash(
        HEAD,
        SimTime::from_millis(1),
        SimTime::from_millis(4),
    ));
    let report = sys.run(&redriven(3)).remove(0);
    assert!(report.all_closed && report.errors.is_empty(), "{report:?}");
    assert_eq!(sys.sum_stats().crashes, 1);
    assert_eq!(
        rows(&sys, HEAD, "h"),
        20,
        "everything the body holds, again"
    );
    let (cursors, _) = sys.peer(BODY).unwrap().retained_entries();
    assert_eq!(cursors, 1, "and a cursor to resume from next time");
}

/// [`head_body_system`] with a store at every peer, taken through two
/// sessions: the subscription is committed on both ends.
fn settled_durable_head_body_system() -> P2PSystem {
    let mut b = P2PSystemBuilder::new();
    b.add_node_with_schema(0, "a(x: int).").unwrap();
    b.add_node_with_schema(1, "h(x: int, y: int).").unwrap();
    b.add_node_with_schema(2, "b(x: int, y: int).").unwrap();
    b.add_node_with_schema(3, "c(x: int, y: int).").unwrap();
    b.add_rule("r", "C:b(X,Y) => B:h(X,Y)").unwrap();
    b.add_rule("s", "D:c(X,Y) => C:b(X,Y)").unwrap();
    for x in 0..20 {
        b.insert(2, "b", vec![Val::Int(x), Val::Int(x + 1)])
            .unwrap();
    }
    b.config_mut().durability = true;
    let mut sys = b.build().unwrap();
    assert!(sys.run_update().all_closed);
    assert!(sys.run_update().all_closed);
    assert_eq!(rows(&sys, HEAD, "h"), 20);
    sys
}

const SOURCE: NodeId = NodeId(3);

/// Both ends of one pipe restart in the same run — the head with its marks,
/// the body node with its cursor — while rows are on their way: the re-drive
/// still reaches the oracle's fix-point, and what it ships is what was at
/// risk.
#[test]
fn head_and_body_node_restarting_together_still_reach_the_oracle() {
    let mut sys = settled_durable_head_body_system();
    for x in 100..103 {
        sys.insert(BODY, "b", vec![Val::Int(x), Val::Int(x)])
            .unwrap();
    }
    let (ms, before) = (SimTime::from_millis, sys.sum_stats());
    sys.set_churn(
        ChurnPlan::none()
            .with_crash(HEAD, ms(1), ms(5))
            .with_crash(BODY, ms(2), ms(4)),
    );
    let report = sys.run(&redriven(3)).remove(0);
    assert!(report.all_closed && report.errors.is_empty(), "{report:?}");
    assert!(sys.snapshot().equivalent(&sys.oracle().unwrap()));
    assert_eq!(rows(&sys, HEAD, "h"), 23);
    let after = sys.sum_stats();
    assert_eq!((after.crashes, after.recoveries), (2, 2));
    assert_eq!(sys.net_stats().sent_of_kind("CursorVoid"), 0, "both vouch");
    assert!(
        after.rows_shipped - before.rows_shipped + after.resync_rows <= 2 * 3,
        "the three rows at risk, at most once by resync and once by session: {} + {}",
        after.rows_shipped - before.rows_shipped,
        after.resync_rows
    );
    // Quiet again, both subscriptions standing.
    let queries = sys.net_stats().sent_of_kind("Query");
    let shipped = sys.sum_stats().rows_shipped;
    assert!(sys.run_update().all_closed);
    assert_eq!(sys.net_stats().sent_of_kind("Query"), queries);
    assert_eq!(sys.sum_stats().rows_shipped, shipped);
}

/// The repair queries and answers sent so far: the `Query`s and `Answer`s
/// on the wire that no session sent. A session counts each of its own in
/// `queries_sent`, `answers_sent` or `stale_answers_sent`; a repair in none.
fn repairs_sent(sys: &P2PSystem) -> (u64, u64) {
    let (net, peers) = (sys.net_stats(), sys.sum_stats());
    let queries = net.sent_of_kind("Query") - peers.queries_sent;
    let answers = net.sent_of_kind("Answer") - peers.answers_sent - peers.stale_answers_sent;
    (queries, answers)
}

/// The head holds a fragment again only once it has absorbed the resync
/// answer: while that answer is lost the fragment stays un-held, and the
/// request is sent again when the peer next enters a session.
#[test]
fn dropped_resync_answer_leaves_the_fragment_unheld_and_is_asked_again() {
    let mut sys = settled_durable_head_body_system();
    let held = |sys: &P2PSystem| sys.peer(HEAD).unwrap().retained_entries().1;
    assert_eq!(held(&sys), 1);
    // Whatever the body node sends the head is lost, the resync answer
    // included.
    sys.set_fault(FaultPlan::none().with_outage(LinkOutage {
        from: BODY,
        to: HEAD,
        start: SimTime::ZERO,
        end: SimTime(u64::MAX),
    }));
    sys.set_churn(ChurnPlan::none().with_crash(
        HEAD,
        SimTime::from_millis(60_000),
        SimTime::from_millis(60_001),
    ));
    sys.run_update();
    assert_eq!(sys.sum_stats().recoveries, 1);
    assert_eq!(repairs_sent(&sys), (1, 1));
    assert_eq!(held(&sys), 0, "no answer, not held");

    sys.set_fault(FaultPlan::none());
    for x in 100..103 {
        sys.insert(BODY, "b", vec![Val::Int(x), Val::Int(x)])
            .unwrap();
    }
    let report = sys.run(&redriven(2)).remove(0);
    assert!(report.all_closed && report.errors.is_empty(), "{report:?}");
    assert_eq!(repairs_sent(&sys).0, 2, "asked again");
    assert_eq!(held(&sys), 1);
    assert_eq!(rows(&sys, HEAD, "h"), 23);
    assert!(sys.snapshot().equivalent(&sys.oracle().unwrap()));
}

/// A head logs a mark when an answer arrives, the body node commits its
/// cursor when the session retires. Here the session's first answer to the
/// head is lost, its second arrives — the head's mark now lies beyond rows
/// it never saw — and the head crashes. The resync is answered from the
/// body node's committed cursor, not from the mark the head claims: the
/// head is whole again before any session runs.
#[test]
fn dropped_answer_then_head_crash_is_reshipped_from_the_committed_cursor() {
    let mut sys = settled_durable_head_body_system();
    let t0 = sys.run_update().outcome.virtual_time;
    for x in 100..103 {
        sys.insert(BODY, "b", vec![Val::Int(x), Val::Int(x)])
            .unwrap();
    }
    // … and two that reach the body node, and through it the head, one hop
    // later than the body node's own.
    for x in 200..202 {
        sys.insert(SOURCE, "c", vec![Val::Int(x), Val::Int(x)])
            .unwrap();
    }
    // The start command takes one hop (1 ms) to the root and the flood one
    // to the body node, whose first answer leaves then; its second leaves a
    // hop later, when the source's rows have arrived.
    let at = |micros: u64| SimTime(t0.0 + SimTime::from_micros(micros).0);
    sys.set_fault(FaultPlan::none().with_outage(LinkOutage {
        from: BODY,
        to: HEAD,
        start: t0,
        end: at(2_700),
    }));
    sys.set_churn(ChurnPlan::none().with_crash(
        HEAD,
        SimTime::from_millis(6),
        SimTime::from_millis(7),
    ));
    let before = sys.sum_stats();
    let stranded = sys.run_update();
    assert!(
        !stranded.all_closed,
        "the lost answer is never acknowledged"
    );
    let after = sys.sum_stats();
    assert_eq!(
        after.answers_sent - before.answers_sent,
        3,
        "c→b, then b→h twice"
    );
    assert_eq!(
        after.answers_received - before.answers_received,
        2,
        "the first b→h answer was lost"
    );
    assert_eq!(after.recoveries, 1);
    assert_eq!(
        after.resync_rows, 5,
        "the three rows of the lost answer and the two behind the mark"
    );
    assert_eq!(rows(&sys, HEAD, "h"), 25, "whole before any re-drive");

    sys.set_fault(FaultPlan::none());
    let report = sys.run(&redriven(1)).remove(0);
    assert!(report.all_closed && report.errors.is_empty(), "{report:?}");
    assert!(sys.snapshot().equivalent(&sys.oracle().unwrap()));
}

/// A cursor is fingerprinted by its fragment: a rule replaced under the
/// same id starts from the full extension of its new body.
#[test]
fn rule_replaced_under_the_same_id_is_not_served_from_the_old_cursor() {
    let mut sys = head_body_system();
    assert!(sys.run_update().all_closed);
    let old = sys.rules().by_name("r").unwrap().id;
    let mut op = sys
        .make_add_link("r2", "C:b(X,Y), X < 10 => B:u(X,Y)")
        .unwrap();
    let ChangeOp::AddLink { rule } = &mut op else {
        unreachable!()
    };
    rule.id = old;
    let mut script = ChangeScript::new();
    script.push(SimTime::from_millis(60_000), op);
    let before = sys.sum_stats().resumed_answers;
    let report = sys
        .run(&RunSpec {
            script,
            ..Default::default()
        })
        .remove(0);
    assert!(report.all_closed && report.errors.is_empty(), "{report:?}");
    assert_eq!(rows(&sys, HEAD, "u"), 10, "the new body's whole extension");
    assert_eq!(
        sys.sum_stats().resumed_answers - before,
        1,
        "the session's own query resumed; the replaced rule's did not"
    );
    // The next session resumes on the new fragment's cursor and ships nothing.
    let shipped = sys.sum_stats().rows_shipped;
    assert!(sys.run_update().all_closed);
    assert_eq!(sys.sum_stats().rows_shipped, shipped);
    assert_eq!(rows(&sys, HEAD, "u"), 10);
}
