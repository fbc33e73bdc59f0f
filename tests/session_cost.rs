//! A session costs what changed, not what exists: on a long-lived system the
//! rows a session ships follow the delta inserted before it, not the size
//! the databases have grown to — because subscription cursors outlive the
//! session. Deterministic counts on the simulator, no timing.

use p2pdb::core::stats::PeerStats;
use p2pdb::core::system::P2PSystem;
use p2pdb::topology::{NodeId, Topology};
use p2pdb::workload::{
    build_system, DblpGenerator, Distribution, Publication, SchemaFamily, WorkloadConfig,
};

const NODES: u32 = 8;
const SESSIONS: usize = 30;

/// DBLP ring(8): three schema families round-robin, translation rules along
/// every ring edge (cyclic, with existential heads), 40 disjoint base
/// publications per node.
fn ring(paper_faithful: bool) -> P2PSystem {
    let mut b = build_system(&WorkloadConfig {
        topology: Topology::Ring { n: NODES },
        records_per_node: 40,
        distribution: Distribution::Disjoint,
        seed: 3,
    })
    .unwrap();
    b.config_mut().paper_faithful = paper_faithful;
    b.build().unwrap()
}

fn insert(sys: &mut P2PSystem, node: NodeId, pubs: &[Publication]) {
    for p in pubs {
        for (relation, vals) in SchemaFamily::for_node(node.0).tuples_for(p) {
            sys.insert(node, relation, vals).unwrap();
        }
    }
}

/// What one session added to the network-wide counters.
struct Cost {
    rows_shipped: u64,
    tuples_inserted: u64,
    resumed_answers: u64,
    messages: u64,
}

fn session(sys: &mut P2PSystem, before: &mut PeerStats) -> Cost {
    let report = sys.run_update();
    assert!(report.all_closed && report.errors.is_empty(), "{report:?}");
    let after = sys.sum_stats();
    let cost = Cost {
        rows_shipped: after.rows_shipped - before.rows_shipped,
        tuples_inserted: after.tuples_inserted - before.tuples_inserted,
        resumed_answers: after.resumed_answers - before.resumed_answers,
        messages: report.messages,
    };
    *before = after;
    cost
}

#[test]
fn thirty_sessions_of_two_publications_ship_the_delta_not_the_database() {
    let mut sys = ring(false);
    let mut baseline = ring(true);
    let rules = sys.rules().len();
    let mut fresh = DblpGenerator::new(0x5e55_1075);
    let (mut seen, mut seen_baseline) = (PeerStats::default(), PeerStats::default());
    let mut costs = Vec::new();
    let mut retained_at_first = None;

    for k in 0..SESSIONS {
        let writer = NodeId(k as u32 % NODES);
        let pubs: Vec<Publication> = fresh
            .batch(2)
            .into_iter()
            .map(|mut p| {
                p.id += 10_000_000; // far above anything the base data holds
                p
            })
            .collect();
        insert(&mut sys, writer, &pubs);
        insert(&mut baseline, writer, &pubs);

        let cost = session(&mut sys, &mut seen);
        let full = session(&mut baseline, &mut seen_baseline);
        assert_eq!(
            cost.messages, full.messages,
            "session {k}: the skeleton of queries, answers, acks and the \
             broadcast is the paper-faithful one; only the row sets shrink"
        );
        assert_eq!(full.resumed_answers, 0, "the baseline keeps no cursor");
        assert!(
            sys.snapshot().equivalent(&sys.oracle().unwrap()),
            "session {k}: fix-point differs from the oracle"
        );
        for (id, peer) in sys.peers() {
            assert_eq!(peer.session_table_len(), 0, "session {k}: leak at {id}");
            // Neither per-peer table grows with the number of sessions: a
            // peer holds at most one cursor and one held-fragment mark per
            // rule it serves or heads, and — every rule here reading one
            // body node — no fragment rows at all.
            let (cursors, fragments) = peer.retained_entries();
            assert!(
                cursors <= rules && fragments <= rules,
                "session {k} at {id}"
            );
            assert_eq!(peer.retained_rows(), 0, "session {k} at {id}");
        }
        let retained: Vec<(usize, usize)> =
            sys.peers().map(|(_, p)| p.retained_entries()).collect();
        match &retained_at_first {
            None => retained_at_first = Some(retained),
            Some(first) => assert_eq!(&retained, first, "session {k}: retained state moved"),
        }
        if k > 0 {
            assert_eq!(
                cost.resumed_answers, rules as u64,
                "session {k}: every subscription resumes from its cursor"
            );
            assert!(
                cost.rows_shipped * 10 < full.rows_shipped,
                "session {k}: {} rows against the baseline's {}",
                cost.rows_shipped,
                full.rows_shipped
            );
        }
        costs.push(cost);
    }

    // Sessions 11–30 (1-based): what is shipped follows what is inserted …
    let steady = &costs[10..];
    let shipped: u64 = steady.iter().map(|c| c.rows_shipped).sum();
    let inserted: u64 = steady.iter().map(|c| c.tuples_inserted).sum();
    assert!(inserted > 0);
    assert!(
        shipped <= 4 * inserted,
        "{shipped} rows shipped for {inserted} tuples inserted"
    );
    // … and is flat in the size of the database, which keeps growing.
    let (first, last) = (&costs[10], &costs[SESSIONS - 1]);
    assert!(
        2 * last.rows_shipped <= 3 * first.rows_shipped,
        "session 30 ships {} rows, session 11 shipped {}",
        last.rows_shipped,
        first.rows_shipped
    );
}
