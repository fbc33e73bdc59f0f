//! Codec integration: a whole update run under the binary wire codec lands
//! on the identical fix-point (tuple-for-tuple, and against the oracle)
//! while shrinking total wire bytes several-fold; and the transport layer
//! serializes every message exactly once — measuring a message's size and
//! shipping it share a single encode pass.

use p2pdb::core::config::UpdateMode;
use p2pdb::net::Codec;
use p2pdb::relational::ShowRow;
use p2pdb::topology::{NodeId, Topology};
use p2pdb::workload::{build_system, Distribution, WorkloadConfig};
use std::collections::BTreeMap;

fn run(codec: Codec, mode: UpdateMode) -> (BTreeMap<NodeId, Vec<String>>, u64, u64) {
    let cfg = WorkloadConfig {
        topology: Topology::Tree {
            branching: 2,
            depth: 3,
        },
        records_per_node: 50,
        distribution: Distribution::Disjoint,
        seed: 7,
    };
    let mut b = build_system(&cfg).unwrap();
    b.config_mut().mode = mode;
    b.config_mut().codec = codec;
    let mut sys = b.build().unwrap();
    let report = sys.run_update();
    assert!(report.all_closed, "{codec}: not all closed");
    assert!(report.errors.is_empty(), "{codec}: {:?}", report.errors);
    assert!(
        sys.snapshot().equivalent(&sys.oracle().unwrap()),
        "{codec}: differs from oracle"
    );
    // Render every database to a canonical fact list: the deterministic
    // simulator makes runs under both codecs bit-identical in content, so
    // exact tuple equality (not just equivalence modulo nulls) must hold.
    let facts = sys
        .snapshot()
        .0
        .iter()
        .map(|(node, db)| {
            let mut rendered: Vec<String> = db
                .all_facts()
                .iter()
                .map(|(rel, row)| format!("{rel}{}", ShowRow(row)))
                .collect();
            rendered.sort();
            (*node, rendered)
        })
        .collect();
    (facts, report.messages, report.bytes)
}

#[test]
fn binary_codec_is_fixpoint_identical_and_much_smaller() {
    for mode in [UpdateMode::Eager, UpdateMode::Rounds] {
        let (json_facts, json_msgs, json_bytes) = run(Codec::Json, mode);
        let (bin_facts, bin_msgs, bin_bytes) = run(Codec::Binary, mode);
        assert_eq!(json_facts, bin_facts, "{mode:?}: fix-points differ");
        assert_eq!(json_msgs, bin_msgs, "{mode:?}: message counts differ");
        assert!(
            bin_bytes * 3 <= json_bytes,
            "{mode:?}: binary codec must shrink wire bytes at least 3x: \
             binary {bin_bytes} vs json {json_bytes}"
        );
    }
}

/// Regression for the double-serialization bug: `encoded_wire_size` used to
/// be called once to measure and the measurement discarded, with nothing
/// stopping a second walk at delivery. The runtimes now measure at send and
/// carry the size on the envelope — and since the fan-out refactor, a
/// broadcast's receivers share one `Arc`-ed payload and one serialization.
/// So the number of full encode passes per run equals the number of
/// *unique* messages: sends minus the shared-payload reuses, under both
/// codecs.
#[test]
fn each_sent_message_is_serialized_exactly_once() {
    for codec in [Codec::Json, Codec::Binary] {
        let cfg = WorkloadConfig {
            topology: Topology::Chain { n: 4 },
            records_per_node: 8,
            distribution: Distribution::Disjoint,
            seed: 11,
        };
        let mut b = build_system(&cfg).unwrap();
        b.config_mut().codec = codec;
        let mut sys = b.build().unwrap();
        let before = p2pdb::net::codec::encode_passes();
        let report = sys.run_update();
        let passes = p2pdb::net::codec::encode_passes() - before;
        let shared = sys.net_stats().shared_payload_sends;
        assert!(report.all_closed);
        // No faults: every send is delivered once, so
        // delivered messages == sends; each unique payload is encoded
        // exactly once and fan-out copies ride along for free.
        assert!(
            shared > 0,
            "{codec}: the roster flood must produce shared fan-out payloads"
        );
        assert_eq!(
            passes,
            report.messages - shared,
            "{codec}: expected one serialization per unique message \
             ({} sends, {shared} shared)",
            report.messages
        );
    }
}
