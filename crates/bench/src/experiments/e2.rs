//! E2 — Figure 1: sample execution trace.

use super::{paper_example, Scale};
use p2p_core::system::RunSpec;
use p2p_topology::NodeId;

/// E2: a Figure-1 style message-sequence diagram of discovery + update on
/// the running example (columns :A :B :C :E as in the paper).
pub(crate) fn e2_figure1_trace() -> String {
    let mut b = paper_example(&[(1, 2), (2, 3)]);
    b.config_mut().trace_capacity = 64;
    let mut sys = b.build().unwrap();
    sys.run_discovery(&[]);
    // Figure 1 shows strict A4-style propagation (no flood): the
    // query-dependent update rooted at the super-peer.
    sys.run(&RunSpec {
        scoped: true,
        ..Default::default()
    });
    sys.trace()
        .render_sequence_diagram(&[NodeId(0), NodeId(1), NodeId(2), NodeId(4)])
}

pub(super) fn report(_: Scale) -> String {
    format!("\n{}\n", e2_figure1_trace())
}
