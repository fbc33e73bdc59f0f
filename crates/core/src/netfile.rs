//! Network description files.
//!
//! Section 5: the super-peer "can read coordination rules for all peers
//! from a file and broadcast this file to all peers on the network … This is
//! extremely convenient for running multiple experiments on different
//! topologies." This module is that file format: a JSON document declaring
//! nodes (name, schema, base data) and coordination rules, loadable into a
//! [`crate::system::P2PSystemBuilder`] and exportable from a running
//! system ([`crate::system::P2PSystem::export`]: the declared nodes, names
//! and rules, with each node's database as it stands for its data) or from
//! bare databases ([`NetworkFile::from_databases`], letter names). Rule
//! texts call nodes by name, so a name, like an id, is unique across the
//! file; a node declared without one is called by its letter form, and
//! that name is taken as well.
//!
//! ```json
//! {
//!   "super_peer": 0,
//!   "nodes": [
//!     { "id": 0, "name": "A", "schema": "a(x: int, y: int).", "data": {} },
//!     { "id": 1, "name": "B", "schema": "b(x: int, y: int).",
//!       "data": { "b": [[{"Int":1},{"Int":2}]] } }
//!   ],
//!   "rules": [ { "name": "r1", "text": "B:b(X,Y) => A:a(X,Y)" } ]
//! }
//! ```

use crate::error::{CoreError, CoreResult};
use crate::rule::RuleSet;
use crate::system::P2PSystemBuilder;
use p2p_relational::{Database, Value};
use p2p_topology::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Display;

/// One node declaration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeDecl {
    /// Numeric node id (unique).
    pub id: u32,
    /// Name used in rule texts (defaults to the letter form when omitted),
    /// unique across the file.
    #[serde(default)]
    pub name: Option<String>,
    /// Schema in the textual form `rel(col: type, ...).`.
    pub schema: String,
    /// Base data: relation name → rows (each row a list of values).
    #[serde(default)]
    pub data: BTreeMap<String, Vec<Vec<Value>>>,
}

/// One coordination rule declaration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RuleDecl {
    /// Unique rule name.
    pub name: String,
    /// Rule text in the paper notation, e.g. `B:b(X,Y) => A:a(X,Y)`.
    pub text: String,
}

/// A whole network description.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NetworkFile {
    /// The super-peer's node id (defaults to 0).
    #[serde(default)]
    pub super_peer: u32,
    /// Node declarations.
    pub nodes: Vec<NodeDecl>,
    /// Rule declarations.
    pub rules: Vec<RuleDecl>,
}

impl NetworkFile {
    /// Parses a JSON document.
    pub fn from_json(text: &str) -> CoreResult<Self> {
        serde_json::from_str(text)
            .map_err(|e| CoreError::MalformedRule(format!("network file: {e}")))
    }

    /// Serialises to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("network files are plain data")
    }

    /// Builds a [`P2PSystemBuilder`] from this description (each node with
    /// its data, then the rules — every step validated).
    pub fn into_builder(&self) -> CoreResult<P2PSystemBuilder> {
        let mut b = P2PSystemBuilder::new();
        for node in &self.nodes {
            match &node.name {
                Some(name) => b.add_named_node(name, node.id, &node.schema)?,
                None => b.add_node_with_schema(node.id, &node.schema)?,
            }
            for (relation, rows) in &node.data {
                for row in rows {
                    b.insert(node.id, relation, row)?;
                }
            }
        }
        for rule in &self.rules {
            b.add_rule(&rule.name, &rule.text)?;
        }
        b.set_super_peer(self.super_peer);
        Ok(b)
    }

    /// Exports a network description from databases (e.g. a system snapshot)
    /// plus rules, each node called by its letter form. Relation instances
    /// become base data, so loading the export replays the materialised
    /// state. A built system exports under the names it declared
    /// ([`crate::system::P2PSystem::export`]).
    pub fn from_databases(
        super_peer: NodeId,
        databases: &BTreeMap<NodeId, Database>,
        rules: &RuleSet,
    ) -> Self {
        let nodes = databases.iter().map(|(node, db)| (*node, db));
        Self::export(super_peer, nodes, rules, |node| node)
    }

    /// The one export: each node with its name, `name(node)`, its schema
    /// and its relations' rows as base data, and the rules written over the
    /// same names.
    pub(crate) fn export<'d, N: Display>(
        super_peer: NodeId,
        nodes: impl Iterator<Item = (NodeId, &'d Database)>,
        rules: &RuleSet,
        name: impl Fn(NodeId) -> N,
    ) -> Self {
        let nodes = nodes
            .map(|(node, db)| NodeDecl {
                id: node.0,
                name: Some(name(node).to_string()),
                schema: db.schema().to_string(),
                data: (db.relations())
                    .filter(|(_, rel)| !rel.is_empty())
                    .map(|(relation, rel)| {
                        let rows = rel
                            .iter()
                            .map(|row| row.iter().map(|v| v.to_value()).collect());
                        (relation.to_string(), rows.collect())
                    })
                    .collect(),
            })
            .collect();
        let rules = (rules.iter())
            .map(|rule| {
                let mut text = String::new();
                (rule.write_text(&mut text, &name)).expect("a String takes any text");
                RuleDecl {
                    name: rule.name.to_string(),
                    text,
                }
            })
            .collect();
        NetworkFile {
            super_peer: super_peer.0,
            nodes,
            rules,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
        "super_peer": 0,
        "nodes": [
            { "id": 0, "schema": "a(x: int, y: int)." },
            { "id": 1, "schema": "b(x: int, y: int).",
              "data": { "b": [[{"Int":1},{"Int":2}], [{"Int":3},{"Int":4}]] } }
        ],
        "rules": [ { "name": "r1", "text": "B:b(X,Y) => A:a(X,Y)" } ]
    }"#;

    #[test]
    fn load_build_run() {
        let file = NetworkFile::from_json(SAMPLE).unwrap();
        let mut sys = file.into_builder().unwrap().build().unwrap();
        let report = sys.run_update();
        assert!(report.all_closed);
        assert_eq!(
            sys.database(NodeId(0))
                .unwrap()
                .relation("a")
                .unwrap()
                .len(),
            2
        );
    }

    #[test]
    fn json_round_trip() {
        let file = NetworkFile::from_json(SAMPLE).unwrap();
        let reparsed = NetworkFile::from_json(&file.to_json()).unwrap();
        assert_eq!(file, reparsed);
    }

    #[test]
    fn export_replays_materialised_state() {
        let file = NetworkFile::from_json(SAMPLE).unwrap();
        let mut sys = file.into_builder().unwrap().build().unwrap();
        sys.run_update();

        // Export the post-update snapshot, reload, and verify A's data is
        // base data now.
        let export = NetworkFile::from_databases(sys.super_peer(), &sys.snapshot().0, sys.rules());
        let sys2 = export.into_builder().unwrap().build().unwrap();
        assert_eq!(
            sys2.database(NodeId(0))
                .unwrap()
                .relation("a")
                .unwrap()
                .len(),
            2
        );
        // Rules survived the round trip.
        assert_eq!(sys2.rules().len(), 1);
    }

    #[test]
    fn malformed_json_is_a_clean_error() {
        assert!(NetworkFile::from_json("{ nope").is_err());
    }

    #[test]
    fn bad_rule_text_fails_at_build() {
        let mut file = NetworkFile::from_json(SAMPLE).unwrap();
        file.rules[0].text = "Z:zzz(X) => A:a(X, X)".into();
        assert!(file.into_builder().is_err());
    }

    /// An unnamed node is called by its letter form, so a node named `B`
    /// beside an unnamed node 1 takes that node's name.
    #[test]
    fn a_name_is_unique_across_the_file() {
        let text = r#"{
            "nodes": [
                { "id": 0, "name": "B", "schema": "a(x: int)." },
                { "id": 1, "schema": "b(x: int)." }
            ],
            "rules": []
        }"#;
        let file = NetworkFile::from_json(text).unwrap();
        assert_eq!(
            file.into_builder().err(),
            Some(CoreError::DuplicateName("B".into()))
        );
    }

    #[test]
    fn named_nodes_resolve_in_rules() {
        let text = r#"{
            "nodes": [
                { "id": 0, "name": "hub", "schema": "a(x: int)." },
                { "id": 1, "name": "leaf", "schema": "b(x: int)derp" }
            ],
            "rules": []
        }"#;
        // Schema typo must surface as a parse error.
        let file = NetworkFile::from_json(text).unwrap();
        assert!(file.into_builder().is_err());

        let good = r#"{
            "nodes": [
                { "id": 0, "name": "hub", "schema": "a(x: int)." },
                { "id": 1, "name": "leaf", "schema": "b(x: int)." }
            ],
            "rules": [ { "name": "r", "text": "leaf:b(X) => hub:a(X)" } ]
        }"#;
        let file = NetworkFile::from_json(good).unwrap();
        assert!(file.into_builder().is_ok());
    }
}
