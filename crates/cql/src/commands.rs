//! The request-verb table: one row per verb `icdbd` answers — the CQL
//! commands of [`parse_command`](crate::parse_command) followed by the
//! wire-protocol verbs — naming the lock tier each runs under. Lock
//! routing, the per-command metric slots, the wire `commit:` ack and the
//! client's retry and follower-routing decisions all read this one table,
//! so adding a command is one row here plus one handler.

/// Where a request verb runs. Generation a CQL command needs first — a
/// request's pre-warm, an `explore` sweep — runs before either lock tier,
/// on the service's epoch snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Reads: answered from live state under the shared service lock.
    Shared,
    /// Mutates: runs in the exclusive commit section, and its wire ack
    /// carries the namespace's commit sequence.
    Exclusive,
    /// A wire-protocol verb, answered outside the CQL dispatcher.
    Wire,
}

/// One row of [`COMMANDS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommandSpec {
    /// The verb: a CQL request's `command:` value, or the first word of a
    /// wire-protocol request.
    pub name: &'static str,
    /// The tier the verb runs under unless its terms escalate it to the
    /// exclusive section: a `persist` that checkpoints, clears a fault or
    /// promotes, an `explore` with `publish:1`, or an `instance_query` for
    /// an ungenerated layout. An `explore` sweeps before either tier and
    /// enters the exclusive section only to journal its `publish:1` rows.
    pub tier: Tier,
    /// Whether its exclusive section still runs while the server refuses
    /// commits — degraded after a durability fault, or a replication
    /// follower. Only `persist` has it: `checkpoint:1`, `clear_fault:1`
    /// and `promote:1` are how writes re-arm.
    pub rearms: bool,
}

impl CommandSpec {
    /// Whether the verb never mutates: its ack carries no `commit:` word,
    /// and a client may re-send it after a dropped connection or route it
    /// to a follower.
    pub fn read_only(&self) -> bool {
        self.tier == Tier::Shared
    }
}

const fn row(name: &'static str, tier: Tier) -> CommandSpec {
    CommandSpec {
        name,
        tier,
        rearms: false,
    }
}

/// Every request verb, CQL commands first. Row order is the order of the
/// per-command metric slots and of their `icdb_requests_total{command=…}`
/// samples.
pub const COMMANDS: &[CommandSpec] = &[
    row("component_query", Tier::Shared),
    row("function_query", Tier::Shared),
    row("request_component", Tier::Exclusive),
    row("instance_query", Tier::Shared),
    row("connect_component", Tier::Shared),
    row("start_a_design", Tier::Exclusive),
    row("start_a_transaction", Tier::Exclusive),
    row("put_in_component_list", Tier::Exclusive),
    row("end_a_transaction", Tier::Exclusive),
    row("end_a_design", Tier::Exclusive),
    row("insert_component", Tier::Exclusive),
    row("merge_query", Tier::Shared),
    row("tool_query", Tier::Shared),
    row("cache_query", Tier::Shared),
    row("explore", Tier::Shared),
    CommandSpec {
        name: "persist",
        tier: Tier::Shared,
        rearms: true,
    },
    row("metrics", Tier::Shared),
    row("corpus", Tier::Shared),
    row("attach", Tier::Wire),
    row("hello", Tier::Wire),
    row("wait_seq", Tier::Wire),
    row("repl_snapshot", Tier::Wire),
    row("repl_stream", Tier::Wire),
];

/// The row of a verb, if it has one.
pub fn command_spec(name: &str) -> Option<&'static CommandSpec> {
    COMMANDS.iter().find(|c| c.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_verb_has_exactly_one_row() {
        for (i, spec) in COMMANDS.iter().enumerate() {
            assert!(
                COMMANDS[..i].iter().all(|c| c.name != spec.name),
                "`{}` has two rows",
                spec.name
            );
            assert_eq!(command_spec(spec.name), Some(spec));
        }
        assert_eq!(command_spec("no_such_cmd"), None);
    }
}
