//! The canonical metric-name registry.
//!
//! The [`crate::metrics`] module documents the key namespaces in prose; this
//! module is the same contract in machine-readable form, so tooling can
//! check conformance. `ssr-lint`'s `metric-registry` rule resolves every
//! string literal passed to a counter/gauge/histogram API against this
//! table: a typo'd key fails CI instead of silently forking a new series
//! that no dashboard or `obs` report ever aggregates.
//!
//! Adding a metric is a two-step change by design: register the key here
//! (with the namespace docs in [`crate::metrics`] when it opens a new
//! family), then use it. The registry tests keep the table sorted and
//! well-formed.

/// Every canonical counter and gauge key, sorted.
///
/// Counters and gauges share one namespace (a key is only ever used as one
/// of the two); histogram keys live in [`HISTOGRAMS`].
pub const KEYS: &[&str] = &[
    "chaos.potential",
    "fault.crash",
    "fault.heal",
    "fault.heal_link",
    "fault.join",
    "fault.join_dead_link",
    "fault.link_down",
    "fault.link_up",
    "fault.partition",
    "fault.partition_cut",
    "fwd.bad_trace",
    "fwd.broken",
    "fwd.misrouted",
    "fwd.no_path",
    "fwd.no_route",
    "fwd.truncated",
    "fwd.ttl_expired",
    "fwd.unexpected",
    "probe.delivered",
    "probe.fired",
    "probe.invariant.potential_rise",
    "probe.invariant.union_disconnected",
    "probe.locally_consistent",
    "probe.samples",
    "probe.stuck",
    "probe.watchdog_frozen",
    "prov.roots",
    "prov.wasted",
    "route.attempts",
    "route.delivered",
    "runs.converged",
    "runs.total",
    "rx.total",
    "rx.wasted",
    "tx.dropped",
    "tx.dup",
    "tx.lost_in_flight",
    "tx.reordered",
    "tx.total",
];

/// Every canonical histogram key, sorted.
pub const HISTOGRAMS: &[&str] = &[
    "chaos.recovery_msgs",
    "chaos.recovery_ticks",
    "latency.ticks",
    "probe.pending",
    "prov.cascade",
    "prov.depth",
    "rounds.to_line",
    "route.len",
    "route.stretch_milli",
    "state.entries",
    "state.peak_degree",
];

/// Open families: any key under these prefixes is canonical without being
/// enumerated. `msg.*` is open because the per-kind transmission counters
/// are derived from [`crate::Protocol::kind`] at transmit time — the set of
/// kinds belongs to the protocols, not to this registry.
pub const OPEN_PREFIXES: &[&str] = &["msg."];

/// `true` iff `key` may be written to (or read from) a metrics registry:
/// an enumerated counter/gauge/histogram key or a member of an open family.
pub fn is_canonical_key(key: &str) -> bool {
    KEYS.binary_search(&key).is_ok()
        || HISTOGRAMS.binary_search(&key).is_ok()
        || OPEN_PREFIXES.iter().any(|p| key.starts_with(p))
}

/// `true` iff `prefix` is a valid argument to a prefix-sum query
/// ([`crate::Metrics::counter_sum`]): an open family, or a prefix of at
/// least one enumerated key.
pub fn is_canonical_prefix(prefix: &str) -> bool {
    OPEN_PREFIXES.contains(&prefix)
        || KEYS.iter().any(|k| k.starts_with(prefix))
        || HISTOGRAMS.iter().any(|k| k.starts_with(prefix))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted_unique(table: &[&str]) {
        for w in table.windows(2) {
            assert!(
                w[0] < w[1],
                "out of order or duplicate: {} / {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn tables_are_sorted_and_unique() {
        sorted_unique(KEYS);
        sorted_unique(HISTOGRAMS);
        sorted_unique(OPEN_PREFIXES);
    }

    #[test]
    fn keys_are_namespaced() {
        for k in KEYS.iter().chain(HISTOGRAMS) {
            assert!(
                k.contains('.'),
                "{k}: canonical keys are namespaced as family.name"
            );
            assert!(!k.starts_with('.') && !k.ends_with('.'), "{k}");
        }
        for p in OPEN_PREFIXES {
            assert!(p.ends_with('.'), "{p}: open families end with the dot");
        }
    }

    #[test]
    fn no_key_shadows_an_open_family() {
        for k in KEYS.iter().chain(HISTOGRAMS) {
            assert!(
                !OPEN_PREFIXES.iter().any(|p| k.starts_with(p)),
                "{k} is already covered by an open prefix"
            );
        }
    }

    #[test]
    fn canonical_lookups() {
        assert!(is_canonical_key("tx.total"));
        assert!(is_canonical_key("route.len"));
        assert!(is_canonical_key("msg.anything"));
        assert!(!is_canonical_key("tx.totall"));
        assert!(!is_canonical_key("unregistered"));
        assert!(is_canonical_prefix("msg."));
        assert!(is_canonical_prefix("fault."));
        assert!(is_canonical_prefix("tx."));
        assert!(!is_canonical_prefix("bogus."));
    }

    /// Every key the simulator writes on the hot path must be registered —
    /// guards against a new dense slot drifting ahead of the registry.
    #[test]
    fn simulator_counters_are_registered() {
        for k in crate::metrics::HOP_KEYS {
            assert!(is_canonical_key(k), "{k} missing from registry");
        }
        assert!(HISTOGRAMS.contains(&crate::metrics::LATENCY_KEY));
    }
}
