//! Simulation metrics: counters, gauges, log-bucketed histograms, and
//! periodic time-series snapshots.
//!
//! Experiment E6 ("flooding cost") is a message-accounting experiment: it
//! compares how many per-link transmissions each bootstrap mechanism needs,
//! broken down by message kind. The simulator increments these counters on
//! every hop; protocols can add their own counters, gauge samples, and
//! histogram observations.
//!
//! # Canonical key namespaces
//!
//! This is the one place the metric-name contract is written down; the
//! simulator, the protocol crates, and the `obs` tooling all follow it.
//!
//! | prefix     | written by      | meaning                                          |
//! |------------|-----------------|--------------------------------------------------|
//! | `tx.*`     | simulator       | link-layer transmission outcomes: `tx.total` (every hop handed to the link layer, duplicates included), `tx.dropped` (link loss), `tx.lost_in_flight` (endpoint died / link vanished mid-flight), `tx.dup` (adversarial duplications), `tx.reordered` (bounded-delay reorderings) |
//! | `rx.*`     | simulator       | deliveries to protocols: `rx.total`              |
//! | `msg.*`    | simulator       | per-kind transmission counts from [`crate::Protocol::kind`]; **`counter_sum("msg.")` always equals `tx.total`** (kinds are counted at transmit time, before loss sampling; a kind the simulator has no slot for is counted as `msg.other`) |
//! | `fault.*`  | simulator       | applied faults: `fault.crash`, `fault.join`, `fault.join_dead_link` (requested link to a down peer), `fault.link_down`, `fault.link_up`, `fault.partition` / `fault.partition_cut` (severed cross-group edges), `fault.heal` / `fault.heal_link` (restored edges) |
//! | `probe.*`  | probe layer     | observer-side counters (e.g. `probe.samples`)    |
//! | other      | protocols/exps  | protocol- or experiment-specific counters, ideally `"<crate>."`-prefixed |
//!
//! Histogram keys live in their own registry with the same style; the
//! conventional ones are `route.len` (physical hops), `route.stretch_milli`
//! (stretch × 1000, so the log buckets resolve ratios near 1), `state.entries`
//! (per-node state size), and `latency.ticks` (message latency).
//!
//! The machine-readable form of this table lives in [`crate::registry`];
//! `ssr-lint`'s `metric-registry` rule checks every metric-key literal in
//! the workspace against it, so a new key must be added there (or under an
//! open prefix family like `msg.*`) before it will pass CI.

use std::collections::BTreeMap;

/// Declares [`HopCounter`] and its key table [`HOP_KEYS`] from one list,
/// so a slot and its key cannot drift apart.
macro_rules! hop_counters {
    ($($slot:ident = $key:literal,)*) => {
        /// A per-hop counter the simulator bumps on every transmission or
        /// delivery: a fixed slot in [`Metrics`]' dense table.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub(crate) enum HopCounter {
            $($slot,)*
        }

        /// The key of each [`HopCounter`] slot, indexed by the variant and
        /// sorted, so a name resolves to its slot by binary search and the
        /// dense table iterates in key order.
        pub(crate) const HOP_KEYS: &[&str] = &[$($key,)*];
    };
}

hop_counters! {
    MsgAck = "msg.ack",
    MsgData = "msg.data",
    MsgDiscover = "msg.discover",
    MsgFlood = "msg.flood",
    MsgHello = "msg.hello",
    MsgNotify = "msg.notify",
    MsgOther = "msg.other",
    MsgProbe = "msg.probe",
    MsgSetup = "msg.setup",
    MsgSucc = "msg.succ",
    MsgTeardown = "msg.teardown",
    MsgUpdate = "msg.update",
    RxTotal = "rx.total",
    RxWasted = "rx.wasted",
    TxDropped = "tx.dropped",
    TxDup = "tx.dup",
    TxLostInFlight = "tx.lost_in_flight",
    TxReordered = "tx.reordered",
    TxTotal = "tx.total",
}

/// Number of dense per-hop counter slots (at most 32: one bit each in
/// `Metrics::hops_touched`).
const HOPS: usize = HOP_KEYS.len();
const _: () = assert!(HOPS <= u32::BITS as usize);

/// The histogram the simulator observes on every transmitted copy; kept in
/// its own field of [`Metrics`] instead of the string-keyed map.
pub(crate) const LATENCY_KEY: &str = "latency.ticks";

impl HopCounter {
    /// The `msg.<kind>` slot counting transmissions of a protocol message
    /// kind (see [`crate::Protocol::kind`]). Kinds used by the workspace
    /// protocols have their own slot; any other kind lands in `msg.other`,
    /// so the sum under `msg.` is always `tx.total`.
    pub(crate) fn for_kind(kind: &str) -> HopCounter {
        match kind {
            "ack" => HopCounter::MsgAck,
            "data" => HopCounter::MsgData,
            "discover" => HopCounter::MsgDiscover,
            "flood" => HopCounter::MsgFlood,
            "hello" => HopCounter::MsgHello,
            "notify" => HopCounter::MsgNotify,
            "probe" => HopCounter::MsgProbe,
            "setup" => HopCounter::MsgSetup,
            "succ" => HopCounter::MsgSucc,
            "teardown" => HopCounter::MsgTeardown,
            "update" => HopCounter::MsgUpdate,
            _ => HopCounter::MsgOther,
        }
    }
}

/// The dense slot holding counter `key`, if it is a per-hop key.
fn hop_slot(key: &str) -> Option<usize> {
    HOP_KEYS.binary_search(&key).ok()
}

/// Counter/gauge/histogram registry for one simulation run.
///
/// Keys are static strings so that protocols can use literal message-kind
/// names without allocation, and every listing comes out sorted by key,
/// so report output is deterministic.
///
/// The counters the simulator writes on every hop (`tx.*`, `rx.*`,
/// `msg.*`, see `HOP_KEYS`) and the `latency.ticks` histogram live in
/// fixed fields, so the hot path increments an array slot instead of
/// walking a map. Every other key lives in a `BTreeMap`. The string API
/// resolves a name to wherever it lives, so callers never see the split.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// The per-hop counters, indexed by [`HopCounter`].
    hops: [u64; HOPS],
    /// Bit `i` set: slot `i` was written through the string API, so it is
    /// listed even while zero (as a map entry added with delta 0 would be).
    hops_touched: u32,
    /// Every other counter.
    counters: BTreeMap<&'static str, u64>,
    /// min/max/sum/count per gauge, enough for mean and extremes.
    gauges: BTreeMap<&'static str, GaugeStats>,
    /// The `latency.ticks` histogram, once anything was recorded under it.
    latency: Option<Histogram>,
    /// Every other log-bucketed value distribution.
    hists: BTreeMap<&'static str, Histogram>,
    /// Periodic counter/gauge snapshots (see [`Metrics::sample_series`]).
    series: Vec<SeriesPoint>,
}

/// `items` sorted by key: the listing order of every string-API view.
fn sorted<V>(
    items: impl Iterator<Item = (&'static str, V)>,
) -> std::vec::IntoIter<(&'static str, V)> {
    let mut items: Vec<_> = items.collect();
    items.sort_unstable_by_key(|&(k, _)| k);
    items.into_iter()
}

/// Aggregate statistics of a sampled gauge.
#[derive(Clone, Copy, Debug)]
pub struct GaugeStats {
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Sum of samples.
    pub sum: f64,
    /// Number of samples.
    pub count: u64,
}

impl GaugeStats {
    const EMPTY: GaugeStats = GaugeStats {
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
        sum: 0.0,
        count: 0,
    };

    fn observe(&mut self, v: f64) {
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.sum += v;
        self.count += 1;
    }

    /// Mean of the samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Number of buckets in a [`Histogram`]: one for zero plus one per bit
/// length of a `u64`.
pub const HIST_BUCKETS: usize = 65;

/// A log₂-bucketed histogram of `u64` observations.
///
/// Bucket 0 holds the value 0; bucket `i ≥ 1` holds values in
/// `[2^(i-1), 2^i)`. Merging is bucketwise addition, so it is associative
/// and commutative, and percentile estimates are exact up to bucket
/// resolution (the estimate always lands in the same bucket as the
/// nearest-rank exact percentile).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index `v` falls into.
    #[inline]
    pub fn bucket_index(v: u64) -> usize {
        (u64::BITS - v.leading_zeros()) as usize
    }

    /// The half-open value range `[lo, hi)` of bucket `i` (bucket 0 is the
    /// degenerate `[0, 1)`).
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        match i {
            0 => (0, 1),
            64 => (1 << 63, u64::MAX),
            _ => (1 << (i - 1), 1 << i),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&mut self, v: u64) {
        self.buckets[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of the observations.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank percentile estimate for `q` in `[0, 100]`, reported as
    /// the lower bound of the bucket holding the rank (clamped into the
    /// observed `[min, max]` so single-bucket distributions report exact
    /// extremes). `None` when the histogram is empty.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 100.0);
        let rank = ((q / 100.0 * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, _) = Self::bucket_bounds(i);
                return Some(lo.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Merges another histogram into this one (bucketwise).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(lo, hi, count)` with `[lo, hi)` value bounds.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = Self::bucket_bounds(i);
                (lo, hi, c)
            })
    }
}

/// One periodic snapshot of all counters and gauge means.
#[derive(Clone, Debug, PartialEq)]
pub struct SeriesPoint {
    /// Simulated time of the snapshot.
    pub tick: u64,
    /// All counters at that time, in sorted key order.
    pub counters: Vec<(&'static str, u64)>,
    /// All gauge means at that time, in sorted key order.
    pub gauges: Vec<(&'static str, f64)>,
}

/// One aligned point of a cross-run series merge: per-key mean over the
/// runs that had a point at this index.
#[derive(Clone, Debug)]
pub struct MergedSeriesPoint {
    /// Snapshot time (taken from the first run; equal across runs when all
    /// were sampled at the same interval).
    pub tick: u64,
    /// Number of runs contributing to this point.
    pub runs: u64,
    /// Mean counter values across the contributing runs, sorted by key.
    pub counters: Vec<(&'static str, f64)>,
}

/// Merges same-interval series from repeated runs (different seeds)
/// pointwise: index `i` of the output averages index `i` of every input
/// that is long enough. Deterministic — inputs and key sets are iterated in
/// a fixed order.
pub fn merge_series(runs: &[&[SeriesPoint]]) -> Vec<MergedSeriesPoint> {
    let longest = runs.iter().map(|r| r.len()).max().unwrap_or(0);
    let mut out = Vec::with_capacity(longest);
    for i in 0..longest {
        let mut acc: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        let mut tick = 0u64;
        let mut contributing = 0u64;
        for run in runs {
            let Some(p) = run.get(i) else { continue };
            if contributing == 0 {
                tick = p.tick;
            }
            contributing += 1;
            for &(k, v) in &p.counters {
                let e = acc.entry(k).or_insert((0.0, 0));
                e.0 += v as f64;
                e.1 += 1;
            }
        }
        out.push(MergedSeriesPoint {
            tick,
            runs: contributing,
            counters: acc
                .into_iter()
                .map(|(k, (sum, n))| (k, sum / n.max(1) as f64))
                .collect(),
        });
    }
    out
}

impl Metrics {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to counter `key`.
    #[inline]
    pub fn add(&mut self, key: &'static str, delta: u64) {
        match hop_slot(key) {
            Some(i) => {
                self.hops[i] += delta;
                self.hops_touched |= 1 << i;
            }
            None => *self.counters.entry(key).or_insert(0) += delta,
        }
    }

    /// Increments counter `key` by one.
    #[inline]
    pub fn incr(&mut self, key: &'static str) {
        self.add(key, 1);
    }

    /// Increments a per-hop counter: the simulator's hot-path write.
    #[inline]
    pub(crate) fn bump(&mut self, c: HopCounter) {
        self.hops[c as usize] += 1;
    }

    /// Current value of counter `key` (0 if never touched).
    pub fn counter(&self, key: &str) -> u64 {
        match hop_slot(key) {
            Some(i) => self.hops[i],
            None => self.counters.get(key).copied().unwrap_or(0),
        }
    }

    /// Sum over all counters whose name starts with `prefix` — e.g. all
    /// `"msg."`-prefixed kinds for a total message count.
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        self.counters()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// Records one sample of gauge `key`.
    pub fn observe(&mut self, key: &'static str, value: f64) {
        self.gauges
            .entry(key)
            .or_insert(GaugeStats::EMPTY)
            .observe(value);
    }

    /// Statistics of gauge `key`, if any samples were recorded.
    pub fn gauge(&self, key: &str) -> Option<GaugeStats> {
        self.gauges.get(key).copied()
    }

    /// The histogram stored under `key`, created empty on first use.
    fn hist_entry(&mut self, key: &'static str) -> &mut Histogram {
        if key == LATENCY_KEY {
            self.latency.get_or_insert_with(Histogram::new)
        } else {
            self.hists.entry(key).or_default()
        }
    }

    /// Records one histogram observation under `key`.
    #[inline]
    pub fn observe_hist(&mut self, key: &'static str, value: u64) {
        self.hist_entry(key).observe(value);
    }

    /// Records one `latency.ticks` observation: the simulator's hot-path
    /// histogram write.
    #[inline]
    pub(crate) fn observe_latency(&mut self, ticks: u64) {
        self.latency
            .get_or_insert_with(Histogram::new)
            .observe(ticks);
    }

    /// Merges a pre-aggregated histogram into the one under `key` — used
    /// when a subsystem (e.g. the causal ledger) maintains its own
    /// [`Histogram`] and mirrors it into the registry at summary time.
    pub fn merge_hist(&mut self, key: &'static str, h: &Histogram) {
        self.hist_entry(key).merge(h);
    }

    /// The histogram under `key`, if any observations were recorded.
    pub fn hist(&self, key: &str) -> Option<&Histogram> {
        if key == LATENCY_KEY {
            self.latency.as_ref()
        } else {
            self.hists.get(key)
        }
    }

    /// All histograms in sorted key order.
    pub fn hists(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        let latency = self.latency.as_ref().map(|h| (LATENCY_KEY, h));
        sorted(
            latency
                .into_iter()
                .chain(self.hists.iter().map(|(&k, v)| (k, v))),
        )
    }

    /// All counters in sorted key order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        let hops = HOP_KEYS
            .iter()
            .zip(self.hops)
            .enumerate()
            .filter(|&(i, (_, v))| v > 0 || self.hops_touched & (1 << i) != 0)
            .map(|(_, (&k, v))| (k, v));
        sorted(hops.chain(self.counters.iter().map(|(&k, &v)| (k, v))))
    }

    /// All gauges in sorted key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, GaugeStats)> + '_ {
        self.gauges.iter().map(|(&k, &v)| (k, v))
    }

    /// Appends a snapshot of every counter and gauge mean to the run's
    /// time series. The simulator calls this on a fixed tick interval when
    /// sampling is enabled (see `Simulator::sample_metrics_every`).
    pub fn sample_series(&mut self, tick: u64) {
        let counters: Vec<(&'static str, u64)> = self.counters().collect();
        let gauges: Vec<(&'static str, f64)> =
            self.gauges.iter().map(|(&k, g)| (k, g.mean())).collect();
        self.series.push(SeriesPoint {
            tick,
            counters,
            gauges,
        });
    }

    /// The recorded time series, in sampling order.
    pub fn series(&self) -> &[SeriesPoint] {
        &self.series
    }

    /// Merges another registry into this one (used when aggregating
    /// repeated runs): counters and histogram buckets add, gauges combine.
    /// Time series are **not** concatenated — cross-run series belong to
    /// [`merge_series`], which aligns them by sample index instead.
    pub fn merge(&mut self, other: &Metrics) {
        for (a, b) in self.hops.iter_mut().zip(other.hops) {
            *a += b;
        }
        self.hops_touched |= other.hops_touched;
        for (k, v) in &other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (k, g) in &other.gauges {
            let e = self.gauges.entry(k).or_insert(GaugeStats::EMPTY);
            e.min = e.min.min(g.min);
            e.max = e.max.max(g.max);
            e.sum += g.sum;
            e.count += g.count;
        }
        for (k, h) in other.hists() {
            self.hist_entry(k).merge(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        m.incr("msg.notify");
        m.add("msg.notify", 4);
        m.incr("msg.ack");
        assert_eq!(m.counter("msg.notify"), 5);
        assert_eq!(m.counter("msg.ack"), 1);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn prefix_sum() {
        let mut m = Metrics::new();
        m.add("msg.a", 2);
        m.add("msg.b", 3);
        m.add("other", 100);
        assert_eq!(m.counter_sum("msg."), 5);
    }

    #[test]
    fn gauges_track_min_max_mean() {
        let mut m = Metrics::new();
        for v in [1.0, 2.0, 3.0] {
            m.observe("state", v);
        }
        let g = m.gauge("state").unwrap();
        assert_eq!(g.min, 1.0);
        assert_eq!(g.max, 3.0);
        assert!((g.mean() - 2.0).abs() < 1e-12);
        assert!(m.gauge("missing").is_none());
    }

    #[test]
    fn merge_combines() {
        let mut a = Metrics::new();
        a.add("msg.x", 1);
        a.observe("g", 1.0);
        a.observe_hist("h", 4);
        let mut b = Metrics::new();
        b.add("msg.x", 2);
        b.observe("g", 5.0);
        b.observe_hist("h", 900);
        a.merge(&b);
        assert_eq!(a.counter("msg.x"), 3);
        let g = a.gauge("g").unwrap();
        assert_eq!(g.count, 2);
        assert_eq!(g.max, 5.0);
        let h = a.hist("h").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), Some(900));
    }

    #[test]
    fn iteration_is_sorted() {
        let mut m = Metrics::new();
        m.incr("zeta");
        m.incr("alpha");
        let keys: Vec<&str> = m.counters().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["alpha", "zeta"]);
    }

    #[test]
    fn hop_table_is_sorted_and_kinds_map_to_their_slot() {
        for w in HOP_KEYS.windows(2) {
            assert!(w[0] < w[1], "out of order or duplicate: {w:?}");
        }
        for (i, key) in HOP_KEYS.iter().enumerate() {
            assert_eq!(hop_slot(key), Some(i));
            if let Some(kind) = key.strip_prefix("msg.") {
                assert_eq!(HOP_KEYS[HopCounter::for_kind(kind) as usize], *key);
            }
        }
        for kind in ["msg", "gossip", ""] {
            assert_eq!(HopCounter::for_kind(kind), HopCounter::MsgOther);
        }
    }

    #[test]
    fn string_api_and_hot_path_share_one_slot() {
        let mut m = Metrics::new();
        m.add("tx.total", 3);
        m.bump(HopCounter::TxTotal);
        m.bump(HopCounter::MsgNotify);
        m.incr("msg.notify");
        assert_eq!(m.counter("tx.total"), 4);
        assert_eq!(m.counter("msg.notify"), 2);
        assert_eq!(
            m.counters().collect::<Vec<_>>(),
            vec![("msg.notify", 2), ("tx.total", 4)]
        );
        m.observe_latency(3);
        m.observe_hist("latency.ticks", 5);
        assert_eq!(m.hist("latency.ticks").map(Histogram::count), Some(2));
        assert_eq!(m.hists().count(), 1);
    }

    #[test]
    fn dense_and_named_counters_list_in_one_sorted_order() {
        let mut m = Metrics::new();
        m.incr("probe.samples");
        m.bump(HopCounter::TxTotal);
        m.incr("fwd.no_path");
        m.bump(HopCounter::RxTotal);
        m.add("msg.a", 2);
        m.bump(HopCounter::MsgAck);
        m.incr("fault.crash");
        m.incr("prov.roots");
        m.bump(HopCounter::MsgOther);
        m.incr("zz.last");
        let want = vec![
            ("fault.crash", 1),
            ("fwd.no_path", 1),
            ("msg.a", 2),
            ("msg.ack", 1),
            ("msg.other", 1),
            ("probe.samples", 1),
            ("prov.roots", 1),
            ("rx.total", 1),
            ("tx.total", 1),
            ("zz.last", 1),
        ];
        assert_eq!(m.counters().collect::<Vec<_>>(), want);
        assert_eq!(m.counter_sum("msg."), 4);
        m.sample_series(7);
        assert_eq!(m.series()[0].counters, want);
    }

    #[test]
    fn latency_hist_lists_in_sorted_order() {
        let mut m = Metrics::new();
        m.observe_hist("route.len", 3);
        m.observe_latency(1);
        m.observe_hist("prov.depth", 2);
        m.observe_hist("chaos.recovery_ticks", 9);
        m.observe_hist("latency.a", 4);
        let keys: Vec<&str> = m.hists().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            vec![
                "chaos.recovery_ticks",
                "latency.a",
                "latency.ticks",
                "prov.depth",
                "route.len"
            ]
        );
    }

    #[test]
    fn zero_delta_keys_survive_listing_and_merge() {
        let mut a = Metrics::new();
        a.add("tx.dup", 0);
        a.add("fault.crash", 0);
        a.merge_hist("latency.ticks", &Histogram::new());
        let want = vec![("fault.crash", 0), ("tx.dup", 0)];
        assert_eq!(a.counters().collect::<Vec<_>>(), want);
        let mut b = Metrics::new();
        b.merge(&a);
        assert_eq!(b.counters().collect::<Vec<_>>(), want);
        assert_eq!(b.hist("latency.ticks").map(Histogram::count), Some(0));
        // a later bump keeps the slot listed once
        b.bump(HopCounter::TxDup);
        a.merge(&b);
        assert_eq!(
            a.counters().collect::<Vec<_>>(),
            vec![("fault.crash", 0), ("tx.dup", 1)]
        );
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        for i in 0..HIST_BUCKETS {
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert!(lo < hi.max(1));
            assert_eq!(Histogram::bucket_index(lo), i);
        }
    }

    #[test]
    fn histogram_stats_and_percentiles() {
        let mut h = Histogram::new();
        assert!(h.percentile(50.0).is_none());
        for v in [1u64, 2, 3, 4, 100] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(100));
        assert!((h.mean() - 22.0).abs() < 1e-12);
        // ranks: p50 → 3rd smallest = 3, bucket [2,4) → lower bound 2
        assert_eq!(h.percentile(50.0), Some(2));
        // p100 → 100, bucket [64,128) → lower bound 64
        assert_eq!(h.percentile(100.0), Some(64));
        // p0 clamps to rank 1 → value 1
        assert_eq!(h.percentile(0.0), Some(1));
    }

    #[test]
    fn histogram_merge_matches_bulk() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in 0..100u64 {
            if v % 2 == 0 {
                a.observe(v * v);
            } else {
                b.observe(v * v);
            }
            all.observe(v * v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, all);
    }

    #[test]
    fn series_snapshots_accumulate() {
        let mut m = Metrics::new();
        m.incr("tx.total");
        m.sample_series(10);
        m.add("tx.total", 4);
        m.observe("g", 2.0);
        m.sample_series(20);
        let s = m.series();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].tick, 10);
        assert_eq!(s[0].counters, vec![("tx.total", 1)]);
        assert_eq!(s[1].counters, vec![("tx.total", 5)]);
        assert_eq!(s[1].gauges, vec![("g", 2.0)]);
    }

    #[test]
    fn merged_series_averages_pointwise() {
        let run = |scale: u64| -> Vec<SeriesPoint> {
            (1..=3)
                .map(|i| SeriesPoint {
                    tick: i * 10,
                    counters: vec![("tx.total", i * scale)],
                    gauges: vec![],
                })
                .collect()
        };
        let (a, b) = (run(2), run(4));
        let merged = merge_series(&[&a, &b]);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged[0].tick, 10);
        assert_eq!(merged[0].runs, 2);
        // means of (2,4), (4,8), (6,12)
        assert_eq!(merged[0].counters, vec![("tx.total", 3.0)]);
        assert_eq!(merged[2].counters, vec![("tx.total", 9.0)]);
    }
}
