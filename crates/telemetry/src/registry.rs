//! The metrics registry and its deterministic snapshots.
//!
//! A [`Registry`] maps metric names to live handles. Registration
//! (get-or-create) takes the name map's lock — shared when the name is
//! already bound, which is every bind after a component's first instance;
//! *recording* never does — callers bind handles once at construction and
//! update atomics from then on.
//!
//! [`Snapshot`] is the plain-data view: `BTreeMap`s keyed by name, so
//! the Prometheus text page (and anything a consumer builds by walking
//! the maps) is deterministically ordered, and [`Snapshot::merge`] is
//! bucket-wise addition — associative, commutative, and therefore safe to
//! fold across per-work-unit registries in any grouping.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::clock::{MonotonicClock, SharedClock};
use crate::metrics::{bucket_upper, Counter, Gauge, Histogram, HistogramSnapshot, BUCKETS};

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// The registry: named counters, gauges, and histograms behind `&self`.
#[derive(Default)]
pub struct Registry {
    metrics: RwLock<BTreeMap<String, Metric>>,
}

impl core::fmt::Debug for Registry {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Registry").field("metrics", &self.metrics.read().len()).finish()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn get_or_register<T: Clone>(
        &self,
        name: &str,
        wrap: fn(T) -> Metric,
        unwrap: fn(&Metric) -> Option<T>,
        fresh: fn() -> T,
    ) -> T {
        if let Some(m) = self.metrics.read().get(name) {
            return unwrap(m)
                .unwrap_or_else(|| panic!("metric '{name}' already registered as a {}", m.kind()));
        }
        let mut guard = self.metrics.write();
        if let Some(m) = guard.get(name) {
            return unwrap(m)
                .unwrap_or_else(|| panic!("metric '{name}' already registered as a {}", m.kind()));
        }
        let handle = fresh();
        guard.insert(name.to_string(), wrap(handle.clone()));
        handle
    }

    /// Gets or registers a counter. Panics if `name` is already a metric
    /// of a different kind.
    pub fn counter(&self, name: &str) -> Counter {
        self.get_or_register(
            name,
            Metric::Counter,
            |m| match m {
                Metric::Counter(c) => Some(c.clone()),
                _ => None,
            },
            Counter::detached,
        )
    }

    /// Gets or registers a gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.get_or_register(
            name,
            Metric::Gauge,
            |m| match m {
                Metric::Gauge(g) => Some(g.clone()),
                _ => None,
            },
            Gauge::detached,
        )
    }

    /// Gets or registers a histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.get_or_register(
            name,
            Metric::Histogram,
            |m| match m {
                Metric::Histogram(h) => Some(h.clone()),
                _ => None,
            },
            Histogram::detached,
        )
    }

    /// A deterministic plain-data image of every registered metric
    /// (exact once recording threads are quiescent).
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        for (name, metric) in self.metrics.read().iter() {
            match metric {
                Metric::Counter(c) => {
                    snap.counters.insert(name.clone(), c.get());
                }
                Metric::Gauge(g) => {
                    snap.gauges.insert(name.clone(), g.get());
                }
                Metric::Histogram(h) => {
                    snap.histograms.insert(name.clone(), h.snapshot());
                }
            }
        }
        snap
    }
}

/// A point-in-time image of a [`Registry`]: sorted maps, so rendering and
/// comparison are deterministic.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram contents by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Whether nothing was ever registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Folds `other` into `self`: counters and histograms add, gauges sum
    /// (per-work-unit gauges are levels of disjoint units). Associative
    /// and commutative.
    pub fn merge(&mut self, other: &Snapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            *self.gauges.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(v);
        }
    }

    /// A copy with every metric name suffixed by a `{key="value"}` label,
    /// Prometheus-style. Per-shard registries are identical by name;
    /// labeling before embedding keeps each shard's series distinct next
    /// to the merged totals (`snap.labeled("shard", "3")`). Labeled and
    /// unlabeled names never collide, so a labeled snapshot still merges
    /// cleanly.
    pub fn labeled(&self, key: &str, value: &str) -> Snapshot {
        let rename = |name: &str| format!("{name}{{{key}=\"{value}\"}}");
        Snapshot {
            counters: self.counters.iter().map(|(k, v)| (rename(k), *v)).collect(),
            gauges: self.gauges.iter().map(|(k, v)| (rename(k), *v)).collect(),
            histograms: self.histograms.iter().map(|(k, v)| (rename(k), v.clone())).collect(),
        }
    }

    /// Renders the Prometheus text exposition format (counters and gauges
    /// as single samples, histograms as cumulative `_bucket{le=…}` series
    /// plus `_sum`/`_count`).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cumulative = 0u64;
            for i in 0..BUCKETS {
                if h.buckets[i] == 0 {
                    continue;
                }
                cumulative += h.buckets[i];
                out.push_str(&format!(
                    "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                    bucket_upper(i)
                ));
            }
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{name}_sum {}\n", h.sum));
            out.push_str(&format!("{name}_count {}\n", h.count));
        }
        out
    }
}

/// The bundle instrumented components hold: where to register metrics and
/// how to read time. Cheap to clone (two `Arc`s).
#[derive(Clone)]
pub struct Telemetry {
    registry: Arc<Registry>,
    clock: SharedClock,
}

impl core::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Telemetry").field("registry", &self.registry).finish()
    }
}

impl Telemetry {
    /// A telemetry bundle over an explicit registry and clock (tests use
    /// per-work-unit registries and virtual clocks for determinism).
    pub fn new(registry: Arc<Registry>, clock: SharedClock) -> Telemetry {
        Telemetry { registry, clock }
    }

    /// The process-wide default: one shared registry, one monotonic clock.
    /// Components built without an explicit bundle record here.
    pub fn global() -> Telemetry {
        use std::sync::OnceLock;
        static GLOBAL: OnceLock<Telemetry> = OnceLock::new();
        GLOBAL
            .get_or_init(|| Telemetry::new(Arc::new(Registry::new()), MonotonicClock::shared()))
            .clone()
    }

    /// The underlying registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The clock handle.
    pub fn clock(&self) -> SharedClock {
        Arc::clone(&self.clock)
    }

    /// Current time in nanoseconds from the bundle's clock.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Gets or registers a counter.
    pub fn counter(&self, name: &str) -> Counter {
        self.registry.counter(name)
    }

    /// Gets or registers a gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.registry.gauge(name)
    }

    /// Gets or registers a histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.registry.histogram(name)
    }

    /// Snapshot of the bundle's registry.
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::NullClock;

    fn local() -> Telemetry {
        Telemetry::new(Arc::new(Registry::new()), NullClock::shared())
    }

    #[test]
    fn get_or_register_returns_the_same_cell() {
        let t = local();
        let a = t.counter("x_total");
        let b = t.counter("x_total");
        a.inc();
        b.inc();
        assert_eq!(t.snapshot().counters["x_total"], 2);
    }

    #[test]
    #[should_panic(expected = "already registered as a counter")]
    fn kind_mismatch_panics() {
        let t = local();
        t.counter("x");
        t.histogram("x");
    }

    #[test]
    fn racing_registrations_of_one_name_share_one_cell() {
        // Eight threads released together get-or-register the same 32
        // names (each name always as the same kind) and bump what they
        // got. A lost registration would strand increments in a cell the
        // map no longer holds; a kind check misfiring under the race would
        // panic a worker, which `scope` re-raises.
        const THREADS: usize = 8;
        const ROUNDS: u64 = 50;
        let t = local();
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    start.wait();
                    for _ in 0..ROUNDS {
                        for i in 0..32 {
                            match i % 3 {
                                0 => t.counter(&format!("c{i}")).inc(),
                                1 => t.gauge(&format!("g{i}")).add(1),
                                _ => t.histogram(&format!("h{i}")).record(1),
                            }
                        }
                    }
                });
            }
        });
        let snap = t.snapshot();
        assert_eq!(snap.counters.len() + snap.gauges.len() + snap.histograms.len(), 32);
        let expected = THREADS as u64 * ROUNDS;
        assert!(snap.counters.values().all(|&v| v == expected));
        assert!(snap.gauges.values().all(|&v| v == expected as i64));
        assert!(snap.histograms.values().all(|h| h.count == expected));
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let t = local();
        t.counter("b_total").add(2);
        t.counter("a_total").add(1);
        t.gauge("g").set(-5);
        t.histogram("h_ns").record(10);
        let s = t.snapshot();
        let names: Vec<&String> = s.counters.keys().collect();
        assert_eq!(names, ["a_total", "b_total"]);
        assert_eq!(s.gauges["g"], -5);
        assert_eq!(s.histograms["h_ns"].count, 1);
    }

    #[test]
    fn merge_folds_counters_gauges_histograms() {
        let t1 = local();
        t1.counter("c").add(1);
        t1.histogram("h").record(4);
        let t2 = local();
        t2.counter("c").add(2);
        t2.counter("only2").add(9);
        t2.histogram("h").record(64);
        let mut m = t1.snapshot();
        m.merge(&t2.snapshot());
        assert_eq!(m.counters["c"], 3);
        assert_eq!(m.counters["only2"], 9);
        assert_eq!(m.histograms["h"].count, 2);
        assert_eq!(m.histograms["h"].sum, 68);
    }

    #[test]
    fn prometheus_rendering_shape() {
        let t = local();
        t.counter("req_total").add(3);
        t.gauge("inflight").set(7);
        let h = t.histogram("lat_ns");
        h.record(1);
        h.record(300);
        let text = t.snapshot().render_prometheus();
        assert!(text.contains("# TYPE req_total counter\nreq_total 3\n"));
        assert!(text.contains("# TYPE inflight gauge\ninflight 7\n"));
        assert!(text.contains("# TYPE lat_ns histogram\n"));
        assert!(text.contains("lat_ns_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("lat_ns_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("lat_ns_sum 301\n"));
        assert!(text.contains("lat_ns_count 2\n"));
    }

    #[test]
    fn global_is_one_instance() {
        let a = Telemetry::global();
        let b = Telemetry::global();
        a.counter("global_smoke_total").inc();
        assert!(b.snapshot().counters["global_smoke_total"] >= 1);
    }
}
