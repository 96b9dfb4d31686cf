//! Spans recorded by the benchmark around its calls into each layer, kept
//! in memory and written out when the run ends, plus the table of
//! per-layer metrics a traced run reports.

use std::io::Write as _;
use std::time::Instant;

/// One timed call: layer function name, the operation (or request) it
/// served, and its start and duration in microseconds from the run's start.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub start_us: f64,
    pub dur_us: f64,
}

/// A span recorder. When off, `time` runs the call and records nothing.
pub struct Spans {
    pub on: bool,
    t0: Instant,
    pub list: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool, t0: Instant) -> Self {
        Spans {
            on,
            t0,
            list: Vec::new(),
        }
    }

    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.list.push(Span {
            name,
            op,
            start_us: (start - self.t0).as_secs_f64() * 1e6,
            dur_us: (end - start).as_secs_f64() * 1e6,
        });
        out
    }

    /// Durations of every span named `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.list
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us / 1e3)
            .collect()
    }

    /// Write the spans as JSON lines to `path` (best effort: a trace that
    /// cannot be written does not fail the run).
    pub fn dump(&self, path: &std::path::Path) {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let Ok(f) = std::fs::File::create(path) else {
            return;
        };
        let mut w = std::io::BufWriter::new(f);
        for s in &self.list {
            let _ = writeln!(
                w,
                "{{\"name\":\"{}\",\"op\":{},\"start_us\":{:.1},\"dur_us\":{:.1}}}",
                s.name, s.op, s.start_us, s.dur_us
            );
        }
        let _ = w.flush();
    }
}

/// Every per-layer metric, in report order, with its unit. A workload on
/// which a layer does not run reports 0 for that layer's metrics (see the
/// README's layer table).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("geom.geojson_read_ms", "ms"),
    ("core.sanitize_ms", "ms"),
    ("core.algo2.pieces", "count"),
    ("core.algo2.threads", "count"),
    ("core.algo2.index_ms", "ms"),
    ("core.algo2.partition_ms", "ms"),
    ("core.algo2.clip_ms", "ms"),
    ("core.algo2.merge_ms", "ms"),
    ("core.algo2.merge_serial_ms", "ms"),
    ("core.algo2.load_imbalance", "ratio"),
    ("core.algo2.overlap", "ratio"),
    ("core.algo2.out_vertices_counter_gap", "count"),
    ("parprim.stealpool.chunks", "count"),
    ("parprim.stealpool.stolen", "count"),
    ("parprim.stealpool.steal_ms", "ms"),
    ("parprim.stealpool.busy_max_ms", "ms"),
    ("sweep.events_ms", "ms"),
    ("sweep.events", "count"),
    ("sweep.beams_ms", "ms"),
    ("sweep.sub_edges", "count"),
    ("sweep.cross_ms", "ms"),
    ("sweep.k", "count"),
    ("sweep.refine_rounds", "count"),
    ("core.classify_ms", "ms"),
    ("core.horizontal_ms", "ms"),
    ("core.fragments", "count"),
    ("core.stitch.cancel_ms", "ms"),
    ("core.stitch_ms", "ms"),
    ("core.stitch.fragments_per_out_vertex", "ratio"),
    ("core.stitch.collinear_out_vertices", "count"),
    ("core.engine.serial_ms", "ms"),
    ("core.engine.k_prime", "count"),
    ("core.engine.unattributed_ms", "ms"),
    ("core.engine.stage_groups_matched", "count"),
    ("core.prepared.build_ms", "ms"),
    ("core.prepared.clip_ms", "ms"),
    ("core.prepared.edges_per_out_vertex", "ratio"),
    ("core.validate_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.response_bytes", "bytes"),
    ("bench.trace_overhead_pct", "%"),
];

/// Per-layer values of one traced run; unset metrics report 0.
#[derive(Default)]
pub struct Layers(Vec<(&'static str, f64)>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, value));
    }

    pub fn extend(&mut self, values: Vec<(&'static str, f64)>) {
        for (n, v) in values {
            self.set(n, v);
        }
    }

    pub fn metrics(&self) -> Vec<crate::util::Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = self.0.iter().find(|(n, _)| *n == name).map_or(0.0, |x| x.1);
                crate::util::Metric::new(name, value, unit)
            })
            .collect()
    }
}
