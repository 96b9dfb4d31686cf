//! The batch workloads, `gis_overlay` and `crossing_pair`: one
//! Algorithm-2 call at a time from one thread, through the library's
//! default entry `try_clip_pair_slabs` with `ClipOptions::default()`.

use crate::integrate::area_in_tile;
use crate::replay::engine_replay;
use crate::trace::{Layers, Spans};
use crate::util::{cpu_ms, median, ms, peak_rss_mb, quantile, Metric, Outcome, Rng};
use crate::Args;
use polyclip::geom::geojson::{from_geojson, to_geojson};
use polyclip::prelude::*;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Least number of timed ops in a run, however short `--seconds` is.
const MIN_OPS: usize = 3;
/// Sample tiles per `gis_overlay` output checked by strip integration.
const TILES: usize = 6;

enum Kind {
    Gis,
    Combs { teeth: usize },
}

/// Comb-pair instances per `crossing_pair` run. The count of surviving
/// virtual vertices jumps between instances (rounding decides which ones
/// pack away), so the run cycles through several and reports the median.
const COMB_VARIANTS: u64 = 8;

pub fn gis_overlay(args: &Args) -> Outcome {
    let pair = crate::inputs::gis_pair(args.sizes.gis_scale, args.seed);
    run(args, Kind::Gis, BoolOp::Union, vec![pair])
}

pub fn crossing_pair(args: &Args) -> Outcome {
    let teeth = args.sizes.teeth;
    let pairs = (0..COMB_VARIANTS)
        .map(|v| crate::inputs::comb_pair(teeth, args.seed * COMB_VARIANTS + v))
        .collect();
    run(args, Kind::Combs { teeth }, BoolOp::Intersection, pairs)
}

/// Run one batch workload over its input pairs: every round clips each pair
/// once, and the run attempts whole rounds only.
fn run(args: &Args, kind: Kind, op: BoolOp, pairs: Vec<(PolygonSet, PolygonSet)>) -> Outcome {
    let pieces = args.sizes.pieces;
    let opts = ClipOptions::default();
    // The program receives GeoJSON text; generating it is not timed.
    let texts: Vec<(String, String)> = pairs
        .iter()
        .map(|(a, b)| (to_geojson(a, true), to_geojson(b, true)))
        .collect();
    drop(pairs);

    let t_start = Instant::now();
    let mut spans = Spans::new(args.trace, t_start);
    let mut op_id = 0u64;
    let mut references: Vec<Option<PolygonSet>> = vec![None; texts.len()];
    let mut failures = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);

    // Set-up: read every input and run one warm-up op, several times.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut inputs = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        inputs.clear();
        for (a, b) in &texts {
            let sa = spans.time("from_geojson", op_id, || from_geojson(a));
            let sb = spans.time("from_geojson", op_id, || from_geojson(b));
            let (Ok(sa), Ok(sb)) = (sa, sb) else {
                eprintln!("error: generated GeoJSON does not parse");
                std::process::exit(1);
            };
            inputs.push((sa, sb));
        }
        let (sa, sb) = &inputs[0];
        let warm = try_clip_pair_slabs(sa, sb, op, pieces, &opts);
        setups.push(t.elapsed().as_secs_f64());
        attempted += 1;
        op_id += 1;
        let checked = check_op(
            &kind,
            op,
            sa,
            sb,
            warm,
            &mut references[0],
            args.seed,
            &mut spans,
        );
        tally(checked, &mut failed, &mut failures);
    }

    // Timed rounds. Under tracing, every other round runs without spans so
    // the run can report the spans' own cost.
    let mut walls = Vec::new();
    let (mut walls_plain, mut walls_traced) = (Vec::new(), Vec::new());
    let mut out_vertices = vec![0.0; inputs.len()];
    let mut cpu_total = 0.0;
    let mut layer_samples: Vec<(Algo2Result, usize)> = Vec::new();
    let budget = Duration::from_secs_f64(args.seconds);
    let t_loop = Instant::now();
    let mut round = 0usize;
    while walls.len() < MIN_OPS || t_loop.elapsed() < budget {
        let traced = spans.on && round % 2 == 1;
        round += 1;
        for (v, (sa, sb)) in inputs.iter().enumerate() {
            let cpu0 = cpu_ms("self");
            let t = Instant::now();
            let res = if traced {
                spans.time("try_clip_pair_slabs", op_id, || {
                    try_clip_pair_slabs(sa, sb, op, pieces, &opts)
                })
            } else {
                try_clip_pair_slabs(sa, sb, op, pieces, &opts)
            };
            let wall = ms(t.elapsed());
            cpu_total += cpu_ms("self") - cpu0;
            walls.push(wall);
            if spans.on {
                if traced {
                    &mut walls_traced
                } else {
                    &mut walls_plain
                }
                .push(wall);
            }
            attempted += 1;
            op_id += 1;
            let checked = check_op(
                &kind,
                op,
                sa,
                sb,
                res,
                &mut references[v],
                args.seed,
                &mut spans,
            );
            if let Some(r) = tally(checked, &mut failed, &mut failures) {
                out_vertices[v] = r.output.vertex_count() as f64;
                if spans.on {
                    let returned = r.output.vertex_count();
                    let counters = Algo2Result {
                        output: PolygonSet::new(),
                        ..r
                    };
                    layer_samples.push((counters, returned));
                }
            }
        }
    }
    for f in &failures {
        eprintln!("failed op: {f}");
    }
    let n = walls.len() as f64;
    let total_s: f64 = walls.iter().sum::<f64>() / 1e3;
    let (sa, sb) = &inputs[0];

    let metrics = if !args.trace {
        vec![
            Metric::new("setup_s", median(&setups), "s"),
            Metric::new("op_ms", median(&walls), "ms"),
            Metric::new("cpu_ms_per_op", cpu_total / n, "ms"),
            Metric::new("out_vertices", median(&out_vertices), "count"),
            Metric::new("peak_rss_mb", peak_rss_mb("self"), "MB"),
            Metric::new("latency_p50_ms", median(&walls), "ms"),
            // A run holds fewer than 40 ops, too few for a tail percentile
            // with ten samples beyond it; the upper quartile stands in.
            Metric::new("latency_tail_ms", quantile(&walls, 0.75), "ms"),
            Metric::new("queries_per_s", n / total_s, "1/s"),
        ]
    } else {
        let mut layers = Layers::default();
        layers.set(
            "geom.geojson_read_ms",
            median(&spans.durations_ms("from_geojson")),
        );
        for _ in 0..SETUPS {
            spans.time("sanitize_set", op_id, || {
                let ra = sanitize_set(sa, &SanitizeOptions::repairs_only());
                let rb = sanitize_set(sb, &SanitizeOptions::repairs_only());
                std::hint::black_box((ra, rb));
            });
        }
        // Both inputs per span: the Algorithm-2 entry sanitizes both.
        layers.set(
            "core.sanitize_ms",
            median(&spans.durations_ms("sanitize_set")),
        );
        algo2_layers(&mut layers, &layer_samples);
        let grid = spans.time("try_clip_pair_slabs_backend", op_id, || {
            try_clip_pair_slabs_backend(
                sa,
                sb,
                op,
                pieces,
                &opts,
                MergeStrategy::Sequential,
                PartitionBackend::AdaptiveGrid,
            )
        });
        if let Ok(g) = &grid {
            pool_layers(&mut layers, g);
        }
        drop(grid);
        // The prepared path on the same op: the subject frozen once, the
        // clip operand clipped against it.
        let prepared = spans.time("PreparedLayer::build", op_id, || {
            PreparedLayer::build(sa, &opts)
        });
        if let Ok(layer) = prepared {
            let res = spans.time("try_clip_prepared", op_id, || {
                try_clip_prepared(&layer, sb, op, pieces, &opts)
            });
            layers.set(
                "core.prepared.build_ms",
                median(&spans.durations_ms("PreparedLayer::build")),
            );
            layers.set(
                "core.prepared.clip_ms",
                median(&spans.durations_ms("try_clip_prepared")),
            );
            if let Ok(r) = res {
                let per_vertex = r.stats.n_edges as f64 / r.output.vertex_count().max(1) as f64;
                layers.set("core.prepared.edges_per_out_vertex", per_vertex);
            }
        }
        let collinear: Vec<f64> = references
            .iter()
            .flatten()
            .map(|r| collinear_vertices(r) as f64)
            .collect();
        layers.set("core.stitch.collinear_out_vertices", median(&collinear));
        layers.set("core.validate_ms", median(&spans.durations_ms("validate")));
        layers.extend(engine_replay(sa, sb, op));
        let plain = median(&walls_plain);
        layers.set(
            "bench.trace_overhead_pct",
            (median(&walls_traced) - plain) / plain * 100.0,
        );
        layers.metrics()
    };
    if let Some(dir) = &args.spans_dir {
        spans.dump(&dir.join(format!("{}-{}.jsonl", args.workload, args.seed)));
    }
    crate::print_host(args, pieces);
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    }
}

/// Count a checked op: the result if it passed, else a failure noted.
fn tally(
    res: Result<Algo2Result, String>,
    failed: &mut u64,
    failures: &mut Vec<String>,
) -> Option<Algo2Result> {
    res.map_err(|e| {
        *failed += 1;
        failures.push(e);
    })
    .ok()
}

/// Per-layer figures of Algorithm 2 and its pool, medians over the ops.
/// Each sample is a result's counters with the vertex count of the output
/// it returned.
pub fn algo2_layers(layers: &mut Layers, samples: &[(Algo2Result, usize)]) {
    let med = |f: &dyn Fn(&Algo2Result) -> f64| {
        median(&samples.iter().map(|(r, _)| f(r)).collect::<Vec<_>>())
    };
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    layers.set("core.algo2.pieces", med(&|r| r.slabs as f64));
    layers.set("core.algo2.threads", threads as f64);
    layers.set("core.algo2.index_ms", med(&|r| ms(r.times.index)));
    layers.set(
        "core.algo2.partition_ms",
        med(&|r| ms(r.times.partition_total())),
    );
    layers.set("core.algo2.clip_ms", med(&|r| ms(r.times.clip_total())));
    layers.set("core.algo2.merge_ms", med(&|r| ms(r.times.merge)));
    layers.set(
        "core.algo2.merge_serial_ms",
        med(&|r| ms(r.times.merge_serial)),
    );
    layers.set(
        "core.algo2.load_imbalance",
        med(&|r| r.times.load_imbalance()),
    );
    layers.set(
        "core.algo2.overlap",
        med(&|r| r.times.clip_total().as_secs_f64() / r.times.total.as_secs_f64().max(1e-12)),
    );
    let gaps: Vec<f64> = samples
        .iter()
        .map(|(r, returned)| r.stats.out_vertices as f64 - *returned as f64)
        .collect();
    layers.set("core.algo2.out_vertices_counter_gap", median(&gaps));
}

/// The work-stealing pool's figures from one op on the `AdaptiveGrid`
/// backend, the only Algorithm-2 path that runs on the pool (the default
/// backend assigns slabs statically and reports zeros).
pub fn pool_layers(layers: &mut Layers, grid_op: &Algo2Result) {
    let t = &grid_op.times;
    layers.set("parprim.stealpool.chunks", t.chunks_total as f64);
    layers.set("parprim.stealpool.stolen", t.chunks_stolen as f64);
    layers.set("parprim.stealpool.steal_ms", ms(t.steal));
    let busy_max = t.per_worker_busy.iter().map(|d| ms(*d)).fold(0.0, f64::max);
    layers.set("parprim.stealpool.busy_max_ms", busy_max);
}

/// Check one op's result. Failures: an error, a lossy degradation, or an
/// output that fails a check. An output bit-identical to one that already
/// passed every check passes too; any other output is checked in full.
#[allow(clippy::too_many_arguments)]
fn check_op(
    kind: &Kind,
    op: BoolOp,
    a: &PolygonSet,
    b: &PolygonSet,
    res: Result<Algo2Result, ClipError>,
    reference: &mut Option<PolygonSet>,
    seed: u64,
    spans: &mut Spans,
) -> Result<Algo2Result, String> {
    let r = res.map_err(|e| format!("clip error: {e}"))?;
    if let Some(d) = r.degradations.iter().find(|d| d.is_lossy()) {
        return Err(format!("lossy degradation: {d}"));
    }
    if reference.as_ref() == Some(&r.output) {
        return Ok(r);
    }
    let report = spans.time("validate", 0, || validate(&r.output));
    if !report.is_canonical() {
        return Err(format!(
            "validate(): {} violations",
            report.violations.len()
        ));
    }
    match kind {
        Kind::Gis => check_tiles(op, a, b, &r.output, seed)?,
        Kind::Combs { teeth } => check_combs(*teeth, a, b, &r.output)?,
    }
    *reference = Some(r.output.clone());
    Ok(r)
}

/// Strip-integrate the op's inputs and its output on seeded sample tiles.
fn check_tiles(
    op: BoolOp,
    a: &PolygonSet,
    b: &PolygonSet,
    out: &PolygonSet,
    seed: u64,
) -> Result<(), String> {
    let bbox = a.bbox().union(&b.bbox());
    let mut rng = Rng::new(seed ^ 0x711E5);
    for i in 0..TILES {
        let tile = crate::inputs::window(&mut rng, bbox, 0.005, 0.02);
        let want = area_in_tile(&[a, b], tile, |s| op.keep(s[0], s[1]));
        let got = area_in_tile(&[out], tile, |s| s[0]);
        let tol = ORACLE_REL_TOL * (tile.width() * tile.height());
        if (want - got).abs() > tol {
            return Err(format!(
                "tile {i}: integrated area {got} of the output, {want} of the inputs"
            ));
        }
    }
    Ok(())
}

/// The comb pair's intersection is `teeth²` unit squares: check the count
/// and every area, the Foster–Overfelt oracle's answer, and the total.
fn check_combs(
    teeth: usize,
    a: &PolygonSet,
    b: &PolygonSet,
    out: &PolygonSet,
) -> Result<(), String> {
    let squares = teeth * teeth;
    if out.len() != squares {
        return Err(format!("{} contours, closed form {squares}", out.len()));
    }
    if let Some(c) = out
        .contours()
        .iter()
        .find(|c| (c.area() - 1.0).abs() > ORACLE_REL_TOL)
    {
        return Err(format!("a contour of area {} (closed form 1)", c.area()));
    }
    let area = eo_area(out);
    if (area - squares as f64).abs() > ORACLE_REL_TOL * squares as f64 {
        return Err(format!("area {area}, closed form {squares}"));
    }
    let oracle = FosterOverfeltOracle;
    if !oracle.supports(a, b) {
        return Err("the Foster-Overfelt oracle refuses the comb pair".into());
    }
    let fo = oracle
        .clip(a, b, BoolOp::Intersection)
        .map_err(|e| format!("oracle: {e}"))?;
    let fo_area = eo_area(&fo);
    if fo.len() != out.len() || (fo_area - area).abs() > ORACLE_REL_TOL * squares as f64 {
        return Err(format!(
            "oracle: {} contours of area {fo_area}, engine {} of area {area}",
            fo.len(),
            out.len()
        ));
    }
    Ok(())
}

/// Output vertices collinear with both neighbours to rounding level: the
/// virtual vertices of scanbeam splitting that survived packing.
pub fn collinear_vertices(p: &PolygonSet) -> usize {
    p.contours()
        .iter()
        .map(|c| {
            let pts = c.points();
            let n = pts.len();
            (0..n)
                .filter(|&i| {
                    let (a, v, b) = (pts[(i + n - 1) % n], pts[i], pts[(i + 1) % n]);
                    let (ux, uy) = (v.x - a.x, v.y - a.y);
                    let (wx, wy) = (b.x - v.x, b.y - v.y);
                    let cross = (ux * wy - uy * wx).abs();
                    cross <= 1e-9 * (ux.hypot(uy) * wx.hypot(wy))
                })
                .count()
        })
        .sum()
}
