//! Engine stage replay: one serial engine call on the whole problem (the
//! single-thread baseline), then the same work redone stage by stage
//! through the engine's public functions, each stage timed from outside.
//!
//! A stage's time is kept only when the counts the replay produced equal
//! the `ClipStats` of the real call; every millisecond not kept that way is
//! reported as `core.engine.unattributed_ms`, never guessed.

use crate::util::ms;
use polyclip::core::classify::classify_beam;
use polyclip::core::horizontal::horizontal_edges;
use polyclip::core::stitch::{cancel_opposites, stitch_counted};
use polyclip::core::validate::sanitize_counted;
use polyclip::prelude::*;
use polyclip::sweep::cross::discover_residual_crossings;
use polyclip::sweep::edges::snap_tolerance;
use polyclip::sweep::{
    collect_edges, discover_intersections, event_ys, BeamSet, ForcedSplits,
    PartitionBackend as BeamBackend,
};
use std::time::Instant;

/// The engine's refinement-round cap.
const MAX_REFINE: usize = 8;

/// Per-layer metrics of one replay, by name.
pub fn engine_replay(
    subject: &PolygonSet,
    clip: &PolygonSet,
    op: BoolOp,
) -> Vec<(&'static str, f64)> {
    let serial_opts = ClipOptions::sequential();
    let t = Instant::now();
    let real = try_clip_with_stats(subject, clip, op, &serial_opts);
    let serial_ms = ms(t.elapsed());
    let Ok(real) = real else {
        return vec![
            ("core.engine.serial_ms", serial_ms),
            ("core.engine.unattributed_ms", serial_ms),
        ];
    };
    let stats = real.stats;
    drop(real);

    // Input gate: the engine's repair-only sanitize, then the degenerate-
    // contour cull.
    let t = Instant::now();
    let s1 = sanitize_set(subject, &SanitizeOptions::repairs_only()).0;
    let c1 = sanitize_set(clip, &SanitizeOptions::repairs_only()).0;
    let s = sanitize_counted(&s1).0.into_owned();
    let c = sanitize_counted(&c1).0.into_owned();
    let gate_ms = ms(t.elapsed());

    let mut events_ms = 0.0;
    let mut beams_ms = 0.0;
    let mut cross_ms = 0.0;

    let t = Instant::now();
    let edges = collect_edges(&s, &c);
    let ys_a = event_ys(&edges, &[], false);
    events_ms += ms(t.elapsed());

    let t = Instant::now();
    let beams_a = BeamSet::build(
        &edges,
        ys_a,
        &ForcedSplits::empty(edges.len()),
        BeamBackend::DirectScan,
        false,
    );
    beams_ms += ms(t.elapsed());

    let t = Instant::now();
    let crossings = discover_intersections(&beams_a, &edges, false);
    let mut triples: Vec<(u32, f64, f64)> = Vec::new();
    let mut extra: Vec<f64> = Vec::new();
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    for c in &crossings {
        let py = snap_to_events(&beams_a.ys, c.p.y);
        let mut applied = false;
        for eid in [c.e1, c.e2] {
            let e = &edges[eid as usize];
            if py > e.lo.y && py < e.hi.y {
                triples.push((eid, py, c.p.x));
                applied = true;
            }
        }
        if applied {
            extra.push(py);
        }
        pairs.push((c.e1.min(c.e2), c.e1.max(c.e2)));
    }
    pairs.sort_unstable();
    pairs.dedup();
    let k = pairs.len();
    drop(beams_a);
    cross_ms += ms(t.elapsed());

    // Round B with refinement, rebuilding in full each round (the engine
    // patches incrementally; the result is bit-identical).
    let mut rounds = 0usize;
    let beams = loop {
        let t = Instant::now();
        let ys = event_ys(&edges, &extra, false);
        events_ms += ms(t.elapsed());
        let t = Instant::now();
        let forced = ForcedSplits::build(edges.len(), triples.clone());
        let bs = BeamSet::build(&edges, ys, &forced, BeamBackend::DirectScan, false);
        beams_ms += ms(t.elapsed());
        rounds += 1;
        if rounds > MAX_REFINE {
            break bs;
        }
        let t = Instant::now();
        let residual = discover_residual_crossings(&bs, false);
        let mut progressed = false;
        for c in &residual {
            for eid in [c.e1, c.e2] {
                let e = &edges[eid as usize];
                if c.p.y > e.lo.y && c.p.y < e.hi.y {
                    let tr = (eid, c.p.y, c.p.x);
                    if !triples.contains(&tr) {
                        triples.push(tr);
                        progressed = true;
                    }
                }
            }
            extra.push(c.p.y);
        }
        cross_ms += ms(t.elapsed());
        if residual.is_empty() || !progressed {
            break bs;
        }
    };

    let t = Instant::now();
    let n_beams = beams.n_beams();
    let outputs: Vec<_> = (0..n_beams)
        .map(|i| {
            classify_beam(
                beams.beam(i),
                beams.y_bot(i),
                beams.y_top(i),
                op,
                FillRule::EvenOdd,
            )
        })
        .collect();
    let classify_ms = ms(t.elapsed());

    // Gather: vertical fragments from the beams, horizontal ones from the
    // scanline differences.
    let t = Instant::now();
    let mut frags: Vec<(Point, Point)> = outputs
        .iter()
        .flat_map(|o| o.edges.iter().copied())
        .collect();
    for j in 0..=n_beams {
        let below: &[(f64, f64)] = if j > 0 { &outputs[j - 1].top } else { &[] };
        let above: &[(f64, f64)] = if j < n_beams { &outputs[j].bottom } else { &[] };
        frags.extend(horizontal_edges(below, above, beams.ys[j]));
    }
    frags.retain(|(a, b)| a != b);
    let horizontal_ms = ms(t.elapsed());
    let fragments = frags.len();
    drop(outputs);

    // Cancellation is timed on a copy; `stitch_counted` repeats it inside,
    // so `core.stitch_ms` includes `core.stitch.cancel_ms`.
    let mut copy = frags.clone();
    let t = Instant::now();
    cancel_opposites(&mut copy);
    let cancel_ms = ms(t.elapsed());
    let after_cancel = copy.len();
    drop(copy);

    let t = Instant::now();
    let (contours, _dropped) = stitch_counted(frags, true);
    let stitch_ms = ms(t.elapsed());
    let out = PolygonSet::from_contours(contours);

    let front = stats.n_edges == edges.len() && stats.n_events == beams.ys.len();
    let sweep_ok = front
        && stats.n_beams == n_beams
        && stats.n_subedges == beams.total_sub_edges()
        && stats.k_intersections == k
        && stats.refine_rounds == rounds.min(MAX_REFINE);
    let tail_ok =
        sweep_ok && stats.out_contours == out.len() && stats.out_vertices == out.vertex_count();
    let keep = |ok: bool, v: f64| if ok { v } else { 0.0 };
    let attributed = keep(front, gate_ms + events_ms)
        + keep(sweep_ok, beams_ms + cross_ms)
        + keep(tail_ok, classify_ms + horizontal_ms + stitch_ms);
    let stages_matched = [front, sweep_ok, tail_ok].iter().filter(|&&b| b).count();

    vec![
        ("sweep.events_ms", keep(front, events_ms)),
        ("sweep.events", stats.n_events as f64),
        ("sweep.beams_ms", keep(sweep_ok, beams_ms)),
        ("sweep.sub_edges", stats.n_subedges as f64),
        ("sweep.cross_ms", keep(sweep_ok, cross_ms)),
        ("sweep.k", stats.k_intersections as f64),
        ("sweep.refine_rounds", stats.refine_rounds as f64),
        ("core.classify_ms", keep(tail_ok, classify_ms)),
        ("core.horizontal_ms", keep(tail_ok, horizontal_ms)),
        ("core.fragments", fragments as f64),
        ("core.stitch.cancel_ms", keep(tail_ok, cancel_ms)),
        ("core.stitch_ms", keep(tail_ok, stitch_ms)),
        (
            "core.stitch.fragments_per_out_vertex",
            after_cancel as f64 / stats.out_vertices.max(1) as f64,
        ),
        ("core.engine.serial_ms", serial_ms),
        ("core.engine.k_prime", stats.k_prime as f64),
        ("core.engine.unattributed_ms", serial_ms - attributed),
        ("core.engine.stage_groups_matched", stages_matched as f64),
    ]
}

/// The engine's snap of a crossing's y onto a nearby event scanline.
fn snap_to_events(ys: &[f64], y: f64) -> f64 {
    let i = ys.partition_point(|&v| v < y);
    let mut best = y;
    let mut best_d = f64::INFINITY;
    for j in [i.wrapping_sub(1), i] {
        if let Some(&v) = ys.get(j) {
            let d = (y - v).abs();
            if d < best_d {
                best_d = d;
                best = v;
            }
        }
    }
    if best_d <= snap_tolerance(best) {
        best
    } else {
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_matches_the_engine_on_overlapping_squares() {
        let a = PolygonSet::from_xy(&[(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]);
        let b = PolygonSet::from_xy(&[(1.0, 0.5), (3.0, 1.5), (2.0, 3.0), (0.5, 2.5)]);
        let m = engine_replay(&a, &b, BoolOp::Intersection);
        let get = |n: &str| m.iter().find(|(k, _)| *k == n).map(|x| x.1).unwrap();
        assert_eq!(get("core.engine.stage_groups_matched"), 3.0);
        assert!(get("sweep.k") > 0.0);
    }
}
