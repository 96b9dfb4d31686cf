//! Seeded inputs of every workload. The clipping program sees only what
//! these functions return.

use crate::util::Rng;
use polyclip::datagen::comb;
use polyclip::prelude::{BBox, Contour, Point, PolygonSet};
use polyclip_bench::flatten_layer;

/// Sizes of one benchmark configuration: full, or the small one the
/// benchmark's own tests use.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Table III scale of the `gis_overlay` layers.
    pub gis_scale: f64,
    /// Teeth per comb in `crossing_pair`.
    pub teeth: usize,
    /// Table III scale of the server's `gis` layer.
    pub serve_scale: f64,
    /// Pieces (slabs) of the batch workloads' Algorithm-2 call.
    pub pieces: usize,
}

pub const FULL: Sizes = Sizes {
    gis_scale: 0.02,
    teeth: 50,
    serve_scale: 0.01,
    pieces: 8,
};

pub const SMALL: Sizes = Sizes {
    gis_scale: 0.002,
    teeth: 6,
    serve_scale: 0.002,
    pieces: 4,
};

/// Seed of the server's `gis` layer: the `polyclip_serve` binary builds it
/// with this seed, and the benchmark rebuilds the same layer to check the
/// answers.
pub const SERVE_LAYER_SEED: u64 = 1007;

/// Flattened Table III layers 1 and 2 at `scale`, as the repository's
/// `gis_multi` benchmark draws them (seeds 1007 and 2007), with layer 2
/// shifted by a seeded offset of at most 0.05 in x and y. The offset moves
/// every cross-layer contact while the layers' make-up (counts, sizes,
/// clustering) stays fixed, so the work per op varies little with the seed.
pub fn gis_pair(scale: f64, seed: u64) -> (PolygonSet, PolygonSet) {
    let mut rng = Rng::new(seed);
    let shift = Point::new(rng.range(-0.05, 0.05), rng.range(-0.05, 0.05));
    (
        flatten_layer(1, scale, 1007),
        flatten_layer(2, scale, 2007).translate(shift),
    )
}

/// Two combs of `teeth` teeth, one transposed onto the other and both
/// rotated off the axes by 0.3 rad plus a seeded jitter of at most 0.005
/// rad, then shifted by a seeded offset: `4·teeth²` crossings, and the
/// intersection is exactly `teeth²` unit squares (rotated). The angle sets
/// how many scanbeams each edge crosses, so it stays near one value.
///
/// The comb's teeth are unit-wide at odd integer offsets; both combs start
/// at offset −1 so the two bases sit apart from everything but each
/// other's teeth tips, and `2·teeth + 4`-long teeth cover every crossing.
pub fn comb_pair(teeth: usize, seed: u64) -> (PolygonSet, PolygonSet) {
    let mut rng = Rng::new(seed);
    let angle = 0.3 + rng.range(-0.005, 0.005);
    let shift = Point::new(rng.range(-10.0, 10.0), rng.range(-10.0, 10.0));
    let base = comb(Point::new(0.0, -1.0), teeth, 1.0, (2 * teeth + 4) as f64);
    let place = |transpose: bool| {
        let (s, c) = angle.sin_cos();
        PolygonSet::from_contours(
            base.contours()
                .iter()
                .map(|ct| {
                    let mut pts: Vec<Point> = ct
                        .points()
                        .iter()
                        .map(|q| {
                            let (x, y) = if transpose { (q.y, q.x) } else { (q.x, q.y) };
                            Point::new(c * x - s * y + shift.x, s * x + c * y + shift.y)
                        })
                        .collect();
                    if transpose {
                        // Transposition mirrors; keep both rings in one orientation.
                        pts.reverse();
                    }
                    Contour::new(pts)
                })
                .collect(),
        )
    };
    (place(false), place(true))
}

/// A rectangle covering `lo..hi` of `bbox`'s area, placed uniformly inside
/// it, with a random aspect ratio in [1/2, 2].
pub fn window(rng: &mut Rng, bbox: BBox, lo: f64, hi: f64) -> BBox {
    let share = rng.range(lo, hi);
    let aspect = 2f64.powf(rng.range(-1.0, 1.0));
    let w = (bbox.width() * share.sqrt() * aspect.sqrt()).min(bbox.width());
    let h = (bbox.width() * bbox.height() * share / w).min(bbox.height());
    let x0 = bbox.xmin + rng.range(0.0, bbox.width() - w);
    let y0 = bbox.ymin + rng.range(0.0, bbox.height() - h);
    BBox::new(x0, y0, x0 + w, y0 + h)
}

/// Window `i` of a seeded low-discrepancy sequence of rectangles inside
/// `bbox`, each covering `lo..hi` of its area with an aspect ratio in
/// [1/2, 2]. Sizes, shapes and centres follow additive recurrences with
/// irrational steps from seeded starts, so any first `n` windows spread
/// evenly over the layer and over the size range whatever the seed, and
/// the work a run's windows ask for varies little between seeds.
pub fn spread_window(start: &[f64; 4], i: usize, bbox: BBox, lo: f64, hi: f64) -> BBox {
    const STEPS: [f64; 4] = [
        0.618_033_988_749_895,
        0.414_213_562_373_095,
        0.754_877_666_246_693,
        0.569_840_290_998_053,
    ];
    let u = |d: usize| (start[d] + i as f64 * STEPS[d]).fract();
    let share = lo + (hi - lo) * u(0);
    let aspect = 2f64.powf(2.0 * u(1) - 1.0);
    let w = bbox.width() * share.sqrt() * aspect.sqrt();
    let h = bbox.width() * bbox.height() * share / w;
    let x0 = bbox.xmin + u(2) * (bbox.width() - w);
    let y0 = bbox.ymin + u(3) * (bbox.height() - h);
    BBox::new(x0, y0, x0 + w, y0 + h)
}

/// The corners of `b`, counter-clockwise.
pub fn corners(b: BBox) -> Vec<(f64, f64)> {
    vec![
        (b.xmin, b.ymin),
        (b.xmax, b.ymin),
        (b.xmax, b.ymax),
        (b.xmin, b.ymax),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combs_have_the_stated_size() {
        let (a, b) = comb_pair(5, 3);
        assert_eq!(a.vertex_count(), 4 * 5 + 4);
        assert_eq!(b.vertex_count(), 4 * 5 + 4);
        let (sa, sb) = (a.signed_area(), b.signed_area());
        assert!(sa.signum() == sb.signum() && (sa - sb).abs() < 1e-9 * sa.abs());
    }

    #[test]
    fn windows_cover_the_asked_share() {
        let bbox = BBox::new(-20.0, -10.0, 20.0, 10.0);
        let mut rng = Rng::new(1);
        for _ in 0..100 {
            let w = window(&mut rng, bbox, 0.02, 0.08);
            let share = w.width() * w.height() / (bbox.width() * bbox.height());
            assert!((0.0199..=0.0801).contains(&share), "{share}");
            assert!(w.xmin >= bbox.xmin && w.xmax <= bbox.xmax);
            assert!(w.ymin >= bbox.ymin && w.ymax <= bbox.ymax);
        }
        let start = [0.1, 0.2, 0.3, 0.4];
        for i in 0..1000 {
            let w = spread_window(&start, i, bbox, 0.02, 0.08);
            let share = w.width() * w.height() / (bbox.width() * bbox.height());
            assert!((0.0199..=0.0801).contains(&share), "{share}");
            assert!(w.xmin >= bbox.xmin - 1e-9 && w.xmax <= bbox.xmax + 1e-9);
            assert!(w.ymin >= bbox.ymin - 1e-9 && w.ymax <= bbox.ymax + 1e-9);
        }
    }
}
