//! Exact strip integration of even-odd areas inside an axis-aligned tile,
//! written apart from the engine so it can check the engine's outputs.
//!
//! The tile is cut into horizontal strips at every breakpoint where the
//! picture inside it can change: every vertex, every crossing of two edges,
//! and every point where an edge crosses a side of the tile. Inside a strip
//! no two edges cross and no edge leaves the tile's x-range, so each edge is
//! a straight line there and the region between two neighbouring edges is a
//! trapezoid whose area is exact up to rounding.
//!
//! Edges wholly left of the tile only flip the parity at its left side; that
//! parity changes only where the boundary crosses the tile's left side
//! (already a breakpoint), so their vertices need no breakpoints of their
//! own.

use polyclip::prelude::{BBox, PolygonSet};

/// One non-horizontal edge, bottom to top, tagged with its input set.
#[derive(Clone, Copy, Debug)]
struct Edge {
    x0: f64,
    y0: f64,
    x1: f64,
    y1: f64,
    set: usize,
}

impl Edge {
    fn x_at(&self, y: f64) -> f64 {
        if y <= self.y0 {
            return self.x0;
        }
        if y >= self.y1 {
            return self.x1;
        }
        self.x0 + (self.x1 - self.x0) * ((y - self.y0) / (self.y1 - self.y0))
    }
    fn xmin(&self) -> f64 {
        self.x0.min(self.x1)
    }
    fn xmax(&self) -> f64 {
        self.x0.max(self.x1)
    }
}

/// Even-odd area inside `tile` of the region where `inside(parities)`
/// holds, `parities[i]` being the even-odd membership in `sets[i]`.
pub fn area_in_tile(sets: &[&PolygonSet], tile: BBox, inside: impl Fn(&[bool]) -> bool) -> f64 {
    let (tx0, tx1, ty0, ty1) = (tile.xmin, tile.xmax, tile.ymin, tile.ymax);
    if !(tx1 > tx0 && ty1 > ty0) {
        return 0.0;
    }
    let mut relevant: Vec<Edge> = Vec::new();
    let mut left: Vec<Edge> = Vec::new();
    for (set, p) in sets.iter().enumerate() {
        for s in p.edges() {
            let (a, b) = if s.a.y <= s.b.y {
                (s.a, s.b)
            } else {
                (s.b, s.a)
            };
            if a.y == b.y || b.y <= ty0 || a.y >= ty1 {
                continue;
            }
            let e = Edge {
                x0: a.x,
                y0: a.y,
                x1: b.x,
                y1: b.y,
                set,
            };
            if e.xmin() >= tx1 {
                continue;
            } else if e.xmax() <= tx0 {
                left.push(e);
            } else {
                relevant.push(e);
            }
        }
    }

    // Breakpoints: the tile's own sides, relevant vertices, side crossings
    // and pairwise crossings inside the tile.
    let mut ys: Vec<f64> = vec![ty0, ty1];
    let within = |y: f64| y > ty0 && y < ty1;
    for e in &relevant {
        for y in [e.y0, e.y1] {
            if within(y) {
                ys.push(y);
            }
        }
        for x in [tx0, tx1] {
            if e.xmin() < x && x < e.xmax() {
                let y = e.y0 + (e.y1 - e.y0) * ((x - e.x0) / (e.x1 - e.x0));
                if within(y) {
                    ys.push(y);
                }
            }
        }
    }
    crossing_ys(&relevant, tile, &mut ys);
    ys.sort_by(f64::total_cmp);
    ys.dedup();

    relevant.sort_by(|a, b| a.y0.total_cmp(&b.y0));
    left.sort_by(|a, b| a.y0.total_cmp(&b.y0));
    let mut left_by_top: Vec<Edge> = left.clone();
    left_by_top.sort_by(|a, b| a.y1.total_cmp(&b.y1));

    let n_sets = sets.len();
    let mut left_count = vec![0usize; n_sets];
    let (mut li, mut lo) = (0usize, 0usize);
    let mut ri = 0usize;
    let mut active: Vec<Edge> = Vec::new();
    let mut order: Vec<(f64, f64, f64, usize)> = Vec::new();
    let mut parity = vec![false; n_sets];
    let mut total = 0.0f64;
    for w in ys.windows(2) {
        let (y0, y1) = (w[0], w[1]);
        let ym = 0.5 * (y0 + y1);
        while li < left.len() && left[li].y0 <= ym {
            left_count[left[li].set] += 1;
            li += 1;
        }
        while lo < left_by_top.len() && left_by_top[lo].y1 <= ym {
            left_count[left_by_top[lo].set] -= 1;
            lo += 1;
        }
        while ri < relevant.len() && relevant[ri].y0 <= ym {
            active.push(relevant[ri]);
            ri += 1;
        }
        active.retain(|e| e.y1 > ym);

        order.clear();
        order.extend(active.iter().map(|e| {
            (
                e.x_at(ym),
                e.x_at(y0).clamp(tx0, tx1),
                e.x_at(y1).clamp(tx0, tx1),
                e.set,
            )
        }));
        order.sort_by(|a, b| a.0.total_cmp(&b.0));
        for (p, &c) in parity.iter_mut().zip(&left_count) {
            *p = c % 2 == 1;
        }
        let (mut xb, mut xt) = (tx0, tx0);
        let mut width = 0.0f64;
        for &(_, eb, et, set) in &order {
            if inside(&parity) {
                width += (eb - xb) + (et - xt);
            }
            parity[set] = !parity[set];
            (xb, xt) = (eb, et);
        }
        if inside(&parity) {
            width += (tx1 - xb) + (tx1 - xt);
        }
        total += 0.5 * width * (y1 - y0);
    }
    total
}

/// Push the y of every crossing of two `edges` that lies inside `tile`.
/// A sweep over the edges sorted by bottom y compares only pairs whose y-
/// and x-ranges overlap.
fn crossing_ys(edges: &[Edge], tile: BBox, ys: &mut Vec<f64>) {
    let mut by_bottom: Vec<&Edge> = edges.iter().collect();
    by_bottom.sort_by(|a, b| a.y0.total_cmp(&b.y0));
    let mut active: Vec<&Edge> = Vec::new();
    for e in by_bottom {
        active.retain(|a| a.y1 > e.y0);
        for a in &active {
            if a.xmax() < e.xmin() || e.xmax() < a.xmin() {
                continue;
            }
            if let Some((x, y)) = crossing(a, e) {
                if x > tile.xmin && x < tile.xmax && y > tile.ymin && y < tile.ymax {
                    ys.push(y);
                }
            }
        }
        active.push(e);
    }
}

/// Proper crossing point of two segments, if their interiors cross.
fn crossing(a: &Edge, b: &Edge) -> Option<(f64, f64)> {
    let (dx1, dy1) = (a.x1 - a.x0, a.y1 - a.y0);
    let (dx2, dy2) = (b.x1 - b.x0, b.y1 - b.y0);
    let den = dx1 * dy2 - dy1 * dx2;
    if den == 0.0 {
        return None;
    }
    let (ox, oy) = (b.x0 - a.x0, b.y0 - a.y0);
    let t = (ox * dy2 - oy * dx2) / den;
    let u = (ox * dy1 - oy * dx1) / den;
    if t > 0.0 && t < 1.0 && u > 0.0 && u < 1.0 {
        Some((a.x0 + t * dx1, a.y0 + t * dy1))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyclip::prelude::{Contour, Point};

    fn square(x: f64, y: f64, s: f64) -> Contour {
        Contour::from_xy(&[(x, y), (x + s, y), (x + s, y + s), (x, y + s)])
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-12 * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn unit_square_whole_and_cut() {
        let p = PolygonSet::from_contour(square(0.0, 0.0, 1.0));
        let a = area_in_tile(&[&p], BBox::new(-1.0, -1.0, 2.0, 2.0), |s| s[0]);
        assert!(close(a, 1.0), "{a}");
        let a = area_in_tile(&[&p], BBox::new(0.25, 0.5, 3.0, 3.0), |s| s[0]);
        assert!(close(a, 0.75 * 0.5), "{a}");
    }

    #[test]
    fn triangle_cut_by_every_side() {
        // Right triangle (0,0),(4,0),(0,4): area 8. In the tile [1,3]×[1,2]
        // the hypotenuse x = 4 - y stays inside [2,3], so the row at y is
        // 3 - y wide: ∫₁² (3 - y) dy = 1.5.
        let p = PolygonSet::from_xy(&[(0.0, 0.0), (4.0, 0.0), (0.0, 4.0)]);
        let full = area_in_tile(&[&p], BBox::new(-5.0, -5.0, 5.0, 5.0), |s| s[0]);
        assert!(close(full, 8.0), "{full}");
        let part = area_in_tile(&[&p], BBox::new(1.0, 1.0, 3.0, 2.0), |s| s[0]);
        assert!(close(part, 1.5), "{part}");
    }

    #[test]
    fn even_odd_hole_and_self_overlap() {
        // Outer 4×4 with a 2×2 hole: 12. Two overlapping squares in one set
        // cancel on their overlap under even-odd.
        let donut = PolygonSet::from_contours(vec![square(0.0, 0.0, 4.0), square(1.0, 1.0, 2.0)]);
        let a = area_in_tile(&[&donut], BBox::new(-1.0, -1.0, 5.0, 5.0), |s| s[0]);
        assert!(close(a, 12.0), "{a}");
        let pair = PolygonSet::from_contours(vec![square(0.0, 0.0, 2.0), square(1.0, 1.0, 2.0)]);
        let a = area_in_tile(&[&pair], BBox::new(-1.0, -1.0, 5.0, 5.0), |s| s[0]);
        assert!(close(a, 6.0), "{a}");
    }

    #[test]
    fn boolean_ops_of_two_sets() {
        let a = PolygonSet::from_contour(square(0.0, 0.0, 2.0));
        let b = PolygonSet::from_contour(square(1.0, 1.0, 2.0));
        let tile = BBox::new(-1.0, -1.0, 4.0, 4.0);
        let union = area_in_tile(&[&a, &b], tile, |s| s[0] || s[1]);
        let inter = area_in_tile(&[&a, &b], tile, |s| s[0] && s[1]);
        assert!(close(union, 7.0) && close(inter, 1.0), "{union} {inter}");
    }

    #[test]
    fn rotated_crossing_bars() {
        // Two thin bars crossing at an angle: the crossing points are
        // breakpoints. Union area = 2·bar − overlap (a rhombus).
        let rot = |x: f64, y: f64, t: f64| {
            let (s, c) = t.sin_cos();
            Point::new(c * x - s * y, s * x + c * y)
        };
        let bar = |t: f64| {
            Contour::new(vec![
                rot(-5.0, -0.5, t),
                rot(5.0, -0.5, t),
                rot(5.0, 0.5, t),
                rot(-5.0, 0.5, t),
            ])
        };
        let a = PolygonSet::from_contour(bar(0.3));
        let b = PolygonSet::from_contour(bar(0.3 + std::f64::consts::FRAC_PI_2));
        let tile = BBox::new(-10.0, -10.0, 10.0, 10.0);
        let inter = area_in_tile(&[&a, &b], tile, |s| s[0] && s[1]);
        let union = area_in_tile(&[&a, &b], tile, |s| s[0] || s[1]);
        assert!(close(inter, 1.0), "{inter}");
        assert!(close(union, 19.0), "{union}");
        // A tile cutting through the middle of the crossing.
        let half = area_in_tile(&[&a, &b], BBox::new(0.0, -10.0, 10.0, 10.0), |s| {
            s[0] && s[1]
        });
        assert!(close(half, 0.5), "{half}");
    }
}
