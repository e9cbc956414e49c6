//! The generator implementations.
//!
//! All generators work for `D ∈ {2, 3}` (the paper's scope), take `(n,
//! seed)` and are deterministic. Coordinates stay within moderate ranges so
//! `f32` squared distances remain exact enough for the cross-implementation
//! equality tests.

use emst_geometry::{Point, Scalar};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Uniform points in the unit square/cube centred at the origin
/// (the paper's Uniform100M2 / Uniform100M3).
pub fn uniform<const D: usize>(n: usize, seed: u64) -> Vec<Point<D>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0001);
    (0..n).map(|_| random_point(&mut rng, -0.5, 0.5)).collect()
}

/// Standard normal points (zero mean, unit deviation per coordinate —
/// Normal100M2 / Normal100M3 / Normal300M2).
pub fn normal<const D: usize>(n: usize, seed: u64) -> Vec<Point<D>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0002);
    (0..n).map(|_| gaussian_point(&mut rng, 1.0)).collect()
}

/// Gan & Tao (2017) style variable-density clusters (VisualVar10M2D/3D):
/// cluster centres perform a random walk; each cluster's spread varies over
/// orders of magnitude, producing the mixed-density structure DBSCAN-family
/// algorithms find hard.
pub fn visualvar<const D: usize>(n: usize, seed: u64) -> Vec<Point<D>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0003);
    let clusters = (n as f64).sqrt().ceil() as usize;
    let mut out = Vec::with_capacity(n);
    let mut center = Point::<D>::origin();
    for _ in 0..clusters.max(1) {
        // Random-walk step of the cluster centre.
        for d in 0..D {
            center[d] += rng.random_range(-1.0f32..1.0);
        }
        // Density varies over ~3 orders of magnitude.
        let sigma = 10f32.powf(rng.random_range(-3.0f32..-0.5));
        let remaining = n - out.len();
        let this = (n / clusters.max(1)).min(remaining).max(usize::from(remaining > 0));
        for _ in 0..this.min(remaining) {
            out.push(offset_gaussian(&mut rng, &center, sigma));
        }
        if out.len() >= n {
            break;
        }
    }
    // Fill any rounding remainder near the last centre.
    while out.len() < n {
        out.push(offset_gaussian(&mut rng, &center, 0.01));
    }
    out
}

/// Cosmology-like point cloud (Hacc37M / Hacc497M): dark-matter-halo
/// structure — a power-law mass spectrum of dense clumps with steep radial
/// profiles, connected by a sparse uniform background mimicking filaments
/// and field particles.
pub fn hacc_like<const D: usize>(n: usize, seed: u64) -> Vec<Point<D>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0004);
    let mut out = Vec::with_capacity(n);
    let background = n / 5; // ~20% field particles
    for _ in 0..background {
        out.push(random_point(&mut rng, 0.0, 1.0));
    }
    let halos = (n / 400).max(1);
    let in_halos = n - background;
    // Power-law halo masses: w ~ u^{-0.8}, normalized to in_halos points.
    let mut weights: Vec<f64> =
        (0..halos).map(|_| rng.random_range(0.02f64..1.0).powf(-0.8)).collect();
    let wsum: f64 = weights.iter().sum();
    for w in weights.iter_mut() {
        *w = *w / wsum * in_halos as f64;
    }
    for w in weights {
        if out.len() >= n {
            break;
        }
        let center = random_point::<D>(&mut rng, 0.05, 0.95);
        let scale = rng.random_range(0.002f32..0.02);
        let members = (w.round() as usize).clamp(1, n - out.len());
        for _ in 0..members {
            // Steep radial profile: r = scale * (u^{-0.6} - 1), truncated.
            let u: f32 = rng.random_range(0.05f32..1.0);
            let r = (scale * (u.powf(-0.6) - 1.0)).min(0.2);
            out.push(offset_on_sphere(&mut rng, &center, r));
        }
    }
    while out.len() < n {
        out.push(random_point(&mut rng, 0.0, 1.0));
    }
    out.truncate(n);
    out
}

/// GeoLife-like extreme skew: a handful of hot spots hold most points at
/// tiny spatial scales (the paper's pathological case for the Z-curve
/// resolution, §4.1), plus a wide sparse remainder.
pub fn geolife_like<const D: usize>(n: usize, seed: u64) -> Vec<Point<D>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0005);
    let mut out = Vec::with_capacity(n);
    let hotspots = 12usize;
    let centers: Vec<Point<D>> =
        (0..hotspots).map(|_| random_point(&mut rng, 0.0, 100.0)).collect();
    for _ in 0..n {
        if rng.random_range(0.0f32..1.0) < 0.9 {
            // Zipf-ish hotspot choice: hotspot k gets ~1/(k+1) share.
            let z: f32 = rng.random_range(0.0f32..1.0);
            let k = ((1.0 / (z + 0.08) - 0.9).floor() as usize).min(hotspots - 1);
            // Hot-spot scale ~4e-7 of the domain: at the 21-bit 3D
            // Z-curve cell size (~5e-7), so dense spots straddle few
            // Morton codes — the exact under-resolution effect the paper
            // reports for GeoLife (§4.1).
            let sigma = 4e-5 * (k as f32 + 1.0);
            out.push(offset_gaussian(&mut rng, &centers[k], sigma));
        } else {
            out.push(random_point(&mut rng, 0.0, 100.0));
        }
    }
    out
}

/// NGSIM-like highway trajectories: three long corridors; points are
/// longitudinal positions with lane-quantized lateral offsets and GPS noise.
pub fn ngsim_like<const D: usize>(n: usize, seed: u64) -> Vec<Point<D>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0006);
    // Three distinct corridors (real NGSIM sites are separate highways):
    // gentle slopes keep them >2 units apart everywhere.
    let highways: [(Scalar, Scalar); 3] = [(0.0, 0.02), (4.0, -0.03), (9.0, 0.01)];
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let (offset, slope) = highways[rng.random_range(0..3)];
        let t: f32 = rng.random_range(0.0f32..30.0);
        let lane = rng.random_range(0u32..5) as f32 * 0.004;
        let noise = rng.random_range(-0.001f32..0.001);
        let mut p = Point::<D>::origin();
        p[0] = t;
        p[1] = offset + slope * t + lane + noise;
        if D == 3 {
            p[2] = rng.random_range(0.0f32..0.01); // near-planar altitude
        }
        out.push(p);
    }
    out
}

/// PortoTaxi-like city trajectories: a jittered grid street network; points
/// are sampled along shortest L-shaped paths between random intersections.
pub fn portotaxi_like<const D: usize>(n: usize, seed: u64) -> Vec<Point<D>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0007);
    let grid = 24i32;
    let jitter = |rng: &mut StdRng, v: i32| v as f32 + rng.random_range(-0.1f32..0.1);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        // One trip: L-shaped path between two intersections.
        let (x0, y0) = (rng.random_range(0..grid), rng.random_range(0..grid));
        let (x1, y1) = (rng.random_range(0..grid), rng.random_range(0..grid));
        let samples = rng.random_range(8usize..40).min(n - out.len());
        let (fx0, fy0) = (jitter(&mut rng, x0), jitter(&mut rng, y0));
        let (fx1, fy1) = (jitter(&mut rng, x1), jitter(&mut rng, y1));
        for s in 0..samples {
            let t = s as f32 / samples.max(1) as f32;
            // First leg horizontal, second vertical.
            let (x, y) = if t < 0.5 {
                (fx0 + (fx1 - fx0) * (2.0 * t), fy0)
            } else {
                (fx1, fy0 + (fy1 - fy0) * (2.0 * t - 1.0))
            };
            let mut p = Point::<D>::origin();
            p[0] = x + rng.random_range(-0.02f32..0.02);
            p[1] = y + rng.random_range(-0.02f32..0.02);
            if D == 3 {
                p[2] = rng.random_range(0.0f32..0.05);
            }
            out.push(p);
        }
    }
    out.truncate(n);
    out
}

/// RoadNetwork-like: vertices of a sparse planar road graph — a perturbed
/// grid with some diagonal shortcuts, points concentrated on the edges.
pub fn roadnetwork_like<const D: usize>(n: usize, seed: u64) -> Vec<Point<D>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0008);
    let mut out = Vec::with_capacity(n);
    let grid = ((n as f32).sqrt() / 3.0).ceil().max(2.0) as i32;
    while out.len() < n {
        let (x, y) = (rng.random_range(0..grid), rng.random_range(0..grid));
        let along = rng.random_range(0.0f32..1.0);
        let horizontal = rng.random_range(0u32..2) == 0;
        let mut p = Point::<D>::origin();
        if horizontal {
            p[0] = x as f32 + along;
            p[1] = y as f32 + rng.random_range(-0.02f32..0.02);
        } else {
            p[0] = x as f32 + rng.random_range(-0.02f32..0.02);
            p[1] = y as f32 + along;
        }
        if D == 3 {
            p[2] = rng.random_range(0.0f32..0.2);
        }
        out.push(p);
    }
    out
}

/// The paper's §4.3 sampling methodology: a random subset that preserves the
/// parent distribution. Uses a partial Fisher–Yates shuffle, so it is `O(m)`
/// and deterministic in `seed`.
pub fn sample_preserving_distribution<const D: usize>(
    points: &[Point<D>],
    m: usize,
    seed: u64,
) -> Vec<Point<D>> {
    let n = points.len();
    if m >= n {
        return points.to_vec();
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0009);
    let mut idx: Vec<u32> = (0..n as u32).collect();
    for i in 0..m {
        let j = rng.random_range(i..n);
        idx.swap(i, j);
    }
    idx[..m].iter().map(|&i| points[i as usize]).collect()
}

fn random_point<const D: usize>(rng: &mut StdRng, lo: Scalar, hi: Scalar) -> Point<D> {
    let mut p = Point::origin();
    for d in 0..D {
        p[d] = rng.random_range(lo..hi);
    }
    p
}

/// Isotropic Gaussian via Box–Muller.
fn gaussian_point<const D: usize>(rng: &mut StdRng, sigma: Scalar) -> Point<D> {
    let mut p = Point::origin();
    let mut d = 0;
    while d < D {
        let u1: f32 = rng.random_range(f32::EPSILON..1.0);
        let u2: f32 = rng.random_range(0.0f32..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        p[d] = r * theta.cos() * sigma;
        d += 1;
        if d < D {
            p[d] = r * theta.sin() * sigma;
            d += 1;
        }
    }
    p
}

fn offset_gaussian<const D: usize>(rng: &mut StdRng, center: &Point<D>, sigma: Scalar) -> Point<D> {
    let g = gaussian_point::<D>(rng, sigma);
    let mut p = *center;
    for d in 0..D {
        p[d] += g[d];
    }
    p
}

/// A point at distance `r` from `center` in a uniformly random direction.
fn offset_on_sphere<const D: usize>(rng: &mut StdRng, center: &Point<D>, r: Scalar) -> Point<D> {
    // Normalize a Gaussian sample for a uniform direction.
    let g = gaussian_point::<D>(rng, 1.0);
    let norm = (0..D).map(|d| g[d] * g[d]).sum::<f32>().sqrt().max(1e-12);
    let mut p = *center;
    for d in 0..D {
        p[d] += g[d] / norm * r;
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use emst_geometry::Aabb;

    #[test]
    fn uniform_stays_in_unit_box() {
        let pts = uniform::<2>(2000, 7);
        let bb = Aabb::from_points(&pts);
        assert!(bb.min[0] >= -0.5 && bb.max[0] <= 0.5);
        assert!(bb.min[1] >= -0.5 && bb.max[1] <= 0.5);
        // Reasonably space-filling.
        assert!(bb.longest_extent() > 0.9);
    }

    #[test]
    fn normal_has_zeroish_mean_and_unit_scale() {
        let pts = normal::<2>(20_000, 11);
        let mean: f64 = pts.iter().map(|p| p[0] as f64).sum::<f64>() / pts.len() as f64;
        let var: f64 =
            pts.iter().map(|p| (p[0] as f64 - mean).powi(2)).sum::<f64>() / pts.len() as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "variance {var}");
    }

    #[test]
    fn visualvar_has_varying_local_density() {
        let pts = visualvar::<2>(5000, 13);
        assert_eq!(pts.len(), 5000);
        // Nearest-neighbour distances must span orders of magnitude.
        let sample: Vec<f32> = (0..200)
            .map(|i| {
                let p = &pts[i * 25];
                pts.iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i * 25)
                    .map(|(_, q)| p.squared_distance(q))
                    .fold(f32::INFINITY, f32::min)
            })
            .collect();
        let min = sample.iter().copied().fold(f32::INFINITY, f32::min).max(1e-20);
        let max = sample.iter().copied().fold(0.0f32, f32::max);
        assert!(max / min > 1e3, "density ratio {}", max / min);
    }

    #[test]
    fn hacc_like_is_strongly_clustered() {
        let pts = hacc_like::<3>(10_000, 17);
        assert_eq!(pts.len(), 10_000);
        // Clustering proxy: median NN distance far below the uniform
        // expectation (~n^{-1/3} ≈ 0.046 for 10k in a unit cube).
        let mut nn: Vec<f32> = (0..300)
            .map(|i| {
                let p = &pts[i * 33];
                pts.iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i * 33)
                    .map(|(_, q)| p.squared_distance(q))
                    .fold(f32::INFINITY, f32::min)
                    .sqrt()
            })
            .collect();
        nn.sort_by(f32::total_cmp);
        let median = nn[nn.len() / 2];
        assert!(median < 0.02, "median NN distance {median} not clustered");
    }

    #[test]
    fn geolife_like_hotspots_dominate() {
        let pts = geolife_like::<2>(10_000, 19);
        // At least half the points concentrate in tiny neighbourhoods:
        // count points whose NN is extremely close.
        let close = (0..500)
            .filter(|&i| {
                let p = &pts[i * 20];
                pts.iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i * 20)
                    .map(|(_, q)| p.squared_distance(q))
                    .fold(f32::INFINITY, f32::min)
                    < 1e-4
            })
            .count();
        assert!(close > 250, "only {close}/500 sampled points are in hot spots");
    }

    #[test]
    fn trajectory_datasets_are_anisotropic() {
        let pts = ngsim_like::<2>(5000, 23);
        let bb = Aabb::from_points(&pts);
        let e = bb.extents();
        assert!(e[0] / e[1] > 2.0, "highways should be elongated: {e:?}");
    }

    #[test]
    fn portotaxi_covers_a_grid() {
        let pts = portotaxi_like::<2>(5000, 29);
        let bb = Aabb::from_points(&pts);
        assert!(bb.longest_extent() > 10.0);
        assert_eq!(pts.len(), 5000);
    }

    #[test]
    fn sampling_preserves_membership_and_size() {
        let pts = uniform::<2>(1000, 31);
        let s = sample_preserving_distribution(&pts, 100, 1);
        assert_eq!(s.len(), 100);
        for p in &s {
            assert!(pts.contains(p));
        }
        // Deterministic; different seeds differ.
        assert_eq!(s, sample_preserving_distribution(&pts, 100, 1));
        assert_ne!(s, sample_preserving_distribution(&pts, 100, 2));
        // Oversampling returns everything.
        assert_eq!(sample_preserving_distribution(&pts, 5000, 3).len(), 1000);
    }
}
