//! Synthetic dataset generators mirroring the paper's evaluation suite.
//!
//! The paper benchmarks twelve datasets (§4, "Datasets"): real-world
//! trajectory data (NGSIM, PortoTaxi, GeoLife, RoadNetwork), cosmology
//! simulation snapshots (HACC), the Gan & Tao DBSCAN-hardness generator
//! (VisualVar), and uniform/normal random clouds. The real datasets are not
//! redistributable (and far too large for this environment), so this crate
//! provides **seeded generators that reproduce each dataset's distributional
//! traits** — the property the paper itself identifies as what performance
//! depends on ("performance ... is more dependent on the distribution of
//! points", §4.2):
//!
//! | paper dataset | [`Kind`] (CLI name) | reproduced trait |
//! |---|---|---|
//! | Uniform100M2/3 | [`Kind::Uniform`] (`uniform`) | constant density |
//! | Normal100M2/3, Normal300M2 | [`Kind::Normal`] (`normal`) | radially decaying density |
//! | VisualVar10M2D/3D | [`Kind::VisualVar`] (`visualvar`) | clusters of wildly varying density (Gan & Tao) |
//! | Hacc37M/497M | [`Kind::HaccLike`] (`hacc`) | halo hierarchy: dense clumps + filaments + background |
//! | GeoLife24M3D | [`Kind::GeoLifeLike`] (`geolife`) | extreme hot-spot skew (the paper's BVH-quality outlier) |
//! | Ngsim / Ngsimlocation3 | [`Kind::NgsimLike`] (`ngsim`) | points strung along a few highway polylines |
//! | PortoTaxi | [`Kind::PortoTaxiLike`] (`porto`) | points along a dense street network |
//! | RoadNetwork3D | [`Kind::RoadNetworkLike`] (`road`) | sparse graph-embedded points (small dataset) |
//!
//! [`Kind::generate`] is the one way to make a cloud: everything is
//! deterministic in `(kind, n, seed)`. [`PaperDataset`] maps each paper
//! dataset to its kind, dimension and scaled size. The paper's §4.3
//! scaling methodology ("randomly sampling a large dataset") is
//! [`sample_preserving_distribution`].
//!
//! Point files go through [`io`]: [`save_csv`] writes them, [`parse_csv`]
//! and [`parse_xyz`] parse bytes already read, and
//! [`io::read_points_chunked`] streams a CSV file chunk by chunk.

// Loops over the const-generic dimension D index several parallel arrays;
// clippy's iterator suggestion does not apply cleanly there.
#![allow(clippy::needless_range_loop)]

mod generators;
pub mod io;
pub mod paper;

pub use generators::sample_preserving_distribution;
pub use io::{parse_csv, parse_xyz, save_csv};
pub use paper::{PaperDataset, PointCloud};

use emst_geometry::Point;

/// What to generate; see the module docs for the trait each kind mimics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Uniform in the unit square/cube.
    Uniform,
    /// Standard normal per coordinate.
    Normal,
    /// Gan & Tao-style variable-density clusters.
    VisualVar,
    /// Cosmology-like halo hierarchy.
    HaccLike,
    /// Extreme hot-spot skew.
    GeoLifeLike,
    /// Highway trajectories.
    NgsimLike,
    /// Street-network trajectories.
    PortoTaxiLike,
    /// Sparse road-graph vertices.
    RoadNetworkLike,
}

impl Kind {
    /// Every kind, in declaration order.
    pub const ALL: [Kind; 8] = [
        Kind::Uniform,
        Kind::Normal,
        Kind::VisualVar,
        Kind::HaccLike,
        Kind::GeoLifeLike,
        Kind::NgsimLike,
        Kind::PortoTaxiLike,
        Kind::RoadNetworkLike,
    ];

    /// The kind's name on the command line (`emst-cli generate --kind`).
    pub fn name(&self) -> &'static str {
        match self {
            Kind::Uniform => "uniform",
            Kind::Normal => "normal",
            Kind::VisualVar => "visualvar",
            Kind::HaccLike => "hacc",
            Kind::GeoLifeLike => "geolife",
            Kind::NgsimLike => "ngsim",
            Kind::PortoTaxiLike => "porto",
            Kind::RoadNetworkLike => "road",
        }
    }

    /// The kind whose [`Kind::name`] is `name`, if any.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|kind| kind.name() == name)
    }

    /// Generates `n` points of this kind in dimension `D`.
    pub fn generate<const D: usize>(&self, n: usize, seed: u64) -> Vec<Point<D>> {
        match self {
            Kind::Uniform => generators::uniform(n, seed),
            Kind::Normal => generators::normal(n, seed),
            Kind::VisualVar => generators::visualvar(n, seed),
            Kind::HaccLike => generators::hacc_like(n, seed),
            Kind::GeoLifeLike => generators::geolife_like(n, seed),
            Kind::NgsimLike => generators::ngsim_like(n, seed),
            Kind::PortoTaxiLike => generators::portotaxi_like(n, seed),
            Kind::RoadNetworkLike => generators::roadnetwork_like(n, seed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_generate_requested_sizes_deterministically() {
        for kind in Kind::ALL {
            let a = kind.generate::<2>(500, 9);
            let b = kind.generate::<2>(500, 9);
            assert_eq!(a.len(), 500, "{kind:?}");
            assert_eq!(a, b, "{kind:?} must be deterministic");
            assert!(a.iter().all(Point::is_finite), "{kind:?} produced non-finite points");
            let c = kind.generate::<3>(500, 9);
            assert_eq!(c.len(), 500);
            assert!(c.iter().all(Point::is_finite));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Kind::Uniform.generate::<2>(100, 1);
        let b = Kind::Uniform.generate::<2>(100, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn names_parse_back_in_declaration_order() {
        let names = Kind::ALL.map(|kind| kind.name());
        assert_eq!(
            names,
            ["uniform", "normal", "visualvar", "hacc", "geolife", "ngsim", "porto", "road"]
        );
        for kind in Kind::ALL {
            assert_eq!(Kind::parse(kind.name()), Some(kind));
        }
        for bad in ["", "nonsense", "Uniform", "hacc_like", " uniform"] {
            assert_eq!(Kind::parse(bad), None, "{bad:?}");
        }
    }
}
