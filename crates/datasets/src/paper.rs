//! The paper's named evaluation datasets, scaled for this environment.
//!
//! Figures 5 and 6 of the paper enumerate twelve datasets. This module maps
//! each name to its generator, native dimension and a point count
//! proportional to the original size (so the relative dataset sizes — and
//! effects like RoadNetwork3D being too small to saturate a device — are
//! preserved at benchmark scale).

use emst_geometry::Point;

use crate::Kind;

/// A dimension-erased point cloud (the dataset list mixes 2D and 3D).
#[derive(Clone, Debug)]
pub enum PointCloud {
    /// Two-dimensional points.
    D2(Vec<Point<2>>),
    /// Three-dimensional points.
    D3(Vec<Point<3>>),
}

impl PointCloud {
    /// Number of points.
    pub fn len(&self) -> usize {
        match self {
            PointCloud::D2(v) => v.len(),
            PointCloud::D3(v) => v.len(),
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The dataset dimension (2 or 3).
    pub fn dim(&self) -> usize {
        match self {
            PointCloud::D2(_) => 2,
            PointCloud::D3(_) => 3,
        }
    }

    /// Features (`n × d`), the numerator of the paper's rate metric.
    pub fn features(&self) -> usize {
        self.len() * self.dim()
    }
}

/// The twelve datasets of the paper's Figures 5–6 (plus the two §4.3
/// scaling parents). Names match the paper, including `RoadNetwork3D`
/// (a 2D dataset despite its name) and `Ngsimlocation3` (highway location
/// #3 of NGSIM — also 2D; the "3" is not a dimension). See §4, "Datasets".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum PaperDataset {
    GeoLife24M3D,
    RoadNetwork3D,
    Ngsim,
    Ngsimlocation3,
    PortoTaxi,
    VisualVar10M2D,
    VisualVar10M3D,
    Normal100M3,
    Normal100M2,
    Uniform100M2,
    Uniform100M3,
    Hacc37M,
    // §4.3 scaling parents:
    Hacc497M,
    Normal300M2,
    Uniform300M3,
}

impl PaperDataset {
    /// The twelve datasets of Figures 5–6, in the paper's plot order.
    pub const FIGURE56: [PaperDataset; 12] = [
        PaperDataset::GeoLife24M3D,
        PaperDataset::RoadNetwork3D,
        PaperDataset::Ngsim,
        PaperDataset::Ngsimlocation3,
        PaperDataset::PortoTaxi,
        PaperDataset::VisualVar10M2D,
        PaperDataset::VisualVar10M3D,
        PaperDataset::Normal100M3,
        PaperDataset::Normal100M2,
        PaperDataset::Uniform100M2,
        PaperDataset::Uniform100M3,
        PaperDataset::Hacc37M,
    ];

    /// The three scaling datasets of Figure 7.
    pub const FIGURE7: [PaperDataset; 3] =
        [PaperDataset::Hacc497M, PaperDataset::Normal300M2, PaperDataset::Uniform300M3];

    /// Display name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            PaperDataset::GeoLife24M3D => "GeoLife24M3D",
            PaperDataset::RoadNetwork3D => "RoadNetwork3D",
            PaperDataset::Ngsim => "Ngsim",
            PaperDataset::Ngsimlocation3 => "Ngsimlocation3",
            PaperDataset::PortoTaxi => "PortoTaxi",
            PaperDataset::VisualVar10M2D => "VisualVar10M2D",
            PaperDataset::VisualVar10M3D => "VisualVar10M3D",
            PaperDataset::Normal100M3 => "Normal100M3",
            PaperDataset::Normal100M2 => "Normal100M2",
            PaperDataset::Uniform100M2 => "Uniform100M2",
            PaperDataset::Uniform100M3 => "Uniform100M3",
            PaperDataset::Hacc37M => "Hacc37M",
            PaperDataset::Hacc497M => "Hacc497M",
            PaperDataset::Normal300M2 => "Normal300M2",
            PaperDataset::Uniform300M3 => "Uniform300M3",
        }
    }

    /// Native dimension.
    pub fn dim(&self) -> usize {
        match self {
            PaperDataset::GeoLife24M3D
            | PaperDataset::VisualVar10M3D
            | PaperDataset::Normal100M3
            | PaperDataset::Uniform100M3
            | PaperDataset::Hacc37M
            | PaperDataset::Hacc497M
            | PaperDataset::Uniform300M3 => 3,
            _ => 2,
        }
    }

    /// The generator family behind the dataset.
    pub fn kind(&self) -> Kind {
        match self {
            PaperDataset::GeoLife24M3D => Kind::GeoLifeLike,
            PaperDataset::RoadNetwork3D => Kind::RoadNetworkLike,
            PaperDataset::Ngsim | PaperDataset::Ngsimlocation3 => Kind::NgsimLike,
            PaperDataset::PortoTaxi => Kind::PortoTaxiLike,
            PaperDataset::VisualVar10M2D | PaperDataset::VisualVar10M3D => Kind::VisualVar,
            PaperDataset::Normal100M3 | PaperDataset::Normal100M2 | PaperDataset::Normal300M2 => {
                Kind::Normal
            }
            PaperDataset::Uniform100M2
            | PaperDataset::Uniform100M3
            | PaperDataset::Uniform300M3 => Kind::Uniform,
            PaperDataset::Hacc37M | PaperDataset::Hacc497M => Kind::HaccLike,
        }
    }

    /// Original point count in the paper (used to scale benchmark sizes
    /// proportionally).
    pub fn original_size(&self) -> usize {
        match self {
            PaperDataset::GeoLife24M3D => 24_000_000,
            PaperDataset::RoadNetwork3D => 400_000,
            PaperDataset::Ngsim => 12_000_000,
            PaperDataset::Ngsimlocation3 => 4_000_000,
            PaperDataset::PortoTaxi => 81_000_000,
            PaperDataset::VisualVar10M2D | PaperDataset::VisualVar10M3D => 10_000_000,
            PaperDataset::Normal100M3
            | PaperDataset::Normal100M2
            | PaperDataset::Uniform100M2
            | PaperDataset::Uniform100M3 => 100_000_000,
            PaperDataset::Hacc37M => 37_000_000,
            PaperDataset::Hacc497M => 497_000_000,
            PaperDataset::Normal300M2 => 300_000_000,
            PaperDataset::Uniform300M3 => 300_000_000,
        }
    }

    /// Benchmark-scale point count: original sizes compressed to a usable
    /// range with a cube-root law (so a 250× size spread becomes ~6×),
    /// scaled by `scale` (1.0 ≈ 60k–400k points).
    pub fn scaled_size(&self, scale: f64) -> usize {
        let base = (self.original_size() as f64 / 400_000.0).powf(1.0 / 3.0) * 65_000.0;
        ((base * scale) as usize).max(1_000)
    }

    /// Generates the dataset at `n` points.
    pub fn generate(&self, n: usize, seed: u64) -> PointCloud {
        let kind = self.kind();
        if self.dim() == 2 {
            PointCloud::D2(kind.generate(n, seed))
        } else {
            PointCloud::D3(kind.generate(n, seed))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn all_figure_datasets_generate() {
        for ds in PaperDataset::FIGURE56 {
            let cloud = ds.generate(2000, 3);
            assert_eq!(cloud.len(), 2000, "{}", ds.name());
            assert_eq!(cloud.dim(), ds.dim(), "{}", ds.name());
            assert_eq!(cloud.features(), 2000 * ds.dim());
        }
    }

    #[test]
    fn scaled_sizes_preserve_ordering() {
        let road = PaperDataset::RoadNetwork3D.scaled_size(1.0);
        let hacc = PaperDataset::Hacc37M.scaled_size(1.0);
        let porto = PaperDataset::PortoTaxi.scaled_size(1.0);
        assert!(road < hacc, "{road} !< {hacc}");
        assert!(hacc < porto, "{hacc} !< {porto}");
        // Compression keeps the suite tractable.
        assert!(porto < 500_000);
        assert!(road >= 50_000);
    }

    #[test]
    fn kind_generate_matches_free_functions() {
        assert_eq!(Kind::Uniform.generate::<2>(50, 7), generators::uniform::<2>(50, 7));
    }
}
