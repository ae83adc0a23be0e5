//! Cached eccentricity maps and the foveal-bypass configuration.

use crate::geometry::{DisplayGeometry, GazePoint};
use pvc_frame::{TileGrid, TileRect};

/// Configuration of the foveal bypass region.
///
/// Following the paper's methodology (Sec. 5.1), pixels in the central
/// region around fixation are not adjusted: foveal color discrimination is
/// too precise to exploit safely. The default radius corresponds to the
/// central 10° field of view.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FoveaConfig {
    /// Eccentricity (degrees) below which pixels are left untouched.
    pub bypass_radius_deg: f64,
}

impl Default for FoveaConfig {
    fn default() -> Self {
        // Central 10° FoV → 5° radius around fixation.
        FoveaConfig {
            bypass_radius_deg: 5.0,
        }
    }
}

impl FoveaConfig {
    /// Creates a configuration with an explicit bypass radius.
    ///
    /// # Panics
    ///
    /// Panics if the radius is negative.
    pub fn new(bypass_radius_deg: f64) -> Self {
        assert!(
            bypass_radius_deg >= 0.0,
            "bypass radius must be non-negative"
        );
        FoveaConfig { bypass_radius_deg }
    }

    /// A configuration that disables the bypass entirely (every pixel is
    /// eligible for adjustment). Useful for ablation studies.
    pub fn disabled() -> Self {
        FoveaConfig {
            bypass_radius_deg: 0.0,
        }
    }

    /// True if a pixel at the given eccentricity must be left untouched.
    #[inline]
    pub fn is_foveal(&self, eccentricity_deg: f64) -> bool {
        eccentricity_deg < self.bypass_radius_deg
    }
}

/// Per-tile eccentricities for one frame and gaze position.
///
/// The encoder only needs one eccentricity per tile (the discrimination
/// thresholds vary slowly across a 4×4 block), so the map is computed at
/// tile centers. The map also records, per tile, whether *any* covered pixel
/// falls inside the foveal bypass region, which is the conservative
/// condition for skipping adjustment of that tile.
#[derive(Debug, Clone, PartialEq)]
pub struct EccentricityMap {
    tiles_x: u32,
    tiles_y: u32,
    tile_size: u32,
    eccentricity_deg: Vec<f64>,
    foveal: Vec<bool>,
}

impl EccentricityMap {
    /// Computes the per-tile eccentricity map for `grid` as seen on `display`
    /// while the user fixates `gaze`.
    ///
    /// # Panics
    ///
    /// Panics if the grid does not match the display dimensions.
    pub fn per_tile(
        display: &DisplayGeometry,
        grid: &TileGrid,
        gaze: GazePoint,
        fovea: FoveaConfig,
    ) -> Self {
        assert_eq!(
            grid.dimensions(),
            display.dimensions(),
            "tile grid and display dimensions must match"
        );
        let tiles_x = grid.tiles_x();
        let tiles_y = grid.tiles_y();
        let mut eccentricity_deg = Vec::with_capacity((tiles_x * tiles_y) as usize);
        let mut foveal = Vec::with_capacity((tiles_x * tiles_y) as usize);
        for tile in grid.tiles() {
            let (cx, cy) = tile.center();
            let center_ecc = display.eccentricity_deg(cx, cy, gaze);
            eccentricity_deg.push(center_ecc);
            // Conservative foveal test: check the tile corners as well as the
            // center, so a tile partially inside the bypass region is skipped.
            let corners = [
                (f64::from(tile.x), f64::from(tile.y)),
                (f64::from(tile.x + tile.width), f64::from(tile.y)),
                (f64::from(tile.x), f64::from(tile.y + tile.height)),
                (
                    f64::from(tile.x + tile.width),
                    f64::from(tile.y + tile.height),
                ),
            ];
            let any_foveal = fovea.is_foveal(center_ecc)
                || corners
                    .iter()
                    .any(|&(x, y)| fovea.is_foveal(display.eccentricity_deg(x, y, gaze)));
            foveal.push(any_foveal);
        }
        EccentricityMap {
            tiles_x,
            tiles_y,
            tile_size: grid.tile_size(),
            eccentricity_deg,
            foveal,
        }
    }

    /// Number of tile columns.
    #[inline]
    pub fn tiles_x(&self) -> u32 {
        self.tiles_x
    }

    /// Number of tile rows.
    #[inline]
    pub fn tiles_y(&self) -> u32 {
        self.tiles_y
    }

    /// The tile size the map was built for.
    #[inline]
    pub fn tile_size(&self) -> u32 {
        self.tile_size
    }

    /// Eccentricity (degrees) of the tile whose top-left corner is the given
    /// tile rectangle.
    ///
    /// # Panics
    ///
    /// Panics if the tile does not belong to the grid the map was built for.
    pub fn tile_eccentricity(&self, tile: TileRect) -> f64 {
        self.eccentricity_deg[self.index_of(tile)]
    }

    /// True if the tile overlaps the foveal bypass region and must be left
    /// untouched.
    ///
    /// # Panics
    ///
    /// Panics if the tile does not belong to the grid the map was built for.
    pub fn is_foveal_tile(&self, tile: TileRect) -> bool {
        self.foveal[self.index_of(tile)]
    }

    /// Fraction of tiles that are foveal (bypassed).
    pub fn foveal_fraction(&self) -> f64 {
        if self.foveal.is_empty() {
            return 0.0;
        }
        self.foveal.iter().filter(|&&f| f).count() as f64 / self.foveal.len() as f64
    }

    fn index_of(&self, tile: TileRect) -> usize {
        assert_eq!(
            tile.x % self.tile_size,
            0,
            "tile is not aligned to the map's grid"
        );
        assert_eq!(
            tile.y % self.tile_size,
            0,
            "tile is not aligned to the map's grid"
        );
        let tx = tile.x / self.tile_size;
        let ty = tile.y / self.tile_size;
        assert!(
            tx < self.tiles_x && ty < self.tiles_y,
            "tile outside the map"
        );
        (ty * self.tiles_x + tx) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvc_frame::Dimensions;

    fn setup() -> (DisplayGeometry, TileGrid) {
        let dims = Dimensions::new(256, 224);
        (DisplayGeometry::quest2_like(dims), TileGrid::new(dims, 4))
    }

    #[test]
    fn foveal_config_defaults_to_five_degrees() {
        let f = FoveaConfig::default();
        assert!(f.is_foveal(4.9));
        assert!(!f.is_foveal(5.1));
        assert!(!FoveaConfig::disabled().is_foveal(0.0));
    }

    #[test]
    #[should_panic]
    fn negative_radius_panics() {
        let _ = FoveaConfig::new(-1.0);
    }

    #[test]
    fn map_has_one_entry_per_tile() {
        let (display, grid) = setup();
        let gaze = GazePoint::center_of(display.dimensions());
        let map = EccentricityMap::per_tile(&display, &grid, gaze, FoveaConfig::default());
        assert_eq!(map.tiles_x(), grid.tiles_x());
        assert_eq!(map.tiles_y(), grid.tiles_y());
        assert_eq!(map.tile_size(), 4);
    }

    #[test]
    fn central_tiles_are_foveal_corner_tiles_are_not() {
        let (display, grid) = setup();
        let gaze = GazePoint::center_of(display.dimensions());
        let map = EccentricityMap::per_tile(&display, &grid, gaze, FoveaConfig::default());
        let center_tile = grid.tile(grid.tiles_x() / 2, grid.tiles_y() / 2);
        let corner_tile = grid.tile(0, 0);
        assert!(map.is_foveal_tile(center_tile));
        assert!(!map.is_foveal_tile(corner_tile));
        assert!(map.tile_eccentricity(corner_tile) > map.tile_eccentricity(center_tile));
    }

    #[test]
    fn foveal_fraction_is_small_for_wide_fov() {
        let (display, grid) = setup();
        let gaze = GazePoint::center_of(display.dimensions());
        let map = EccentricityMap::per_tile(&display, &grid, gaze, FoveaConfig::default());
        let frac = map.foveal_fraction();
        assert!(frac > 0.0 && frac < 0.15, "foveal fraction {frac}");
    }

    #[test]
    fn disabled_fovea_bypasses_nothing() {
        let (display, grid) = setup();
        let gaze = GazePoint::center_of(display.dimensions());
        let map = EccentricityMap::per_tile(&display, &grid, gaze, FoveaConfig::disabled());
        assert_eq!(map.foveal_fraction(), 0.0);
    }

    #[test]
    #[should_panic]
    fn misaligned_tile_lookup_panics() {
        let (display, grid) = setup();
        let gaze = GazePoint::center_of(display.dimensions());
        let map = EccentricityMap::per_tile(&display, &grid, gaze, FoveaConfig::default());
        let bogus = TileRect {
            x: 2,
            y: 0,
            width: 4,
            height: 4,
        };
        let _ = map.tile_eccentricity(bogus);
    }
}
