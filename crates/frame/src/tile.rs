//! Tiling of frames into fixed-size blocks.

use crate::frame::Dimensions;

/// The tile size used throughout the paper's main evaluation (4×4 pixels).
pub const DEFAULT_TILE_SIZE: u32 = 4;

/// A rectangular tile of a frame, in pixel coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileRect {
    /// Left edge (inclusive).
    pub x: u32,
    /// Top edge (inclusive).
    pub y: u32,
    /// Width in pixels (edge tiles may be narrower than the tile size).
    pub width: u32,
    /// Height in pixels.
    pub height: u32,
}

impl TileRect {
    /// Number of pixels covered by the tile.
    #[inline]
    pub fn pixel_count(&self) -> usize {
        self.width as usize * self.height as usize
    }

    /// Center of the tile in (floating point) pixel coordinates.
    #[inline]
    pub fn center(&self) -> (f64, f64) {
        (
            f64::from(self.x) + f64::from(self.width) * 0.5,
            f64::from(self.y) + f64::from(self.height) * 0.5,
        )
    }

    /// True if the tile covers the pixel at `(x, y)`.
    #[inline]
    pub fn contains(&self, x: u32, y: u32) -> bool {
        x >= self.x && x < self.x + self.width && y >= self.y && y < self.y + self.height
    }
}

/// A partition of a frame into square tiles of a given size.
///
/// # Examples
///
/// ```
/// use pvc_frame::{Dimensions, TileGrid};
/// let grid = TileGrid::new(Dimensions::new(10, 6), 4);
/// assert_eq!(grid.tiles_x(), 3);
/// assert_eq!(grid.tiles_y(), 2);
/// assert_eq!(grid.tile_count(), 6);
/// // Edge tiles are clipped to the frame.
/// let last = grid.tiles().last().unwrap();
/// assert_eq!((last.width, last.height), (2, 2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileGrid {
    dimensions: Dimensions,
    tile_size: u32,
}

impl TileGrid {
    /// Creates a tile grid over a frame of the given dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `tile_size` is zero.
    pub fn new(dimensions: Dimensions, tile_size: u32) -> Self {
        assert!(tile_size > 0, "tile size must be non-zero");
        TileGrid {
            dimensions,
            tile_size,
        }
    }

    /// The frame dimensions the grid covers.
    #[inline]
    pub fn dimensions(&self) -> Dimensions {
        self.dimensions
    }

    /// The nominal (unclipped) tile size.
    #[inline]
    pub fn tile_size(&self) -> u32 {
        self.tile_size
    }

    /// Number of tile columns.
    #[inline]
    pub fn tiles_x(&self) -> u32 {
        self.dimensions.width.div_ceil(self.tile_size)
    }

    /// Number of tile rows.
    #[inline]
    pub fn tiles_y(&self) -> u32 {
        self.dimensions.height.div_ceil(self.tile_size)
    }

    /// Total number of tiles.
    #[inline]
    pub fn tile_count(&self) -> usize {
        self.tiles_x() as usize * self.tiles_y() as usize
    }

    /// Returns the tile at grid position `(tx, ty)`, clipped to the frame.
    ///
    /// # Panics
    ///
    /// Panics if the grid position is out of range.
    pub fn tile(&self, tx: u32, ty: u32) -> TileRect {
        assert!(
            tx < self.tiles_x() && ty < self.tiles_y(),
            "tile index out of range"
        );
        let x = tx * self.tile_size;
        let y = ty * self.tile_size;
        TileRect {
            x,
            y,
            width: self.tile_size.min(self.dimensions.width - x),
            height: self.tile_size.min(self.dimensions.height - y),
        }
    }

    /// Iterates over all tiles in row-major order.
    pub fn tiles(&self) -> Tiles {
        Tiles {
            grid: *self,
            next: 0,
        }
    }
}

/// Iterator over the tiles of a [`TileGrid`] in row-major order.
#[derive(Debug, Clone)]
pub struct Tiles {
    grid: TileGrid,
    next: usize,
}

impl Iterator for Tiles {
    type Item = TileRect;

    fn next(&mut self) -> Option<TileRect> {
        if self.next >= self.grid.tile_count() {
            return None;
        }
        let tx = (self.next % self.grid.tiles_x() as usize) as u32;
        let ty = (self.next / self.grid.tiles_x() as usize) as u32;
        self.next += 1;
        Some(self.grid.tile(tx, ty))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.grid.tile_count() - self.next;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for Tiles {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_every_pixel_exactly_once() {
        let d = Dimensions::new(13, 9);
        let grid = TileGrid::new(d, 4);
        let mut covered = vec![0u32; d.pixel_count()];
        for tile in grid.tiles() {
            for dy in 0..tile.height {
                for dx in 0..tile.width {
                    let idx = ((tile.y + dy) * d.width + (tile.x + dx)) as usize;
                    covered[idx] += 1;
                }
            }
        }
        assert!(
            covered.iter().all(|&c| c == 1),
            "every pixel must be covered exactly once"
        );
    }

    #[test]
    fn tile_counts_for_exact_and_partial_fits() {
        assert_eq!(TileGrid::new(Dimensions::new(16, 16), 4).tile_count(), 16);
        assert_eq!(TileGrid::new(Dimensions::new(17, 16), 4).tile_count(), 20);
        assert_eq!(TileGrid::new(Dimensions::new(1, 1), 4).tile_count(), 1);
    }

    #[test]
    fn edge_tiles_are_clipped() {
        let grid = TileGrid::new(Dimensions::new(10, 10), 4);
        let tile = grid.tile(2, 2);
        assert_eq!((tile.width, tile.height), (2, 2));
        assert_eq!(tile.pixel_count(), 4);
    }

    #[test]
    fn iterator_is_exact_size_and_row_major() {
        let grid = TileGrid::new(Dimensions::new(8, 8), 4);
        let tiles: Vec<_> = grid.tiles().collect();
        assert_eq!(tiles.len(), grid.tile_count());
        assert_eq!(grid.tiles().len(), 4);
        assert_eq!(tiles[0].x, 0);
        assert_eq!(tiles[1].x, 4);
        assert_eq!(tiles[2].y, 4);
    }

    #[test]
    fn tile_center_and_contains() {
        let grid = TileGrid::new(Dimensions::new(8, 8), 4);
        let tile = grid.tile(1, 0);
        assert_eq!(tile.center(), (6.0, 2.0));
        assert!(tile.contains(5, 3));
        assert!(!tile.contains(3, 3));
    }

    #[test]
    #[should_panic]
    fn zero_tile_size_panics() {
        let _ = TileGrid::new(Dimensions::new(4, 4), 0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_tile_panics() {
        let grid = TileGrid::new(Dimensions::new(8, 8), 4);
        let _ = grid.tile(2, 0);
    }
}
