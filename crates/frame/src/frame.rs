//! Owned frame buffers in sRGB and linear RGB.

use crate::tile::TileRect;
use pvc_color::{LinearRgb, Srgb8};

/// Width and height of a frame in pixels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dimensions {
    /// Width in pixels.
    pub width: u32,
    /// Height in pixels.
    pub height: u32,
}

impl Dimensions {
    /// The lowest rendering resolution of the Oculus Quest 2 referenced in
    /// the paper's power evaluation (Fig. 13).
    pub const QUEST2_LOW: Dimensions = Dimensions {
        width: 4128,
        height: 2096,
    };
    /// The highest rendering resolution of the Oculus Quest 2 (Fig. 13 and
    /// the CAU latency estimate of Sec. 6.1).
    pub const QUEST2_HIGH: Dimensions = Dimensions {
        width: 5408,
        height: 2736,
    };

    /// Creates a dimensions value.
    ///
    /// # Panics
    ///
    /// Panics if either extent is zero.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "frame dimensions must be non-zero");
        Dimensions { width, height }
    }

    /// Total number of pixels.
    #[inline]
    pub fn pixel_count(self) -> usize {
        self.width as usize * self.height as usize
    }

    /// Number of bytes of an uncompressed 24-bit frame of this size.
    #[inline]
    pub fn uncompressed_bytes(self) -> usize {
        self.pixel_count() * 3
    }

    /// True if the pixel coordinate lies inside the frame.
    #[inline]
    pub fn contains(self, x: u32, y: u32) -> bool {
        x < self.width && y < self.height
    }
}

impl std::fmt::Display for Dimensions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}", self.width, self.height)
    }
}

/// Errors produced by frame operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The supplied pixel buffer does not match the stated dimensions.
    SizeMismatch {
        /// Number of pixels implied by the dimensions.
        expected: usize,
        /// Number of pixels actually supplied.
        actual: usize,
    },
    /// Two frames that must have identical dimensions do not.
    DimensionMismatch {
        /// Dimensions of the first frame.
        left: Dimensions,
        /// Dimensions of the second frame.
        right: Dimensions,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::SizeMismatch { expected, actual } => {
                write!(
                    f,
                    "pixel buffer holds {actual} pixels but dimensions require {expected}"
                )
            }
            FrameError::DimensionMismatch { left, right } => {
                write!(f, "frame dimensions differ: {left} vs {right}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

macro_rules! impl_frame_common {
    ($name:ident, $pixel:ty, $doc_pixel:literal) => {
        impl $name {
            /// Creates a frame filled with a single pixel value.
            pub fn filled(dimensions: Dimensions, pixel: $pixel) -> Self {
                $name {
                    dimensions,
                    pixels: vec![pixel; dimensions.pixel_count()],
                }
            }

            /// Creates a frame from an existing pixel buffer in row-major order.
            ///
            /// # Errors
            ///
            /// Returns [`FrameError::SizeMismatch`] when the buffer length does
            /// not equal `width * height`.
            pub fn from_pixels(
                dimensions: Dimensions,
                pixels: Vec<$pixel>,
            ) -> Result<Self, FrameError> {
                if pixels.len() != dimensions.pixel_count() {
                    return Err(FrameError::SizeMismatch {
                        expected: dimensions.pixel_count(),
                        actual: pixels.len(),
                    });
                }
                Ok($name { dimensions, pixels })
            }

            /// Frame dimensions.
            #[inline]
            pub fn dimensions(&self) -> Dimensions {
                self.dimensions
            }

            /// Frame width in pixels.
            #[inline]
            pub fn width(&self) -> u32 {
                self.dimensions.width
            }

            /// Frame height in pixels.
            #[inline]
            pub fn height(&self) -> u32 {
                self.dimensions.height
            }

            /// The row-major pixel buffer.
            #[inline]
            pub fn pixels(&self) -> &[$pixel] {
                &self.pixels
            }

            /// Mutable access to the row-major pixel buffer.
            #[inline]
            pub fn pixels_mut(&mut self) -> &mut [$pixel] {
                &mut self.pixels
            }

            #[doc = concat!("Returns the ", $doc_pixel, " at `(x, y)`.")]
            ///
            /// # Panics
            ///
            /// Panics if the coordinate is outside the frame.
            #[inline]
            pub fn pixel(&self, x: u32, y: u32) -> $pixel {
                assert!(
                    self.dimensions.contains(x, y),
                    "pixel ({x}, {y}) out of bounds"
                );
                self.pixels[y as usize * self.dimensions.width as usize + x as usize]
            }

            #[doc = concat!("Sets the ", $doc_pixel, " at `(x, y)`.")]
            ///
            /// # Panics
            ///
            /// Panics if the coordinate is outside the frame.
            #[inline]
            pub fn set_pixel(&mut self, x: u32, y: u32, value: $pixel) {
                assert!(
                    self.dimensions.contains(x, y),
                    "pixel ({x}, {y}) out of bounds"
                );
                self.pixels[y as usize * self.dimensions.width as usize + x as usize] = value;
            }

            /// Extracts the pixels of a tile in row-major order.
            ///
            /// Allocates a fresh buffer per call; hot loops should prefer
            /// [`Self::tile_pixels_into`] with a reused buffer.
            ///
            /// # Panics
            ///
            /// Panics if the tile extends outside the frame.
            pub fn tile_pixels(&self, tile: TileRect) -> Vec<$pixel> {
                let mut out = Vec::new();
                self.tile_pixels_into(tile, &mut out);
                out
            }

            /// Extracts the pixels of a tile in row-major order into a
            /// caller-provided buffer, clearing it first.
            ///
            /// The buffer's capacity is reused across calls, so a tile loop
            /// that recycles one buffer performs no steady-state allocation
            /// — the hot-path twin of [`Self::tile_pixels`]. The contents
            /// are exactly what `tile_pixels` returns, including clipped
            /// edge tiles.
            ///
            /// # Panics
            ///
            /// Panics if the tile extends outside the frame.
            pub fn tile_pixels_into(&self, tile: TileRect, out: &mut Vec<$pixel>) {
                out.clear();
                out.reserve(tile.pixel_count());
                self.for_each_tile_row(tile, |row| out.extend_from_slice(row));
            }

            /// Visits each row of a tile as a contiguous pixel slice.
            ///
            /// Shared row-walk behind the AoS and SoA tile gathers, so both
            /// traverse pixels in the identical row-major order.
            pub(crate) fn for_each_tile_row(
                &self,
                tile: TileRect,
                mut visit: impl FnMut(&[$pixel]),
            ) {
                assert!(
                    tile.x + tile.width <= self.dimensions.width
                        && tile.y + tile.height <= self.dimensions.height,
                    "tile extends outside the frame"
                );
                let width = self.dimensions.width as usize;
                for dy in 0..tile.height as usize {
                    let row_start = (tile.y as usize + dy) * width + tile.x as usize;
                    visit(&self.pixels[row_start..row_start + tile.width as usize]);
                }
            }

            /// Resets the frame to the given dimensions with every pixel set
            /// to `fill`, reusing the existing pixel buffer's capacity.
            pub fn reset(&mut self, dimensions: Dimensions, fill: $pixel) {
                self.dimensions = dimensions;
                self.pixels.clear();
                self.pixels.resize(dimensions.pixel_count(), fill);
            }

            /// Writes a tile's pixels (row-major, as produced by
            /// [`Self::tile_pixels`]) back into the frame.
            ///
            /// # Panics
            ///
            /// Panics if the tile extends outside the frame or the pixel count
            /// does not match the tile area.
            pub fn write_tile(&mut self, tile: TileRect, pixels: &[$pixel]) {
                assert_eq!(
                    pixels.len(),
                    (tile.width * tile.height) as usize,
                    "tile pixel count mismatch"
                );
                let mut it = pixels.iter();
                for dy in 0..tile.height {
                    for dx in 0..tile.width {
                        self.set_pixel(tile.x + dx, tile.y + dy, *it.next().expect("sized above"));
                    }
                }
            }
        }
    };
}

/// A frame stored in the 8-bit sRGB encoding (what the framebuffer holds).
#[derive(Debug, PartialEq, Eq)]
pub struct SrgbFrame {
    dimensions: Dimensions,
    pixels: Vec<Srgb8>,
}

/// `clone_from` reuses the destination's pixel buffer (no allocation once
/// its capacity covers the source), so per-frame outputs can be recycled
/// across a stream.
impl Clone for SrgbFrame {
    fn clone(&self) -> Self {
        SrgbFrame {
            dimensions: self.dimensions,
            pixels: self.pixels.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.dimensions = source.dimensions;
        self.pixels.clone_from(&source.pixels);
    }
}

impl_frame_common!(SrgbFrame, Srgb8, "sRGB pixel");

impl SrgbFrame {
    /// Expands the frame into the linear RGB working space (what the GPU
    /// produced before gamma encoding).
    pub fn to_linear(&self) -> LinearFrame {
        LinearFrame {
            dimensions: self.dimensions,
            pixels: self.pixels.iter().map(|p| p.to_linear()).collect(),
        }
    }

    /// Number of bytes of the frame when stored uncompressed (24 bpp).
    pub fn uncompressed_bytes(&self) -> usize {
        self.dimensions.uncompressed_bytes()
    }
}

/// A frame stored in linear RGB (the space where color adjustment happens).
#[derive(Debug, PartialEq)]
pub struct LinearFrame {
    dimensions: Dimensions,
    pixels: Vec<LinearRgb>,
}

/// `clone_from` reuses the destination's pixel buffer (no allocation once
/// its capacity covers the source), so the encoder's adjusted-frame
/// scratch can be recycled across a stream.
impl Clone for LinearFrame {
    fn clone(&self) -> Self {
        LinearFrame {
            dimensions: self.dimensions,
            pixels: self.pixels.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.dimensions = source.dimensions;
        self.pixels.clone_from(&source.pixels);
    }
}

impl_frame_common!(LinearFrame, LinearRgb, "linear RGB pixel");

impl LinearFrame {
    /// Gamma-encodes and quantizes the frame into 8-bit sRGB.
    pub fn to_srgb(&self) -> SrgbFrame {
        SrgbFrame {
            dimensions: self.dimensions,
            pixels: self.pixels.iter().map(|p| p.to_srgb8()).collect(),
        }
    }

    /// Gamma-encodes into a caller-provided sRGB frame, reusing its pixel
    /// buffer. Produces exactly [`Self::to_srgb`]'s result without the
    /// per-frame allocation.
    ///
    /// The conversion transposes fixed-size pixel blocks into per-channel
    /// lanes on the stack and quantizes them with the vectorized
    /// [`pvc_color::linear_to_srgb8_slice`] kernel, which is bit-identical to the
    /// per-pixel [`LinearRgb::to_srgb8`] path.
    pub fn to_srgb_into(&self, out: &mut SrgbFrame) {
        use pvc_color::{lanes::LANE_WIDTH, linear_to_srgb8_slice};

        const BLOCK: usize = 4 * LANE_WIDTH;
        out.dimensions = self.dimensions;
        out.pixels.clear();
        out.pixels.resize(self.pixels.len(), Srgb8::default());
        let mut r = [0.0f64; BLOCK];
        let mut g = [0.0f64; BLOCK];
        let mut b = [0.0f64; BLOCK];
        let mut cr = [0u8; BLOCK];
        let mut cg = [0u8; BLOCK];
        let mut cb = [0u8; BLOCK];
        for (src, dst) in self.pixels.chunks(BLOCK).zip(out.pixels.chunks_mut(BLOCK)) {
            let n = src.len();
            for (i, p) in src.iter().enumerate() {
                r[i] = p.r;
                g[i] = p.g;
                b[i] = p.b;
            }
            linear_to_srgb8_slice(&r[..n], &mut cr[..n]);
            linear_to_srgb8_slice(&g[..n], &mut cg[..n]);
            linear_to_srgb8_slice(&b[..n], &mut cb[..n]);
            for (i, q) in dst.iter_mut().enumerate() {
                *q = Srgb8::new(cr[i], cg[i], cb[i]);
            }
        }
    }

    /// Clamps every pixel into the `[0, 1]` gamut.
    pub fn clamp_in_place(&mut self) {
        for p in &mut self.pixels {
            *p = p.clamped();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tile::TileGrid;

    #[test]
    fn dimensions_pixel_count_and_bytes() {
        let d = Dimensions::new(4, 3);
        assert_eq!(d.pixel_count(), 12);
        assert_eq!(d.uncompressed_bytes(), 36);
        assert_eq!(d.to_string(), "4x3");
    }

    #[test]
    #[should_panic]
    fn zero_dimensions_panic() {
        let _ = Dimensions::new(0, 7);
    }

    #[test]
    fn quest2_resolutions_match_paper() {
        assert_eq!(Dimensions::QUEST2_LOW.to_string(), "4128x2096");
        assert_eq!(Dimensions::QUEST2_HIGH.to_string(), "5408x2736");
    }

    #[test]
    fn from_pixels_validates_length() {
        let d = Dimensions::new(2, 2);
        let err = SrgbFrame::from_pixels(d, vec![Srgb8::default(); 3]).unwrap_err();
        assert_eq!(
            err,
            FrameError::SizeMismatch {
                expected: 4,
                actual: 3
            }
        );
        assert!(err.to_string().contains("pixels"));
        assert!(SrgbFrame::from_pixels(d, vec![Srgb8::default(); 4]).is_ok());
    }

    #[test]
    fn pixel_get_set_roundtrip() {
        let mut f = SrgbFrame::filled(Dimensions::new(3, 2), Srgb8::new(0, 0, 0));
        f.set_pixel(2, 1, Srgb8::new(9, 8, 7));
        assert_eq!(f.pixel(2, 1), Srgb8::new(9, 8, 7));
        assert_eq!(f.pixel(0, 0), Srgb8::new(0, 0, 0));
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_pixel_panics() {
        let f = SrgbFrame::filled(Dimensions::new(3, 2), Srgb8::default());
        let _ = f.pixel(3, 0);
    }

    #[test]
    fn tile_extraction_and_write_back() {
        let d = Dimensions::new(8, 8);
        let mut f = SrgbFrame::filled(d, Srgb8::new(1, 1, 1));
        let grid = TileGrid::new(d, 4);
        let tile = grid.tiles().nth(3).unwrap();
        let mut pixels = f.tile_pixels(tile);
        assert_eq!(pixels.len(), 16);
        for p in &mut pixels {
            *p = Srgb8::new(200, 100, 50);
        }
        f.write_tile(tile, &pixels);
        assert_eq!(f.pixel(tile.x, tile.y), Srgb8::new(200, 100, 50));
        assert_eq!(f.pixel(0, 0), Srgb8::new(1, 1, 1));
    }

    #[test]
    fn linear_srgb_frame_roundtrip_via_codes() {
        let d = Dimensions::new(4, 4);
        let mut f = SrgbFrame::filled(d, Srgb8::new(0, 0, 0));
        for (i, p) in f.pixels_mut().iter_mut().enumerate() {
            *p = Srgb8::new(
                (i * 13 % 256) as u8,
                (i * 29 % 256) as u8,
                (i * 7 % 256) as u8,
            );
        }
        let roundtrip = f.to_linear().to_srgb();
        assert_eq!(roundtrip, f);
    }

    #[test]
    fn tile_pixels_into_matches_tile_pixels_and_reuses_capacity() {
        let d = Dimensions::new(13, 9);
        let mut f = SrgbFrame::filled(d, Srgb8::default());
        for (i, p) in f.pixels_mut().iter_mut().enumerate() {
            *p = Srgb8::new((i % 251) as u8, (i % 13) as u8, (i % 7) as u8);
        }
        let grid = TileGrid::new(d, 4);
        let mut buffer = Vec::new();
        for tile in grid.tiles() {
            f.tile_pixels_into(tile, &mut buffer);
            assert_eq!(buffer, f.tile_pixels(tile));
        }
        // The buffer has seen the largest tile; further extractions must
        // not grow it.
        let capacity = buffer.capacity();
        for tile in grid.tiles() {
            f.tile_pixels_into(tile, &mut buffer);
        }
        assert_eq!(buffer.capacity(), capacity);
    }

    #[test]
    #[should_panic(expected = "tile extends outside the frame")]
    fn tile_pixels_into_rejects_out_of_bounds_tiles() {
        let f = SrgbFrame::filled(Dimensions::new(8, 8), Srgb8::default());
        let mut buffer = Vec::new();
        f.tile_pixels_into(
            TileRect {
                x: 6,
                y: 0,
                width: 4,
                height: 4,
            },
            &mut buffer,
        );
    }

    #[test]
    fn clone_from_reuses_the_pixel_buffer() {
        let big = LinearFrame::filled(Dimensions::new(16, 16), LinearRgb::new(0.1, 0.2, 0.3));
        let small = LinearFrame::filled(Dimensions::new(4, 4), LinearRgb::new(0.9, 0.8, 0.7));
        let mut target = big.clone();
        let capacity = target.pixels.capacity();
        target.clone_from(&small);
        assert_eq!(target, small);
        assert_eq!(target.dimensions(), small.dimensions());
        // Shrinking keeps the old capacity; growing back needs none either.
        assert_eq!(target.pixels.capacity(), capacity);
        target.clone_from(&big);
        assert_eq!(target, big);
        assert_eq!(target.pixels.capacity(), capacity);
    }

    #[test]
    fn reset_resizes_and_fills() {
        let mut f = SrgbFrame::filled(Dimensions::new(2, 2), Srgb8::new(1, 2, 3));
        f.reset(Dimensions::new(3, 2), Srgb8::new(9, 9, 9));
        assert_eq!(f.dimensions(), Dimensions::new(3, 2));
        assert!(f.pixels().iter().all(|&p| p == Srgb8::new(9, 9, 9)));
    }

    #[test]
    fn to_srgb_into_matches_to_srgb() {
        let d = Dimensions::new(5, 3);
        let mut f = LinearFrame::filled(d, LinearRgb::BLACK);
        for (i, p) in f.pixels_mut().iter_mut().enumerate() {
            let t = i as f64 / 14.0;
            *p = LinearRgb::new(t, 1.0 - t, 0.5 * t);
        }
        let mut out = SrgbFrame::filled(Dimensions::new(1, 1), Srgb8::default());
        f.to_srgb_into(&mut out);
        assert_eq!(out, f.to_srgb());
    }

    #[test]
    fn clamp_in_place_restores_gamut() {
        let d = Dimensions::new(2, 1);
        let mut f = LinearFrame::from_pixels(
            d,
            vec![
                LinearRgb::new(-0.2, 0.5, 1.4),
                LinearRgb::new(0.1, 0.2, 0.3),
            ],
        )
        .unwrap();
        f.clamp_in_place();
        assert!(f.pixel(0, 0).in_gamut(0.0));
        assert_eq!(f.pixel(1, 0), LinearRgb::new(0.1, 0.2, 0.3));
    }
}
