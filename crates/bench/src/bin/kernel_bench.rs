//! Per-kernel microbenchmarks for the vectorized tile hot path.
//!
//! The stream benches measure the whole service; this binary isolates the
//! SoA lane kernels the tile pipeline is built from — the per-tile axis
//! adjustment, the sRGB quantizer in both directions, and the Base+Delta
//! frame pack — and reports each one's pixel rate, so a regression in a
//! single kernel is visible without re-deriving it from end-to-end
//! numbers. Every row is measured [`REPEATS`] times in-process and
//! reports the median with the min/max across repeats. `--json PATH`
//! writes the same numbers as a `BENCH_*.json` artifact for cross-PR
//! trend tracking.

use pvc_bdc::{BdConfig, BdEncoder, BitWriter};
use pvc_bench::cli::{exit_with_usage, ArgSpec};
use pvc_bench::json::{object, write_json, Json};
use pvc_color::{
    linear_to_srgb8_slice, srgb8_to_linear_slice, DiscriminationEllipsoid, DiscriminationModel,
    LinearRgb, RgbAxis, Srgb8, SyntheticDiscriminationModel,
};
use pvc_core::{adjust_tile_with, AdjustScratch};
use pvc_frame::{Dimensions, SrgbFrame, SrgbTileLanes};
use std::hint::black_box;
use std::time::Instant;

/// In-process repeats per kernel row. A fixed count: enough for a median
/// and a spread, without a knob that would make rows incomparable.
const REPEATS: usize = 5;

/// One kernel's measurement: pixels processed per repeat and the wall time
/// of each of the [`REPEATS`] repeats.
struct KernelResult {
    kernel: &'static str,
    pixels: u64,
    wall_seconds: Vec<f64>,
}

impl KernelResult {
    /// `(median, min, max)` Mpx/s across the repeats.
    fn megapixels_per_second(&self) -> (f64, f64, f64) {
        let mut rates: Vec<f64> = self
            .wall_seconds
            .iter()
            .map(|&secs| {
                if secs > 0.0 {
                    self.pixels as f64 / 1e6 / secs
                } else {
                    0.0
                }
            })
            .collect();
        rates.sort_by(f64::total_cmp);
        (rates[rates.len() / 2], rates[0], rates[rates.len() - 1])
    }

    /// Median wall time of one repeat.
    fn median_seconds(&self) -> f64 {
        let mut secs = self.wall_seconds.clone();
        secs.sort_by(f64::total_cmp);
        secs[secs.len() / 2]
    }
}

/// Deterministic pseudo-random stream (SplitMix64), so every run benches
/// identical data.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform sample in `[0, 1)`.
fn unit_f64(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Times [`REPEATS`] batches of `iters` calls of `body`, which must return
/// a value that depends on the work so the optimizer cannot drop it.
/// Returns each batch's wall time.
fn time<T>(iters: u32, mut body: impl FnMut() -> T) -> Vec<f64> {
    // One untimed call warms caches and one-time tables (the sRGB LUTs
    // build on first use).
    black_box(body());
    (0..REPEATS)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..iters {
                black_box(body());
            }
            started.elapsed().as_secs_f64()
        })
        .collect()
}

/// sRGB quantization, linear lanes → 8-bit codes (three channel lanes per
/// pixel, as the gamma stage runs it).
fn bench_srgb_encode(pixels_per_iter: usize, iters: u32, seed: &mut u64) -> KernelResult {
    let lanes: Vec<Vec<f64>> = (0..3)
        .map(|_| (0..pixels_per_iter).map(|_| unit_f64(seed)).collect())
        .collect();
    let mut out = vec![0u8; pixels_per_iter];
    let wall_seconds = time(iters, || {
        let mut sum = 0u64;
        for lane in &lanes {
            linear_to_srgb8_slice(lane, &mut out);
            sum += u64::from(out[pixels_per_iter / 2]);
        }
        sum
    });
    KernelResult {
        kernel: "srgb_encode",
        pixels: pixels_per_iter as u64 * u64::from(iters),
        wall_seconds,
    }
}

/// sRGB expansion, 8-bit codes → linear lanes.
fn bench_srgb_decode(pixels_per_iter: usize, iters: u32, seed: &mut u64) -> KernelResult {
    let lanes: Vec<Vec<u8>> = (0..3)
        .map(|_| {
            (0..pixels_per_iter)
                .map(|_| (splitmix64(seed) & 0xff) as u8)
                .collect()
        })
        .collect();
    let mut out = vec![0.0f64; pixels_per_iter];
    let wall_seconds = time(iters, || {
        let mut sum = 0.0f64;
        for lane in &lanes {
            srgb8_to_linear_slice(lane, &mut out);
            sum += out[pixels_per_iter / 2];
        }
        sum
    });
    KernelResult {
        kernel: "srgb_decode",
        pixels: pixels_per_iter as u64 * u64::from(iters),
        wall_seconds,
    }
}

/// One synthetic tile: smooth colors with a deterministic jitter, the
/// shape the adjustment sees from rendered content.
fn synthetic_tile(pixels_per_tile: usize, seed: &mut u64) -> Vec<LinearRgb> {
    let base = LinearRgb::new(
        0.15 + 0.7 * unit_f64(seed),
        0.15 + 0.7 * unit_f64(seed),
        0.15 + 0.7 * unit_f64(seed),
    );
    (0..pixels_per_tile)
        .map(|_| {
            LinearRgb::new(
                (base.r + 0.02 * unit_f64(seed)).clamp(0.0, 1.0),
                (base.g + 0.02 * unit_f64(seed)).clamp(0.0, 1.0),
                (base.b + 0.02 * unit_f64(seed)).clamp(0.0, 1.0),
            )
        })
        .collect()
}

/// Per-tile discrimination-ellipsoid construction, the model call the
/// encoder makes for every tile (`DiscriminationModel::ellipsoids_into`);
/// not a lane kernel, but timed so the adjust stage's split is visible.
fn bench_ellipsoid_build(tiles: &[Vec<LinearRgb>], iters: u32) -> KernelResult {
    let model = SyntheticDiscriminationModel::default();
    let pixels_per_iter: usize = tiles.iter().map(Vec::len).sum();
    let mut ellipsoids = Vec::new();
    let wall_seconds = time(iters, || {
        let mut sum = 0.0f64;
        for tile in tiles {
            model.ellipsoids_into(tile, 12.0, &mut ellipsoids);
            sum += ellipsoids[0].axes().a;
        }
        sum
    });
    KernelResult {
        kernel: "ellipsoid_build",
        pixels: pixels_per_iter as u64 * u64::from(iters),
        wall_seconds,
    }
}

/// The per-tile axis adjustment (extrema, HL/LH reduction, lane moves and
/// Δ-bit costing over both candidate axes), with ellipsoids prebuilt.
fn bench_adjust_axis(
    tiles: &[Vec<LinearRgb>],
    ellipsoids: &[Vec<DiscriminationEllipsoid>],
    iters: u32,
) -> KernelResult {
    let pixels_per_iter: usize = tiles.iter().map(Vec::len).sum();
    let mut scratch = AdjustScratch::new();
    let wall_seconds = time(iters, || {
        let mut sum = 0u64;
        for (tile, tile_ellipsoids) in tiles.iter().zip(ellipsoids) {
            scratch.pixels.clear();
            scratch.pixels.extend_from_slice(tile);
            scratch.ellipsoids.clear();
            scratch.ellipsoids.extend_from_slice(tile_ellipsoids);
            let outcome = adjust_tile_with(&mut scratch, &RgbAxis::OPTIMIZED);
            sum += outcome.adjusted_cost;
        }
        sum
    });
    KernelResult {
        kernel: "adjust_axis",
        pixels: pixels_per_iter as u64 * u64::from(iters),
        wall_seconds,
    }
}

/// Whole-frame Base+Delta pack: SoA tile gather, per-channel range over
/// lanes, serial bit-write.
fn bench_bd_pack(dimensions: Dimensions, iters: u32, seed: &mut u64) -> KernelResult {
    let pixels: Vec<Srgb8> = (0..dimensions.pixel_count())
        .map(|_| {
            let v = splitmix64(seed);
            // Locally smooth values: BD's typical input.
            let base = (v & 0x3f) as u8 + 96;
            Srgb8::new(base, base.wrapping_add(((v >> 8) & 3) as u8), base / 2)
        })
        .collect();
    let frame = SrgbFrame::from_pixels(dimensions, pixels).expect("pixel count matches");
    let encoder = BdEncoder::new(BdConfig::default());
    let mut writer = BitWriter::new();
    let mut gather = SrgbTileLanes::new();
    let wall_seconds = time(iters, || {
        let stats = encoder.encode_frame_into(&frame, &mut writer, &mut gather);
        stats.compressed_bits
    });
    KernelResult {
        kernel: "bd_pack",
        pixels: dimensions.pixel_count() as u64 * u64::from(iters),
        wall_seconds,
    }
}

/// The whole stream-mode frame encode (adjust → gamma → BD pack) on one
/// rendered scene frame, with the per-stage split from the encoder's own
/// stage clocks. The end-to-end number the service benches see per shard,
/// minus queueing and rendering.
fn bench_stream_frame(dimensions: Dimensions, iters: u32) -> Vec<KernelResult> {
    use pvc_core::{EncoderConfig, PerceptualEncoder, StreamScratch};
    use pvc_fovea::{DisplayGeometry, EccentricityMap, GazePoint};
    use pvc_frame::TileGrid;
    use pvc_scenes::{SceneConfig, SceneId, SceneRenderer};

    let renderer = SceneRenderer::new(SceneId::Office, SceneConfig::new(dimensions));
    let frame = renderer.render_linear(0);
    let config = EncoderConfig::default();
    let display = DisplayGeometry::quest2_like(dimensions);
    let grid = TileGrid::new(dimensions, config.tile_size);
    let map = EccentricityMap::per_tile(
        &display,
        &grid,
        GazePoint::center_of(dimensions),
        config.fovea,
    );
    let encoder = PerceptualEncoder::new(SyntheticDiscriminationModel::default(), config);
    let mut scratch = StreamScratch::new();
    let mut out = Vec::new();
    let mut encode = || {
        let stats = encoder.encode_frame_stream_with_map_into(&frame, &map, &mut scratch, &mut out);
        (stats.compression.compressed_bits, scratch.last_timing())
    };
    // Untimed warmup, as in `time`; the stage clocks below then cover
    // exactly the timed calls of each repeat.
    black_box(encode());
    let mut wall_seconds = Vec::with_capacity(REPEATS);
    let mut stage_seconds: [Vec<f64>; 3] = Default::default();
    for _ in 0..REPEATS {
        let mut stage_nanos = [0u64; 3];
        let started = Instant::now();
        for _ in 0..iters {
            let (bits, timing) = encode();
            black_box(bits);
            stage_nanos[0] += timing.adjust;
            stage_nanos[1] += timing.gamma;
            stage_nanos[2] += timing.bd_encode;
        }
        wall_seconds.push(started.elapsed().as_secs_f64());
        for (seconds, nanos) in stage_seconds.iter_mut().zip(stage_nanos) {
            seconds.push(nanos as f64 * 1e-9);
        }
    }
    let pixels = dimensions.pixel_count() as u64 * u64::from(iters);
    let mut results = vec![KernelResult {
        kernel: "stream_frame",
        pixels,
        wall_seconds,
    }];
    for (kernel, wall_seconds) in ["stream_adjust", "stream_gamma", "stream_bd"]
        .into_iter()
        .zip(stage_seconds)
    {
        results.push(KernelResult {
            kernel,
            pixels,
            wall_seconds,
        });
    }
    results
}

fn main() {
    const SPEC: ArgSpec = ArgSpec {
        flags: &["--quick"],
        options: &["--json"],
    };
    let parsed = match SPEC.parse(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(err) => exit_with_usage(&err, "[--quick] [--json PATH]"),
    };
    let quick = parsed.has("--quick");
    let (srgb_iters, adjust_iters, pack_iters) = if quick { (40, 20, 20) } else { (400, 200, 200) };
    let srgb_pixels = 1 << 16;
    let tile_count = 1024;
    let pixels_per_tile = 16;
    let pack_dimensions = Dimensions::new(256, 256);

    let mut seed = 0x5eed_c0de_u64;
    let tiles: Vec<Vec<LinearRgb>> = (0..tile_count)
        .map(|_| synthetic_tile(pixels_per_tile, &mut seed))
        .collect();
    let model = SyntheticDiscriminationModel::default();
    let ellipsoids: Vec<Vec<DiscriminationEllipsoid>> = tiles
        .iter()
        .map(|tile| tile.iter().map(|&p| model.ellipsoid(p, 12.0)).collect())
        .collect();

    let mut results = vec![
        bench_adjust_axis(&tiles, &ellipsoids, adjust_iters),
        bench_ellipsoid_build(&tiles, adjust_iters),
        bench_srgb_encode(srgb_pixels, srgb_iters, &mut seed),
        bench_srgb_decode(srgb_pixels, srgb_iters, &mut seed),
        bench_bd_pack(pack_dimensions, pack_iters, &mut seed),
    ];
    results.extend(bench_stream_frame(
        Dimensions::new(96, 96),
        adjust_iters * 4,
    ));

    println!(
        "kernel_bench: {} mode, median of {REPEATS} repeats (min/max across them)",
        if quick { "quick" } else { "full" }
    );
    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "kernel", "Mpx", "secs", "Mpx/s", "min", "max"
    );
    for r in &results {
        let (median, min, max) = r.megapixels_per_second();
        println!(
            "{:<16} {:>10.2} {:>10.3} {:>10.2} {:>10.2} {:>10.2}",
            r.kernel,
            r.pixels as f64 / 1e6,
            r.median_seconds(),
            median,
            min,
            max
        );
    }

    if let Some(path) = parsed.value("--json") {
        let kernels: Vec<Json> = results
            .iter()
            .map(|r| {
                let (median, min, max) = r.megapixels_per_second();
                object([
                    ("kernel", r.kernel.into()),
                    ("pixels", r.pixels.into()),
                    ("wall_seconds", r.median_seconds().into()),
                    ("megapixels_per_second", median.into()),
                    ("megapixels_per_second_min", min.into()),
                    ("megapixels_per_second_max", max.into()),
                ])
            })
            .collect();
        let json = object([
            ("bench", "kernel_bench".into()),
            (
                "parameters",
                object([("quick", quick.into()), ("repeats", REPEATS.into())]),
            ),
            ("kernels", Json::Array(kernels)),
        ]);
        match write_json(std::path::Path::new(path), &json) {
            Ok(()) => println!("(json written to {path})"),
            Err(err) => {
                eprintln!("error: could not write json to {path}: {err}");
                std::process::exit(1);
            }
        }
    }
}
