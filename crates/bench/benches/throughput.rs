//! Criterion throughput benchmarks of the encoder and its building blocks.
//!
//! These measure the software cost of the operations the paper accelerates
//! in hardware: per-tile color adjustment (what one CAU PE does; the lane
//! kernel next to its scalar reference), full-frame
//! perceptual encoding, plain BD encoding, and the discrimination-model
//! evaluation (what the GPU's RBF shader does).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pvc_bdc::{BdConfig, BdEncoder};
use pvc_color::{
    DiscriminationModel, LinearRgb, RbfConfig, RbfDiscriminationModel, RgbAxis,
    SyntheticDiscriminationModel,
};
use pvc_core::adjust::reference::adjust_tile;
use pvc_core::{adjust_tile_with, AdjustScratch, EncoderConfig, PerceptualEncoder};
use pvc_fovea::{DisplayGeometry, GazePoint};
use pvc_frame::Dimensions;
use pvc_scenes::{SceneConfig, SceneId, SceneRenderer};

fn bench_tile_adjustment(c: &mut Criterion) {
    let model = SyntheticDiscriminationModel::default();
    let pixels: Vec<LinearRgb> = (0..16)
        .map(|i| {
            let t = f64::from(i) / 15.0;
            LinearRgb::new(0.4 + 0.02 * t, 0.5 + 0.015 * t, 0.3 + 0.03 * t)
        })
        .collect();
    let ellipsoids: Vec<_> = pixels.iter().map(|&p| model.ellipsoid(p, 25.0)).collect();
    c.bench_function("tile_adjustment_4x4_scalar_reference", |b| {
        b.iter(|| adjust_tile(&pixels, &ellipsoids, &RgbAxis::OPTIMIZED))
    });
    // The lane kernel the encoder runs, through a warm reused scratch.
    let mut scratch = AdjustScratch::new();
    scratch.pixels.extend_from_slice(&pixels);
    scratch.ellipsoids.extend_from_slice(&ellipsoids);
    c.bench_function("tile_adjustment_4x4_lanes", |b| {
        b.iter(|| adjust_tile_with(&mut scratch, &RgbAxis::OPTIMIZED))
    });
}

fn bench_discrimination_models(c: &mut Criterion) {
    let synthetic = SyntheticDiscriminationModel::default();
    let rbf = RbfDiscriminationModel::fit_to(&synthetic, RbfConfig::default()).expect("fit");
    let color = LinearRgb::new(0.4, 0.5, 0.3);
    c.bench_function("phi_synthetic", |b| {
        b.iter(|| synthetic.ellipsoid_axes(color, 22.0))
    });
    c.bench_function("phi_rbf_network", |b| {
        b.iter(|| rbf.ellipsoid_axes(color, 22.0))
    });
}

fn bench_frame_encoders(c: &mut Criterion) {
    let dims = Dimensions::new(192, 192);
    let frame = SceneRenderer::new(SceneId::Office, SceneConfig::new(dims)).render_linear(0);
    let srgb = frame.to_srgb();
    let display = DisplayGeometry::quest2_like(dims);
    let gaze = GazePoint::center_of(dims);
    let encoder = PerceptualEncoder::new(
        SyntheticDiscriminationModel::default(),
        EncoderConfig::default(),
    );
    let parallel = PerceptualEncoder::new(
        SyntheticDiscriminationModel::default(),
        EncoderConfig::default().with_threads(4),
    );
    let bd = BdEncoder::new(BdConfig::default());

    let mut group = c.benchmark_group("frame_192x192");
    group.sample_size(10);
    group.bench_function("ours_adjust_only", |b| {
        b.iter(|| encoder.adjust_frame(&frame, &display, gaze))
    });
    group.bench_function("ours_adjust_4_threads", |b| {
        b.iter(|| parallel.adjust_frame(&frame, &display, gaze))
    });
    group.bench_function("ours_full_pipeline", |b| {
        b.iter(|| encoder.encode_frame(&frame, &display, gaze))
    });
    group.bench_function("bd_baseline", |b| b.iter(|| bd.encode_frame(&srgb)));
    group.bench_function("bd_decode", |b| {
        b.iter_batched(
            || bd.encode_frame(&srgb),
            |e| e.decode(),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(
    throughput,
    bench_tile_adjustment,
    bench_discrimination_models,
    bench_frame_encoders
);
criterion_main!(throughput);
