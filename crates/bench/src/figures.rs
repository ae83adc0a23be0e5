//! Generators for every table and figure of the paper's evaluation.

use crate::harness::{measure_all_scenes, ExperimentConfig, SceneMeasurement};
use crate::report::{format_table, write_csv};
use pvc_baselines::{SccCodec, SccConfig};
use pvc_color::{DiscriminationModel, LinearRgb, RgbAxis, SyntheticDiscriminationModel};
use pvc_core::PerceptualEncoder;
use pvc_fovea::{DisplayGeometry, EccentricityMap, GazePoint};
use pvc_frame::TileGrid;
use pvc_hw::{CauModel, GpuConfig, PowerModel};
use pvc_metrics::SampleSummary;
use pvc_scenes::{SceneConfig, SceneId, SceneRenderer};
use pvc_study::{SceneTrial, StudyConfig, UserStudy};

/// A regenerated table or figure: a name, a column header and data rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Figure {
    /// Identifier used for the CSV file name (e.g. `fig10_bandwidth`).
    pub name: String,
    /// Human-readable title.
    pub title: String,
    /// Column names.
    pub header: Vec<String>,
    /// Data rows (already formatted as strings).
    pub rows: Vec<Vec<String>>,
}

impl Figure {
    /// Renders the figure as an aligned text table.
    pub fn to_table(&self) -> String {
        let header: Vec<&str> = self.header.iter().map(String::as_str).collect();
        format!("{}\n{}", self.title, format_table(&header, &self.rows))
    }

    /// Writes the figure as CSV under `target/figures/` and returns the path.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the filesystem.
    pub fn write_csv(&self) -> std::io::Result<std::path::PathBuf> {
        let header: Vec<&str> = self.header.iter().map(String::as_str).collect();
        write_csv(&self.name, &header, &self.rows)
    }
}

fn fmt(v: f64) -> String {
    format!("{v:.2}")
}

/// Fig. 10: bandwidth reduction of our scheme over each baseline, per scene.
pub fn fig10_bandwidth(measurements: &[SceneMeasurement]) -> Figure {
    let rows = measurements
        .iter()
        .map(|m| {
            let vs = |other: Option<&pvc_bdc::CompressionStats>| match other {
                Some(o) => fmt(m.ours.reduction_over(o)),
                None => "n/a".to_string(),
            };
            vec![
                m.scene.name().to_string(),
                fmt(m.reduction_over_nocom()),
                vs(m.scc.as_ref()),
                fmt(m.reduction_over_bd()),
                vs(m.png.as_ref()),
            ]
        })
        .collect();
    Figure {
        name: "fig10_bandwidth".to_string(),
        title: "Fig. 10 — bandwidth reduction of our encoding over each baseline (%)".to_string(),
        header: vec!["scene", "vs NoCom", "vs SCC", "vs BD", "vs PNG"]
            .into_iter()
            .map(String::from)
            .collect(),
        rows,
    }
}

/// Fig. 11: bits per pixel split into base / metadata / delta, BD vs ours.
pub fn fig11_bits_per_pixel(measurements: &[SceneMeasurement]) -> Figure {
    let rows = measurements
        .iter()
        .map(|m| {
            let (bd_base, bd_meta, bd_delta) =
                m.bd.breakdown.bits_per_pixel_split(m.bd.pixel_count);
            let (our_base, our_meta, our_delta) =
                m.ours.breakdown.bits_per_pixel_split(m.ours.pixel_count);
            vec![
                m.scene.name().to_string(),
                fmt(bd_base),
                fmt(bd_meta),
                fmt(bd_delta),
                fmt(m.bd.bits_per_pixel()),
                fmt(our_base),
                fmt(our_meta),
                fmt(our_delta),
                fmt(m.ours.bits_per_pixel()),
            ]
        })
        .collect();
    Figure {
        name: "fig11_bits_per_pixel".to_string(),
        title: "Fig. 11 — bits per pixel split into base/metadata/delta (BD vs ours)".to_string(),
        header: vec![
            "scene",
            "bd_base",
            "bd_meta",
            "bd_delta",
            "bd_total",
            "ours_base",
            "ours_meta",
            "ours_delta",
            "ours_total",
        ]
        .into_iter()
        .map(String::from)
        .collect(),
        rows,
    }
}

/// Fig. 12: distribution of adjusted tiles across the two geometric cases.
pub fn fig12_case_distribution(measurements: &[SceneMeasurement]) -> Figure {
    let mut rows: Vec<Vec<String>> = measurements
        .iter()
        .map(|m| {
            vec![
                m.scene.name().to_string(),
                fmt(m.cases.case1_percent()),
                fmt(m.cases.case2_percent()),
            ]
        })
        .collect();
    let total_c1: usize = measurements.iter().map(|m| m.cases.case1_tiles).sum();
    let total_c2: usize = measurements.iter().map(|m| m.cases.case2_tiles).sum();
    let total = (total_c1 + total_c2).max(1);
    rows.push(vec![
        "average".to_string(),
        fmt(total_c1 as f64 / total as f64 * 100.0),
        fmt(total_c2 as f64 / total as f64 * 100.0),
    ]);
    Figure {
        name: "fig12_case_distribution".to_string(),
        title: "Fig. 12 — distribution of tiles across case c1 / c2 (%)".to_string(),
        header: vec!["scene", "c1", "c2"]
            .into_iter()
            .map(String::from)
            .collect(),
        rows,
    }
}

/// Fig. 13: power saving over BD across Quest 2 resolutions and rates.
pub fn fig13_power_saving(measurements: &[SceneMeasurement]) -> Figure {
    // Average the per-scene bits-per-pixel, as the paper aggregates scenes.
    let avg = |f: &dyn Fn(&SceneMeasurement) -> f64| {
        measurements.iter().map(f).sum::<f64>() / measurements.len().max(1) as f64
    };
    let bd_bpp = avg(&|m| m.bd.bits_per_pixel());
    let ours_bpp = avg(&|m| m.ours.bits_per_pixel());
    let to_stats = |bpp: f64| {
        pvc_bdc::CompressionStats::from_breakdown(
            1_000_000,
            pvc_bdc::SizeBreakdown {
                base_bits: 0,
                metadata_bits: 0,
                delta_bits: (bpp * 1_000_000.0) as u64,
            },
        )
    };
    let model = PowerModel::default();
    let rows = model
        .quest2_sweep(&to_stats(bd_bpp), &to_stats(ours_bpp))
        .into_iter()
        .map(|b| {
            vec![
                b.dimensions.to_string(),
                format!("{}", b.fps),
                fmt(b.baseline_dram_mw),
                fmt(b.ours_dram_mw),
                fmt(b.cau_overhead_mw),
                format!("{:.3}", b.net_saving_w()),
            ]
        })
        .collect();
    Figure {
        name: "fig13_power_saving".to_string(),
        title: format!(
            "Fig. 13 — power saving over BD (avg BD {bd_bpp:.2} bpp, ours {ours_bpp:.2} bpp)"
        ),
        header: vec![
            "resolution",
            "fps",
            "bd_dram_mw",
            "ours_dram_mw",
            "cau_mw",
            "saving_w",
        ]
        .into_iter()
        .map(String::from)
        .collect(),
        rows,
    }
}

/// Fig. 14: number of simulated participants who did not notice artifacts.
pub fn fig14_user_study(config: &ExperimentConfig, study_config: StudyConfig) -> Figure {
    let model = SyntheticDiscriminationModel::default();
    let encoder = PerceptualEncoder::new(model, config.encoder.clone());
    let display = DisplayGeometry::quest2_like(config.dimensions);
    let gaze = GazePoint::center_of(config.dimensions);
    let grid = TileGrid::new(config.dimensions, config.encoder.tile_size);
    let map = EccentricityMap::per_tile(&display, &grid, gaze, config.encoder.fovea);

    let trials: Vec<SceneTrial> = SceneId::ALL
        .iter()
        .map(|&scene| {
            let frame =
                SceneRenderer::new(scene, SceneConfig::new(config.dimensions)).render_linear(0);
            let (adjusted, _) = encoder.adjust_frame(&frame, &display, gaze);
            SceneTrial::from_frames(scene.name(), &frame, &adjusted, &map, &model)
        })
        .collect();
    let study = UserStudy::new(study_config);
    let outcome = study.run(&trials);
    let mut rows: Vec<Vec<String>> = outcome
        .scenes
        .iter()
        .map(|s| {
            vec![
                s.scene_name.clone(),
                s.did_not_notice.to_string(),
                s.noticed.to_string(),
                format!("{:.4}", s.mean_visible_fraction),
            ]
        })
        .collect();
    rows.push(vec![
        "mean noticed".to_string(),
        String::new(),
        fmt(outcome.mean_noticed()),
        fmt(outcome.std_dev_noticed()),
    ]);
    Figure {
        name: "fig14_user_study".to_string(),
        title: format!(
            "Fig. 14 — simulated study: participants (of {}) not noticing artifacts",
            outcome.observers
        ),
        header: vec!["scene", "did_not_notice", "noticed", "visible_fraction"]
            .into_iter()
            .map(String::from)
            .collect(),
        rows,
    }
}

/// Fig. 15: bandwidth reduction over NoCom for BD and for our scheme at
/// different tile sizes.
pub fn fig15_tile_size(config: &ExperimentConfig, tile_sizes: &[u32]) -> Figure {
    let bd_reference = measure_all_scenes(config);
    let mut per_scene: Vec<Vec<String>> = SceneId::ALL
        .iter()
        .zip(&bd_reference)
        .map(|(scene, m)| {
            vec![
                scene.name().to_string(),
                fmt(m.bd.bandwidth_reduction_percent()),
            ]
        })
        .collect();
    for &tile in tile_sizes {
        let sweep_config = ExperimentConfig {
            include_offline_baselines: false,
            ..config.clone()
        }
        .with_tile_size(tile);
        let measurements = measure_all_scenes(&sweep_config);
        for (row, m) in per_scene.iter_mut().zip(&measurements) {
            row.push(fmt(m.reduction_over_nocom()));
        }
    }
    let mut header = vec!["scene".to_string(), "BD(T4)".to_string()];
    header.extend(tile_sizes.iter().map(|t| format!("T{t}")));
    Figure {
        name: "fig15_tile_size".to_string(),
        title: "Fig. 15 — bandwidth reduction over NoCom vs tile size (%)".to_string(),
        header,
        rows: per_scene,
    }
}

/// Fig. 2: discrimination ellipsoid growth between 5° and 25° eccentricity
/// for 27 colors uniformly sampled in [0.2, 0.8]³.
pub fn fig2_ellipsoids() -> Figure {
    let model = SyntheticDiscriminationModel::default();
    let mut rows = Vec::new();
    for &r in &[0.2, 0.5, 0.8] {
        for &g in &[0.2, 0.5, 0.8] {
            for &b in &[0.2, 0.5, 0.8] {
                let color = LinearRgb::new(r, g, b);
                for &ecc in &[5.0, 25.0] {
                    let e = model.ellipsoid(color, ecc);
                    let axes = e.axes();
                    rows.push(vec![
                        format!("({r:.1},{g:.1},{b:.1})"),
                        format!("{ecc}"),
                        format!("{:.5}", axes.a),
                        format!("{:.5}", axes.b),
                        format!("{:.5}", axes.c),
                        format!("{:.4}", e.half_extent_along_axis(RgbAxis::Red)),
                        format!("{:.4}", e.half_extent_along_axis(RgbAxis::Green)),
                        format!("{:.4}", e.half_extent_along_axis(RgbAxis::Blue)),
                    ]);
                }
            }
        }
    }
    Figure {
        name: "fig2_ellipsoids".to_string(),
        title:
            "Fig. 2 — discrimination ellipsoids at 5° and 25° (DKL semi-axes and RGB half-extents)"
                .to_string(),
        header: vec!["color", "ecc", "a", "b", "c", "ext_r", "ext_g", "ext_b"]
            .into_iter()
            .map(String::from)
            .collect(),
        rows,
    }
}

/// Sec. 6.1 numbers: CAU latency, area and power.
pub fn tab_area_power() -> Figure {
    let cau = CauModel::default();
    let gpu = GpuConfig::default();
    let rows = vec![
        vec!["CAU frequency (MHz)".to_string(), fmt(cau.frequency_mhz())],
        vec![
            "PEs required to match GPU".to_string(),
            cau.required_pe_count(&gpu).to_string(),
        ],
        vec![
            "Frame latency @5408x2736 (us)".to_string(),
            fmt(cau.frame_latency_us(pvc_frame::Dimensions::QUEST2_HIGH)),
        ],
        vec![
            "Frame latency @4128x2096 (us)".to_string(),
            fmt(cau.frame_latency_us(pvc_frame::Dimensions::QUEST2_LOW)),
        ],
        vec![
            "Total area (mm^2)".to_string(),
            format!("{:.3}", cau.total_area_mm2()),
        ],
        vec![
            "Area fraction of Snapdragon 865".to_string(),
            format!("{:.4}", cau.area_fraction_of_soc(83.54)),
        ],
        vec![
            "Total power (mW)".to_string(),
            format!("{:.4}", cau.total_power_mw()),
        ],
    ];
    Figure {
        name: "tab_area_power".to_string(),
        title: "Sec. 6.1 — CAU performance, area and power".to_string(),
        header: vec!["quantity", "value"]
            .into_iter()
            .map(String::from)
            .collect(),
        rows,
    }
}

/// Sec. 6.3 objective quality: PSNR of the adjusted frames per scene.
pub fn tab_psnr(measurements: &[SceneMeasurement]) -> Figure {
    let mut rows: Vec<Vec<String>> = measurements
        .iter()
        .map(|m| {
            vec![
                m.scene.name().to_string(),
                fmt(m.quality.psnr_db),
                fmt(m.quality.mse),
                m.quality.max_abs_error.to_string(),
                format!("{:.4}", m.quality.changed_pixel_fraction),
            ]
        })
        .collect();
    let psnrs: Vec<f64> = measurements.iter().map(|m| m.quality.psnr_db).collect();
    let summary = SampleSummary::of(&psnrs);
    rows.push(vec![
        "mean/std".to_string(),
        fmt(summary.mean),
        fmt(summary.std_dev),
        String::new(),
        String::new(),
    ]);
    Figure {
        name: "tab_psnr".to_string(),
        title: "Sec. 6.3 — objective quality (PSNR in dB) of adjusted frames".to_string(),
        header: vec!["scene", "psnr_db", "mse", "max_err", "changed_frac"]
            .into_iter()
            .map(String::from)
            .collect(),
        rows,
    }
}

/// Ablation table (`docs/ARCHITECTURE.md`, "Substitutions"): contribution of the axis choice, the foveal
/// bypass and the model scale, averaged over all six scenes.
pub fn tab_ablation(config: &ExperimentConfig) -> Figure {
    use pvc_core::{run_ablation, AblationVariant};
    let variants = AblationVariant::standard_set();
    let display = DisplayGeometry::quest2_like(config.dimensions);
    let gaze = GazePoint::center_of(config.dimensions);
    let mut bpp_sums = vec![0.0; variants.len()];
    let mut bd_red_sums = vec![0.0; variants.len()];
    let mut foveal_sums = vec![0.0; variants.len()];
    for scene in SceneId::ALL {
        let frame = SceneRenderer::new(scene, SceneConfig::new(config.dimensions)).render_linear(0);
        let results = run_ablation(&frame, &display, gaze, &config.encoder, &variants);
        for (i, r) in results.iter().enumerate() {
            bpp_sums[i] += r.bits_per_pixel;
            bd_red_sums[i] += r.reduction_over_bd;
            foveal_sums[i] += r.foveal_tile_fraction;
        }
    }
    let n = SceneId::ALL.len() as f64;
    let rows = variants
        .iter()
        .enumerate()
        .map(|(i, v)| {
            vec![
                v.label(),
                fmt(bpp_sums[i] / n),
                fmt(bd_red_sums[i] / n),
                format!("{:.3}", foveal_sums[i] / n),
            ]
        })
        .collect();
    Figure {
        name: "tab_ablation".to_string(),
        title: "Ablation — encoder variants averaged over the six scenes".to_string(),
        header: vec![
            "variant",
            "bits_per_pixel",
            "reduction_vs_bd_%",
            "foveal_tile_frac",
        ]
        .into_iter()
        .map(String::from)
        .collect(),
        rows,
    }
}

/// Sec. 6.2 SCC details: codebook size and table costs.
pub fn tab_scc(bits_per_channel: u8) -> Figure {
    let model = SyntheticDiscriminationModel::default();
    let codec = SccCodec::build(&model, SccConfig::new(bits_per_channel, 30.0));
    let rows = vec![
        vec![
            "lattice bits per channel".to_string(),
            bits_per_channel.to_string(),
        ],
        vec![
            "lattice colors".to_string(),
            (1usize << (3 * bits_per_channel)).to_string(),
        ],
        vec![
            "codebook colors".to_string(),
            codec.codebook_size().to_string(),
        ],
        vec![
            "bits per color".to_string(),
            codec.bits_per_color().to_string(),
        ],
        vec![
            "encode table (bytes)".to_string(),
            codec.encode_table_bytes().to_string(),
        ],
        vec![
            "decode table (bytes)".to_string(),
            codec.decode_table_bytes().to_string(),
        ],
        vec![
            "full-resolution encode table (bytes)".to_string(),
            codec.full_resolution_encode_table_bytes().to_string(),
        ],
    ];
    Figure {
        name: "tab_scc_codebook".to_string(),
        title: "Sec. 6.2 — SCC codebook and table sizes".to_string(),
        header: vec!["quantity", "value"]
            .into_iter()
            .map(String::from)
            .collect(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_measurements() -> Vec<SceneMeasurement> {
        measure_all_scenes(&ExperimentConfig::quick())
    }

    #[test]
    fn fig10_has_one_row_per_scene() {
        let fig = fig10_bandwidth(&quick_measurements());
        assert_eq!(fig.rows.len(), 6);
        assert!(fig.to_table().contains("office"));
        // Our reduction over NoCom is positive for every scene.
        for row in &fig.rows {
            assert!(row[1].parse::<f64>().unwrap() > 0.0);
        }
    }

    #[test]
    fn fig11_totals_are_consistent() {
        let fig = fig11_bits_per_pixel(&quick_measurements());
        for row in &fig.rows {
            let parts: Vec<f64> = row[1..].iter().map(|v| v.parse().unwrap()).collect();
            assert!((parts[0] + parts[1] + parts[2] - parts[3]).abs() < 0.05);
            assert!((parts[4] + parts[5] + parts[6] - parts[7]).abs() < 0.05);
            // Ours spends no more bits than BD.
            assert!(parts[7] <= parts[3] + 1e-9);
        }
    }

    #[test]
    fn fig12_percentages_sum_to_hundred() {
        let fig = fig12_case_distribution(&quick_measurements());
        for row in &fig.rows {
            let c1: f64 = row[1].parse().unwrap();
            let c2: f64 = row[2].parse().unwrap();
            assert!((c1 + c2 - 100.0).abs() < 0.1, "{row:?}");
        }
    }

    #[test]
    fn fig13_savings_are_positive_and_monotone() {
        let fig = fig13_power_saving(&quick_measurements());
        assert_eq!(fig.rows.len(), 8);
        let savings: Vec<f64> = fig.rows.iter().map(|r| r[5].parse().unwrap()).collect();
        assert!(savings.iter().all(|&s| s > 0.0));
        // Higher resolution and refresh rate saves more.
        assert!(savings[7] > savings[0]);
    }

    #[test]
    fn fig2_has_54_rows() {
        let fig = fig2_ellipsoids();
        assert_eq!(fig.rows.len(), 27 * 2);
        assert!(fig.write_csv().is_ok());
    }

    #[test]
    fn area_power_table_mentions_paper_numbers() {
        let table = tab_area_power().to_table();
        assert!(table.contains("166.67"));
        assert!(table.contains("96"));
    }

    #[test]
    fn psnr_table_has_summary_row() {
        let fig = tab_psnr(&quick_measurements());
        assert_eq!(fig.rows.len(), 7);
        assert_eq!(fig.rows.last().unwrap()[0], "mean/std");
    }
}
