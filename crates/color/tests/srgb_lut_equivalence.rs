//! Dense-sweep pin: the LUT-backed sRGB quantizer is bit-identical to the
//! `powf` reference.
//!
//! Two layers of evidence:
//!
//! 1. **Every representable 8-bit boundary.** For each code `v` we bisect (in
//!    this test, independently of the production table builder) the smallest
//!    `f64` whose reference code is `v`, then check the LUT agrees with the
//!    reference at that boundary, one ULP below it, and one ULP above it.
//! 2. **One million uniform samples** across `[-0.25, 1.25]` (covering the
//!    clamped out-of-gamut ranges) plus special values.
//!
//! A third pin covers the property the adjustment's Δ cost rests on: the
//! quantizer is monotone, so the code of a channel's min/max is the min/max
//! of its codes ([`linear_to_srgb8_min_max`]).

use pvc_color::lanes::min_max_u8;
use pvc_color::{
    linear_to_srgb8, linear_to_srgb8_min_max, linear_to_srgb8_reference, linear_to_srgb8_slice,
    srgb8_to_linear, srgb8_to_linear_reference,
};

/// Smallest non-negative f64 whose reference code is at least `v`, found by
/// bit-pattern bisection (order-preserving for non-negative doubles).
fn boundary_for_code(v: u8) -> f64 {
    if v == 0 {
        return 0.0;
    }
    let mut lo = 0.0f64.to_bits();
    let mut hi = 1.0f64.to_bits();
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if linear_to_srgb8_reference(f64::from_bits(mid)) >= v {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    f64::from_bits(hi)
}

fn next_up(x: f64) -> f64 {
    f64::from_bits(x.to_bits() + 1)
}

fn next_down(x: f64) -> f64 {
    assert!(x > 0.0);
    f64::from_bits(x.to_bits() - 1)
}

#[test]
fn every_code_boundary_is_bit_exact() {
    for v in 0..=255u8 {
        let boundary = boundary_for_code(v);
        let mut probes = vec![boundary, next_up(boundary)];
        if boundary > 0.0 {
            probes.push(next_down(boundary));
        }
        for x in probes {
            let reference = linear_to_srgb8_reference(x);
            assert_eq!(
                linear_to_srgb8(x),
                reference,
                "LUT diverges from reference at boundary probe {x:e} (code {v})"
            );
        }
        // The boundary really is the decision point for code v.
        assert_eq!(linear_to_srgb8_reference(boundary), v);
        if boundary > 0.0 {
            assert_eq!(linear_to_srgb8_reference(next_down(boundary)), v - 1);
        }
    }
}

/// One million uniform samples across `[-0.25, 1.25]`.
fn uniform_samples() -> Vec<f64> {
    // splitmix64: deterministic, dependency-free uniform sampler.
    let mut state = 0x0DDB1A5E55ED5EEDu64;
    let mut next = move || {
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    };
    (0..1_000_000)
        .map(|_| {
            let u = (next() >> 11) as f64 / (1u64 << 53) as f64;
            u * 1.5 - 0.25
        })
        .collect()
}

#[test]
fn one_million_uniform_samples_are_bit_exact() {
    let inputs = uniform_samples();
    let mut lut_codes = vec![0u8; inputs.len()];
    linear_to_srgb8_slice(&inputs, &mut lut_codes);
    for (x, code) in inputs.iter().zip(&lut_codes) {
        let reference = linear_to_srgb8_reference(*x);
        assert_eq!(*code, reference, "slice kernel diverges at {x:e}");
        assert_eq!(
            linear_to_srgb8(*x),
            reference,
            "scalar LUT diverges at {x:e}"
        );
    }
}

#[test]
fn special_values_are_bit_exact() {
    for x in [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        1.0,
        next_down(1.0),
        next_up(1.0),
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
    ] {
        assert_eq!(
            linear_to_srgb8(x),
            linear_to_srgb8_reference(x),
            "special value {x:e}"
        );
    }
}

#[test]
fn decode_lut_matches_reference_for_every_code() {
    for v in 0..=255u8 {
        assert_eq!(
            srgb8_to_linear(v).to_bits(),
            srgb8_to_linear_reference(v).to_bits()
        );
    }
}

#[test]
fn quantizer_is_monotone() {
    // The 255 encode thresholds are strictly increasing.
    let thresholds: Vec<f64> = (1..=255u8).map(boundary_for_code).collect();
    for (i, pair) in thresholds.windows(2).enumerate() {
        assert!(
            pair[0] < pair[1],
            "threshold of code {} ({:e}) is not below the next ({:e})",
            i + 1,
            pair[0],
            pair[1]
        );
    }
    // One ULP up never lowers the code, from 2 ULP below each code
    // boundary to 2 ULP above it.
    for &boundary in &thresholds {
        let mut x = next_down(next_down(boundary));
        for _ in 0..4 {
            assert!(
                linear_to_srgb8(x) <= linear_to_srgb8(next_up(x)),
                "code drops between {x:e} and the next double"
            );
            x = next_up(x);
        }
    }
    // Neighbours in the sorted sweep, with the edges and out-of-gamut values
    // mixed in, never step down.
    let mut inputs = uniform_samples();
    inputs.extend([-1.0, -0.0, 0.0, f64::MIN_POSITIVE, 1.0, next_up(1.0), 2.0]);
    inputs.sort_by(f64::total_cmp);
    for pair in inputs.windows(2) {
        assert!(
            linear_to_srgb8(pair[0]) <= linear_to_srgb8(pair[1]),
            "code drops between {:e} and {:e}",
            pair[0],
            pair[1]
        );
    }
}

#[test]
fn min_max_quantizer_matches_the_per_value_reduction() {
    let mut inputs = uniform_samples();
    inputs.truncate(100_000);
    // NaN, infinities and signed zeros inside some chunks.
    for (i, special) in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0, 1.0]
        .into_iter()
        .enumerate()
    {
        inputs[i * 97] = special;
    }
    let mut codes = vec![0u8; inputs.len()];
    linear_to_srgb8_slice(&inputs, &mut codes);
    // Chunk lengths 0..=33 cover empty, sub-lane, whole-lane and remainder
    // shapes of the 8-wide reduction.
    let mut start = 0;
    for len in (0..=33).cycle() {
        if start + len > inputs.len() {
            break;
        }
        let values = &inputs[start..start + len];
        assert_eq!(
            linear_to_srgb8_min_max(values),
            min_max_u8(&codes[start..start + len]),
            "min/max quantizer diverges on {values:?}"
        );
        start += len;
    }
}
