//! Deterministic value noise used by the scene generators.

/// Fractal (multi-octave) value noise over a 2-D lattice.
///
/// Lattice values are derived from a seed with an integer hash, so the noise
/// field is fully deterministic and requires no stored tables.
///
/// # Examples
///
/// ```
/// use pvc_scenes::FractalNoise;
/// let noise = FractalNoise::new(42, 4, 0.5);
/// let v = noise.sample(1.5, 2.25, 8.0);
/// assert!((0.0..=1.0).contains(&v));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FractalNoise {
    seed: u64,
    octaves: u32,
    /// Per-octave amplitude falloff numerator of a rational persistence
    /// (stored ×1000 to keep the type `Eq`-friendly).
    persistence_milli: u32,
}

impl FractalNoise {
    /// Creates a noise field.
    ///
    /// # Panics
    ///
    /// Panics if `octaves` is zero or `persistence` is outside `(0, 1]`.
    pub fn new(seed: u64, octaves: u32, persistence: f64) -> Self {
        assert!(octaves > 0, "octave count must be non-zero");
        assert!(
            persistence > 0.0 && persistence <= 1.0,
            "persistence must be in (0, 1]"
        );
        FractalNoise {
            seed,
            octaves,
            persistence_milli: (persistence * 1000.0).round() as u32,
        }
    }

    /// Samples the fractal noise at `(x, y)`, where `scale` is the base
    /// lattice frequency (larger → finer detail). The result is in `[0, 1]`.
    pub fn sample(&self, x: f64, y: f64, scale: f64) -> f64 {
        let persistence = f64::from(self.persistence_milli) / 1000.0;
        let mut amplitude = 1.0;
        let mut frequency = scale;
        let mut total = 0.0;
        let mut max_total = 0.0;
        for octave in 0..self.octaves {
            total += amplitude * self.lattice_sample(x * frequency, y * frequency, octave);
            max_total += amplitude;
            amplitude *= persistence;
            frequency *= 2.0;
        }
        (total / max_total).clamp(0.0, 1.0)
    }

    fn lattice_sample(&self, x: f64, y: f64, octave: u32) -> f64 {
        let x0 = x.floor();
        let y0 = y.floor();
        let fx = smoothstep(x - x0);
        let fy = smoothstep(y - y0);
        let x0 = x0 as i64;
        let y0 = y0 as i64;
        let v00 = self.lattice_value(x0, y0, octave);
        let v10 = self.lattice_value(x0 + 1, y0, octave);
        let v01 = self.lattice_value(x0, y0 + 1, octave);
        let v11 = self.lattice_value(x0 + 1, y0 + 1, octave);
        let top = v00 + (v10 - v00) * fx;
        let bottom = v01 + (v11 - v01) * fx;
        top + (bottom - top) * fy
    }

    fn lattice_value(&self, x: i64, y: i64, octave: u32) -> f64 {
        let mut h = self.seed ^ 0x9E37_79B9_7F4A_7C15;
        h = splitmix(h ^ (x as u64).wrapping_mul(0xA24B_AED4_963E_E407));
        h = splitmix(h ^ (y as u64).wrapping_mul(0x9FB2_1C65_1E98_DF25));
        h = splitmix(h ^ u64::from(octave).wrapping_mul(0xD6E8_FEB8_6659_FD93));
        (h >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn smoothstep(t: f64) -> f64 {
    t * t * (3.0 - 2.0 * t)
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_in_unit_range() {
        let noise = FractalNoise::new(7, 5, 0.5);
        for i in 0..200 {
            let x = f64::from(i) * 0.37;
            let y = f64::from(i) * 0.91;
            let v = noise.sample(x, y, 4.0);
            assert!((0.0..=1.0).contains(&v), "sample {v} out of range");
        }
    }

    #[test]
    fn noise_is_deterministic_for_a_seed() {
        let a = FractalNoise::new(123, 4, 0.6);
        let b = FractalNoise::new(123, 4, 0.6);
        assert_eq!(a.sample(3.2, 1.1, 8.0), b.sample(3.2, 1.1, 8.0));
    }

    #[test]
    fn different_seeds_give_different_fields() {
        let a = FractalNoise::new(1, 4, 0.5);
        let b = FractalNoise::new(2, 4, 0.5);
        let differing = (0..50)
            .filter(|&i| {
                let x = f64::from(i) * 0.71;
                (a.sample(x, x, 6.0) - b.sample(x, x, 6.0)).abs() > 1e-6
            })
            .count();
        assert!(differing > 40);
    }

    #[test]
    fn noise_is_smooth_at_fine_steps() {
        let noise = FractalNoise::new(9, 3, 0.5);
        let mut max_step: f64 = 0.0;
        let mut prev = noise.sample(0.0, 0.5, 2.0);
        for i in 1..500 {
            let v = noise.sample(f64::from(i) * 0.002, 0.5, 2.0);
            max_step = max_step.max((v - prev).abs());
            prev = v;
        }
        assert!(
            max_step < 0.05,
            "noise jumps by {max_step} between close samples"
        );
    }

    #[test]
    #[should_panic]
    fn zero_octaves_panics() {
        let _ = FractalNoise::new(1, 0, 0.5);
    }

    #[test]
    #[should_panic]
    fn invalid_persistence_panics() {
        let _ = FractalNoise::new(1, 3, 1.5);
    }
}
