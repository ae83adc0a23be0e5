//! Minimal 3-dimensional linear algebra used throughout the crate.
//!
//! The perceptual encoder only ever needs 3-vectors and 3×3 matrices (color
//! spaces are three dimensional), so rather than pulling in a general linear
//! algebra dependency we implement exactly what is needed: products,
//! transposes, determinants, inverses and a dense Gaussian-elimination solver
//! (used by the RBF fitting code in [`crate::discrimination`]).

/// A 3-component column vector of `f64` values.
///
/// # Examples
///
/// ```
/// use pvc_color::math::Vec3;
/// let v = Vec3::new(1.0, 2.0, 3.0);
/// assert_eq!(v.dot(Vec3::new(1.0, 1.0, 1.0)), 6.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// First component.
    pub x: f64,
    /// Second component.
    pub y: f64,
    /// Third component.
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Creates a vector from its three components.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Creates a vector with all components equal to `v`.
    #[inline]
    pub const fn splat(v: f64) -> Self {
        Vec3 { x: v, y: v, z: v }
    }

    /// Returns the components as an array `[x, y, z]`.
    #[inline]
    pub const fn to_array(self) -> [f64; 3] {
        [self.x, self.y, self.z]
    }

    /// Creates a vector from an array `[x, y, z]`.
    #[inline]
    pub const fn from_array(a: [f64; 3]) -> Self {
        Vec3 {
            x: a[0],
            y: a[1],
            z: a[2],
        }
    }

    /// Dot product with `other`.
    #[inline]
    pub fn dot(self, other: Vec3) -> f64 {
        self.x * other.x + self.y * other.y + self.z * other.z
    }

    /// Cross product with `other`.
    #[inline]
    pub fn cross(self, other: Vec3) -> Vec3 {
        Vec3 {
            x: self.y * other.z - self.z * other.y,
            y: self.z * other.x - self.x * other.z,
            z: self.x * other.y - self.y * other.x,
        }
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Maximum absolute component.
    #[inline]
    pub fn max_abs_component(self) -> f64 {
        self.x.abs().max(self.y.abs()).max(self.z.abs())
    }

    /// Returns a unit-length vector pointing in the same direction, or `None`
    /// if the vector is (numerically) zero.
    pub fn normalized(self) -> Option<Vec3> {
        let n = self.norm();
        if n <= f64::EPSILON {
            None
        } else {
            Some(self * (1.0 / n))
        }
    }

    /// Returns the component selected by `index` (0 → x, 1 → y, 2 → z).
    ///
    /// # Panics
    ///
    /// Panics if `index > 2`.
    #[inline]
    pub fn component(self, index: usize) -> f64 {
        match index {
            0 => self.x,
            1 => self.y,
            2 => self.z,
            _ => panic!("Vec3 component index out of range: {index}"),
        }
    }

    /// Returns a copy with the component at `index` replaced by `value`.
    ///
    /// # Panics
    ///
    /// Panics if `index > 2`.
    #[inline]
    pub fn with_component(mut self, index: usize, value: f64) -> Vec3 {
        match index {
            0 => self.x = value,
            1 => self.y = value,
            2 => self.z = value,
            _ => panic!("Vec3 component index out of range: {index}"),
        }
        self
    }

    /// True if every component is finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

impl std::ops::Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3 {
            x: self.x + rhs.x,
            y: self.y + rhs.y,
            z: self.z + rhs.z,
        }
    }
}

impl std::ops::Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3 {
            x: self.x - rhs.x,
            y: self.y - rhs.y,
            z: self.z - rhs.z,
        }
    }
}

impl std::ops::Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: f64) -> Vec3 {
        Vec3 {
            x: self.x * rhs,
            y: self.y * rhs,
            z: self.z * rhs,
        }
    }
}

impl std::ops::Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3 {
            x: -self.x,
            y: -self.y,
            z: -self.z,
        }
    }
}

impl From<[f64; 3]> for Vec3 {
    fn from(a: [f64; 3]) -> Self {
        Vec3::from_array(a)
    }
}

impl From<Vec3> for [f64; 3] {
    fn from(v: Vec3) -> Self {
        v.to_array()
    }
}

/// A 3×3 row-major matrix of `f64` values.
///
/// # Examples
///
/// ```
/// use pvc_color::math::{Mat3, Vec3};
/// let m = Mat3::identity();
/// assert_eq!(m * Vec3::new(1.0, 2.0, 3.0), Vec3::new(1.0, 2.0, 3.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat3 {
    /// Rows of the matrix, `rows[r][c]`.
    pub rows: [[f64; 3]; 3],
}

impl Default for Mat3 {
    fn default() -> Self {
        Mat3::identity()
    }
}

impl Mat3 {
    /// Creates a matrix from row-major data.
    #[inline]
    pub const fn from_rows(rows: [[f64; 3]; 3]) -> Self {
        Mat3 { rows }
    }

    /// The identity matrix.
    #[inline]
    pub const fn identity() -> Self {
        Mat3 {
            rows: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        }
    }

    /// A diagonal matrix with diagonal `d`.
    #[inline]
    pub const fn from_diagonal(d: Vec3) -> Self {
        Mat3 {
            rows: [[d.x, 0.0, 0.0], [0.0, d.y, 0.0], [0.0, 0.0, d.z]],
        }
    }

    /// Element access: row `r`, column `c`.
    ///
    /// # Panics
    ///
    /// Panics if `r > 2` or `c > 2`.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f64 {
        self.rows[r][c]
    }

    /// Returns row `r` as a vector.
    ///
    /// # Panics
    ///
    /// Panics if `r > 2`.
    #[inline]
    pub fn row(&self, r: usize) -> Vec3 {
        Vec3::from_array(self.rows[r])
    }

    /// Returns column `c` as a vector.
    ///
    /// # Panics
    ///
    /// Panics if `c > 2`.
    #[inline]
    pub fn column(&self, c: usize) -> Vec3 {
        Vec3::new(self.rows[0][c], self.rows[1][c], self.rows[2][c])
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Mat3 {
        let m = &self.rows;
        Mat3::from_rows([
            [m[0][0], m[1][0], m[2][0]],
            [m[0][1], m[1][1], m[2][1]],
            [m[0][2], m[1][2], m[2][2]],
        ])
    }

    /// Determinant of the matrix.
    pub fn determinant(&self) -> f64 {
        let m = &self.rows;
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    }

    /// Matrix inverse.
    ///
    /// Returns `None` when the matrix is singular (determinant magnitude is
    /// below `1e-15`).
    pub fn inverse(&self) -> Option<Mat3> {
        let det = self.determinant();
        if det.abs() < 1e-15 {
            return None;
        }
        let m = &self.rows;
        let inv_det = 1.0 / det;
        let cof = |a: f64, b: f64, c: f64, d: f64| a * d - b * c;
        // Adjugate / determinant.
        Some(Mat3::from_rows([
            [
                cof(m[1][1], m[1][2], m[2][1], m[2][2]) * inv_det,
                -cof(m[0][1], m[0][2], m[2][1], m[2][2]) * inv_det,
                cof(m[0][1], m[0][2], m[1][1], m[1][2]) * inv_det,
            ],
            [
                -cof(m[1][0], m[1][2], m[2][0], m[2][2]) * inv_det,
                cof(m[0][0], m[0][2], m[2][0], m[2][2]) * inv_det,
                -cof(m[0][0], m[0][2], m[1][0], m[1][2]) * inv_det,
            ],
            [
                cof(m[1][0], m[1][1], m[2][0], m[2][1]) * inv_det,
                -cof(m[0][0], m[0][1], m[2][0], m[2][1]) * inv_det,
                cof(m[0][0], m[0][1], m[1][0], m[1][1]) * inv_det,
            ],
        ]))
    }

    /// Frobenius norm of the difference with `other`; useful in tests.
    pub fn distance(&self, other: &Mat3) -> f64 {
        let mut acc = 0.0;
        for r in 0..3 {
            for c in 0..3 {
                let d = self.rows[r][c] - other.rows[r][c];
                acc += d * d;
            }
        }
        acc.sqrt()
    }
}

impl std::ops::Mul<Vec3> for Mat3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, v: Vec3) -> Vec3 {
        Vec3 {
            x: self.row(0).dot(v),
            y: self.row(1).dot(v),
            z: self.row(2).dot(v),
        }
    }
}

impl std::ops::Mul<Mat3> for Mat3 {
    type Output = Mat3;
    fn mul(self, rhs: Mat3) -> Mat3 {
        let mut out = [[0.0; 3]; 3];
        for (r, row) in out.iter_mut().enumerate() {
            for (c, v) in row.iter_mut().enumerate() {
                *v = self.row(r).dot(rhs.column(c));
            }
        }
        Mat3::from_rows(out)
    }
}

impl std::ops::Mul<f64> for Mat3 {
    type Output = Mat3;
    fn mul(self, rhs: f64) -> Mat3 {
        let mut out = self.rows;
        for row in &mut out {
            for v in row.iter_mut() {
                *v *= rhs;
            }
        }
        Mat3::from_rows(out)
    }
}

/// Solves the dense linear system `A x = b` in place using Gaussian
/// elimination with partial pivoting.
///
/// `a` is a row-major `n × n` matrix flattened into a slice of length `n*n`,
/// and `b` has length `n`. On success the solution is returned as a fresh
/// vector; `a` and `b` are left in an unspecified (eliminated) state.
///
/// # Errors
///
/// Returns `Err(SingularMatrix)` when a pivot smaller than `1e-12` is
/// encountered, which indicates the system is singular or severely
/// ill-conditioned.
///
/// # Panics
///
/// Panics if `a.len() != n * n` or `b.len() != n`.
pub fn solve_dense(a: &mut [f64], b: &mut [f64], n: usize) -> Result<Vec<f64>, SingularMatrix> {
    assert_eq!(a.len(), n * n, "matrix must be n*n");
    assert_eq!(b.len(), n, "rhs must be length n");
    for col in 0..n {
        // Partial pivoting: find the row with the largest magnitude in `col`.
        let mut pivot_row = col;
        let mut pivot_val = a[col * n + col].abs();
        for row in (col + 1)..n {
            let v = a[row * n + col].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = row;
            }
        }
        if pivot_val < 1e-12 {
            return Err(SingularMatrix { column: col });
        }
        if pivot_row != col {
            for k in 0..n {
                a.swap(col * n + k, pivot_row * n + k);
            }
            b.swap(col, pivot_row);
        }
        let pivot = a[col * n + col];
        for row in (col + 1)..n {
            let factor = a[row * n + col] / pivot;
            if factor == 0.0 {
                continue;
            }
            for k in col..n {
                a[row * n + k] -= factor * a[col * n + k];
            }
            b[row] -= factor * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for k in (row + 1)..n {
            acc -= a[row * n + k] * x[k];
        }
        x[row] = acc / a[row * n + row];
    }
    Ok(x)
}

/// Error returned by [`solve_dense`] when the system is singular.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingularMatrix {
    /// The elimination column at which a near-zero pivot was found.
    pub column: usize,
}

impl std::fmt::Display for SingularMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "singular matrix: no usable pivot in column {}",
            self.column
        )
    }
}

impl std::error::Error for SingularMatrix {}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} !~ {b} (tol {tol})");
    }

    #[test]
    fn vec3_basic_arithmetic() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, 5.0, 6.0);
        assert_eq!(a + b, Vec3::new(5.0, 7.0, 9.0));
        assert_eq!(b - a, Vec3::new(3.0, 3.0, 3.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
        assert_eq!(a.dot(b), 32.0);
    }

    #[test]
    fn vec3_cross_is_orthogonal() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-2.0, 0.5, 4.0);
        let c = a.cross(b);
        assert_close(c.dot(a), 0.0, 1e-12);
        assert_close(c.dot(b), 0.0, 1e-12);
    }

    #[test]
    fn vec3_normalized_unit_length() {
        let v = Vec3::new(3.0, 4.0, 12.0);
        let n = v.normalized().expect("non-zero");
        assert_close(n.norm(), 1.0, 1e-12);
        assert!(Vec3::ZERO.normalized().is_none());
    }

    #[test]
    fn vec3_component_accessors() {
        let v = Vec3::new(7.0, 8.0, 9.0);
        assert_eq!(v.component(0), 7.0);
        assert_eq!(v.component(2), 9.0);
        assert_eq!(v.with_component(1, 0.5), Vec3::new(7.0, 0.5, 9.0));
    }

    #[test]
    #[should_panic]
    fn vec3_component_out_of_range_panics() {
        let _ = Vec3::ZERO.component(3);
    }

    #[test]
    fn mat3_identity_multiplication() {
        let m = Mat3::from_rows([[2.0, 1.0, 0.5], [0.0, 3.0, -1.0], [1.0, 1.0, 1.0]]);
        let i = Mat3::identity();
        assert_eq!(m * i, m);
        assert_eq!(i * m, m);
    }

    #[test]
    fn mat3_inverse_roundtrip() {
        let m = Mat3::from_rows([[2.0, 1.0, 0.5], [0.0, 3.0, -1.0], [1.0, 1.0, 1.0]]);
        let inv = m.inverse().expect("invertible");
        let prod = m * inv;
        assert!(prod.distance(&Mat3::identity()) < 1e-10);
    }

    #[test]
    fn mat3_singular_has_no_inverse() {
        let m = Mat3::from_rows([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]]);
        assert!(m.inverse().is_none());
    }

    #[test]
    fn mat3_determinant_of_diagonal() {
        let m = Mat3::from_diagonal(Vec3::new(2.0, 3.0, 4.0));
        assert_close(m.determinant(), 24.0, 1e-12);
    }

    #[test]
    fn mat3_transpose_twice_is_identity_op() {
        let m = Mat3::from_rows([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 10.0]]);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn mat3_row_column_access() {
        let m = Mat3::from_rows([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]);
        assert_eq!(m.row(1), Vec3::new(4.0, 5.0, 6.0));
        assert_eq!(m.column(2), Vec3::new(3.0, 6.0, 9.0));
        assert_eq!(m.at(2, 0), 7.0);
    }

    #[test]
    fn solve_dense_small_system() {
        // 2x + y = 5; x + 3y = 10  →  x = 1, y = 3
        let mut a = vec![2.0, 1.0, 1.0, 3.0];
        let mut b = vec![5.0, 10.0];
        let x = solve_dense(&mut a, &mut b, 2).expect("solvable");
        assert_close(x[0], 1.0, 1e-12);
        assert_close(x[1], 3.0, 1e-12);
    }

    #[test]
    fn solve_dense_detects_singular() {
        let mut a = vec![1.0, 2.0, 2.0, 4.0];
        let mut b = vec![1.0, 2.0];
        let err = solve_dense(&mut a, &mut b, 2).unwrap_err();
        assert_eq!(err.column, 1);
        assert!(err.to_string().contains("singular"));
    }

    #[test]
    fn solve_dense_matches_mat3_inverse() {
        let m = Mat3::from_rows([[2.0, 1.0, 0.5], [0.0, 3.0, -1.0], [1.0, 1.0, 1.0]]);
        let rhs = Vec3::new(1.0, 2.0, 3.0);
        let expect = m.inverse().unwrap() * rhs;
        let mut a: Vec<f64> = m.rows.iter().flatten().copied().collect();
        let mut b = vec![rhs.x, rhs.y, rhs.z];
        let x = solve_dense(&mut a, &mut b, 3).unwrap();
        assert_close(x[0], expect.x, 1e-10);
        assert_close(x[1], expect.y, 1e-10);
        assert_close(x[2], expect.z, 1e-10);
    }
}
