//! Small dense-matrix kernels used by the least-squares optimizers.
//!
//! The fitting problems in this workspace are tiny (2–4 parameters, a few hundred
//! residuals), so a simple row-major `Matrix` with Gaussian elimination and Cholesky
//! factorisation is all that is required.  Nothing here is intended to compete with a
//! BLAS; clarity and robustness for small systems are the goals.

use crate::{NumericsError, Result};

/// A dense, row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// Returns an error if `data.len() != rows * cols`.
    // lint:allow(dead-api) matrix fixture for the linalg and optimize tests
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(NumericsError::invalid(format!(
                "matrix data length {} does not match {}x{}",
                data.len(),
                rows,
                cols
            )));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns the transpose of this matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix-matrix product `self * other`.
    // lint:allow(dead-api) reference product for linalg::tests (cholesky_reconstructs, gram_matches_explicit_product)
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(NumericsError::invalid(format!(
                "cannot multiply {}x{} by {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += aik * other[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product `self * v`.
    // lint:allow(dead-api) reference product for linalg::tests::gram_rhs_matches_explicit_product
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if self.cols != v.len() {
            return Err(NumericsError::invalid(format!(
                "cannot multiply {}x{} by vector of length {}",
                self.rows,
                self.cols,
                v.len()
            )));
        }
        let mut out = vec![0.0; self.rows];
        for i in 0..self.rows {
            let mut acc = 0.0;
            for j in 0..self.cols {
                acc += self[(i, j)] * v[j];
            }
            out[i] = acc;
        }
        Ok(out)
    }

    /// Computes `Jᵀ J` for a Jacobian `J` (self), the normal-equations matrix.
    pub fn gram(&self) -> Matrix {
        let mut g = Matrix::zeros(self.cols, self.cols);
        for i in 0..self.rows {
            for a in 0..self.cols {
                let ja = self[(i, a)];
                if ja == 0.0 {
                    continue;
                }
                for b in a..self.cols {
                    g[(a, b)] += ja * self[(i, b)];
                }
            }
        }
        // mirror the upper triangle
        for a in 0..self.cols {
            for b in 0..a {
                g[(a, b)] = g[(b, a)];
            }
        }
        g
    }

    /// Computes `Jᵀ r` for a Jacobian `J` (self) and residual vector `r`.
    pub fn gram_rhs(&self, r: &[f64]) -> Result<Vec<f64>> {
        if r.len() != self.rows {
            return Err(NumericsError::invalid(format!(
                "residual length {} does not match row count {}",
                r.len(),
                self.rows
            )));
        }
        let mut out = vec![0.0; self.cols];
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[j] += self[(i, j)] * r[i];
            }
        }
        Ok(out)
    }

    /// Adds `lambda` to every diagonal entry (Levenberg–Marquardt damping).
    pub fn add_diagonal(&mut self, lambda: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += lambda;
        }
    }

    /// Frobenius norm of the matrix.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

/// Solves the square linear system `A x = b` via Gaussian elimination with partial pivoting.
///
/// `A` is consumed as a copy; the original matrix is untouched.  Returns
/// [`NumericsError::SingularMatrix`] when a pivot falls below `1e-14` of the largest entry.
pub fn solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    if a.rows() != a.cols() {
        return Err(NumericsError::invalid(format!(
            "solve requires a square matrix, got {}x{}",
            a.rows(),
            a.cols()
        )));
    }
    if b.len() != a.rows() {
        return Err(NumericsError::invalid(format!(
            "rhs length {} does not match matrix size {}",
            b.len(),
            a.rows()
        )));
    }
    let n = a.rows();
    let mut m = a.clone();
    let mut x = b.to_vec();
    let scale = m.frobenius_norm().max(1e-300);

    for col in 0..n {
        // partial pivoting
        let mut pivot_row = col;
        let mut pivot_val = m[(col, col)].abs();
        for row in (col + 1)..n {
            let v = m[(row, col)].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = row;
            }
        }
        if pivot_val < 1e-14 * scale {
            return Err(NumericsError::SingularMatrix);
        }
        if pivot_row != col {
            for j in 0..n {
                let tmp = m[(col, j)];
                m[(col, j)] = m[(pivot_row, j)];
                m[(pivot_row, j)] = tmp;
            }
            x.swap(col, pivot_row);
        }
        // elimination
        let pivot = m[(col, col)];
        for row in (col + 1)..n {
            let factor = m[(row, col)] / pivot;
            if factor == 0.0 {
                continue;
            }
            for j in col..n {
                let v = m[(col, j)];
                m[(row, j)] -= factor * v;
            }
            x[row] -= factor * x[col];
        }
    }

    // back substitution
    for col in (0..n).rev() {
        let mut acc = x[col];
        for j in (col + 1)..n {
            acc -= m[(col, j)] * x[j];
        }
        x[col] = acc / m[(col, col)];
    }
    Ok(x)
}

/// Cholesky factorisation of a symmetric positive-definite matrix: returns lower-triangular `L`
/// with `A = L Lᵀ`.
// lint:allow(dead-api) no caller outside linalg::tests (cholesky_reconstructs, cholesky_rejects_indefinite); delete with them
pub fn cholesky(a: &Matrix) -> Result<Matrix> {
    if a.rows() != a.cols() {
        return Err(NumericsError::invalid("cholesky requires a square matrix"));
    }
    let n = a.rows();
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[(i, j)];
            for k in 0..j {
                sum -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if sum <= 0.0 {
                    return Err(NumericsError::SingularMatrix);
                }
                l[(i, j)] = sum.sqrt();
            } else {
                l[(i, j)] = sum / l[(j, j)];
            }
        }
    }
    Ok(l)
}

/// Euclidean norm of a vector.
pub fn norm2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn identity_solve_returns_rhs() {
        let a = Matrix::from_vec(3, 3, vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]).unwrap();
        let b = vec![1.0, 2.0, 3.0];
        let x = solve(&a, &b).unwrap();
        assert_eq!(x, b);
    }

    #[test]
    fn solve_known_system() {
        // [2 1; 1 3] x = [3; 5] -> x = [0.8, 1.4]
        let a = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 3.0]).unwrap();
        let x = solve(&a, &[3.0, 5.0]).unwrap();
        assert!(approx_eq(x[0], 0.8, 1e-12, 1e-12));
        assert!(approx_eq(x[1], 1.4, 1e-12, 1e-12));
    }

    #[test]
    fn solve_requires_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            solve(&a, &[1.0, 2.0]),
            Err(NumericsError::InvalidArgument(_))
        ));
    }

    #[test]
    fn singular_matrix_detected() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]).unwrap();
        assert_eq!(solve(&a, &[1.0, 2.0]), Err(NumericsError::SingularMatrix));
    }

    #[test]
    fn solve_with_pivoting() {
        // leading zero pivot forces a row swap
        let a = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        let x = solve(&a, &[2.0, 3.0]).unwrap();
        assert!(approx_eq(x[0], 3.0, 1e-12, 0.0));
        assert!(approx_eq(x[1], 2.0, 1e-12, 0.0));
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = Matrix::from_vec(2, 2, vec![4.0, 2.0, 2.0, 3.0]).unwrap();
        let l = cholesky(&a).unwrap();
        let lt = l.transpose();
        let back = l.matmul(&lt).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert!(approx_eq(back[(i, j)], a[(i, j)], 1e-12, 1e-12));
            }
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]).unwrap();
        assert_eq!(cholesky(&a), Err(NumericsError::SingularMatrix));
    }

    #[test]
    fn matmul_and_matvec() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c[(0, 0)], 58.0);
        assert_eq!(c[(1, 1)], 154.0);

        let v = a.matvec(&[1.0, 1.0, 1.0]).unwrap();
        assert_eq!(v, vec![6.0, 15.0]);
    }

    #[test]
    fn gram_matches_explicit_product() {
        let j = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let g = j.gram();
        let jt = j.transpose();
        let explicit = jt.matmul(&j).unwrap();
        for i in 0..2 {
            for k in 0..2 {
                assert!(approx_eq(g[(i, k)], explicit[(i, k)], 1e-12, 1e-12));
            }
        }
    }

    #[test]
    fn gram_rhs_matches_explicit_product() {
        let j = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let r = [1.0, -1.0, 2.0];
        let g = j.gram_rhs(&r).unwrap();
        let jt = j.transpose();
        let explicit = jt.matvec(&r).unwrap();
        assert_eq!(g, explicit);
    }

    #[test]
    fn diagonal_damping() {
        let mut a = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        a.add_diagonal(0.5);
        assert_eq!(a[(0, 0)], 1.5);
        assert_eq!(a[(1, 1)], 1.5);
    }

    #[test]
    fn from_vec_length_checked() {
        assert!(Matrix::from_vec(2, 2, vec![1.0]).is_err());
    }

    #[test]
    fn norms_and_dot() {
        assert!(approx_eq(norm2(&[3.0, 4.0]), 5.0, 1e-15, 0.0));
    }
}
