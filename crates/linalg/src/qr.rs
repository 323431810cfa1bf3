//! Householder QR with column pivoting, and the least-squares solves built
//! on it.
//!
//! Column pivoting (Businger–Golub) orders the columns so that each step
//! eliminates the column with the largest remaining norm.  The leading `k`
//! pivot columns are then a well-conditioned, greedily chosen subset — the
//! interpolative node selection the plane-wave rule derivation uses — and
//! the same factorisation answers the least-squares fit on every leading
//! subset without refactoring.

use crate::matrix::Matrix;

/// A column-pivoted Householder QR factorisation of an `m × n` matrix,
/// stopped after `steps ≤ min(m, n)` eliminations.
#[derive(Clone, Debug)]
pub struct PivotedQr {
    /// Householder vectors below the diagonal, `R` on and above it.
    qr: Matrix,
    /// Householder scalars `τ_j` (`H_j = I − τ_j v_j v_jᵀ`, `v_j[j] = 1`).
    tau: Vec<f64>,
    /// `perm[j]` is the original index of pivot column `j`.
    perm: Vec<usize>,
    steps: usize,
}

impl PivotedQr {
    /// Factor `a`, performing at most `max_steps` eliminations.
    pub fn new(a: &Matrix, max_steps: usize) -> Self {
        let (m, n) = (a.rows(), a.cols());
        let steps = max_steps.min(m).min(n);
        let mut qr = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut tau = Vec::with_capacity(steps);
        let mut norms: Vec<f64> = (0..n).map(|j| sq_norm(qr.col(j))).collect();
        for j in 0..steps {
            // Recompute the trailing norms exactly: the downdated values
            // lose accuracy after many steps, and exactness keeps the pivot
            // order reproducible across hosts.
            for (c, nc) in norms.iter_mut().enumerate().skip(j) {
                *nc = sq_norm(&qr.col(c)[j..]);
            }
            let p = (j..n)
                .max_by(|&x, &y| norms[x].total_cmp(&norms[y]).then(y.cmp(&x)))
                .expect("non-empty column range");
            if p != j {
                swap_cols(&mut qr, j, p);
                perm.swap(j, p);
                norms.swap(j, p);
            }
            let t = householder_in_place(&mut qr.col_mut(j)[j..]);
            tau.push(t);
            if t != 0.0 {
                for c in j + 1..n {
                    let (vj, xc) = two_cols(&mut qr, j, c);
                    reflect(&vj[j..], t, &mut xc[j..]);
                }
            }
        }
        PivotedQr {
            qr,
            tau,
            perm,
            steps,
        }
    }

    /// Original column indices in pivot order (the first `steps` entries are
    /// the eliminated columns).
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// Number of eliminations performed.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Least-squares coefficients of `b` on the leading `k` pivot columns,
    /// in pivot order (`x[i]` multiplies original column `perm()[i]`).
    /// Directions whose `|R_ii|` is below `rcond·|R_00|` are dropped
    /// (coefficient zero), which keeps the solve finite on rank-deficient
    /// inputs.
    pub fn solve_leading(&self, k: usize, b: &[f64], rcond: f64) -> Vec<f64> {
        assert!(k <= self.steps, "only {} columns eliminated", self.steps);
        assert_eq!(b.len(), self.qr.rows());
        let mut c = b.to_vec();
        for j in 0..k {
            reflect(&self.qr.col(j)[j..], self.tau[j], &mut c[j..]);
        }
        let floor = rcond * self.qr[(0, 0)].abs();
        let mut x = vec![0.0; k];
        for i in (0..k).rev() {
            let rii = self.qr[(i, i)];
            if rii.abs() <= floor {
                continue;
            }
            let mut acc = c[i];
            for j in i + 1..k {
                acc -= self.qr[(i, j)] * x[j];
            }
            x[i] = acc / rii;
        }
        x
    }
}

fn sq_norm(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum()
}

fn swap_cols(a: &mut Matrix, i: usize, j: usize) {
    let m = a.rows();
    let data = a.data_mut();
    for r in 0..m {
        data.swap(i * m + r, j * m + r);
    }
}

/// Disjoint mutable views of columns `i < j`.
fn two_cols(a: &mut Matrix, i: usize, j: usize) -> (&mut [f64], &mut [f64]) {
    debug_assert!(i < j);
    let m = a.rows();
    let (lo, hi) = a.data_mut().split_at_mut(j * m);
    (&mut lo[i * m..(i + 1) * m], &mut hi[..m])
}

/// Turn `x` into `(β, v₁.., )`: on return `x[0] = β` and `x[1..]` holds the
/// Householder vector tail (its head is an implicit 1).  Returns `τ`.
fn householder_in_place(x: &mut [f64]) -> f64 {
    let tail = sq_norm(&x[1..]);
    if tail == 0.0 {
        return 0.0;
    }
    let alpha = x[0];
    let norm = (alpha * alpha + tail).sqrt();
    let beta = if alpha >= 0.0 { -norm } else { norm };
    let v0 = alpha - beta;
    for xi in x[1..].iter_mut() {
        *xi /= v0;
    }
    x[0] = beta;
    (beta - alpha) / beta
}

/// Apply `I − τ v vᵀ` (with `v[0] = 1` implicit) to `y`.
fn reflect(v: &[f64], tau: f64, y: &mut [f64]) {
    if tau == 0.0 {
        return;
    }
    let mut dot = y[0];
    for (vi, yi) in v[1..].iter().zip(&y[1..]) {
        dot += vi * yi;
    }
    let s = tau * dot;
    y[0] -= s;
    for (vi, yi) in v[1..].iter().zip(y[1..].iter_mut()) {
        *yi -= s * vi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Least squares on all columns, coefficients in original order.
    fn lstsq(a: &Matrix, b: &[f64], rcond: f64) -> Vec<f64> {
        let f = PivotedQr::new(a, a.cols());
        let xp = f.solve_leading(a.cols(), b, rcond);
        let mut x = vec![0.0; a.cols()];
        for (i, &p) in f.perm().iter().enumerate() {
            x[p] = xp[i];
        }
        x
    }

    fn residual_max(a: &Matrix, x: &[f64], b: &[f64]) -> f64 {
        let ax = a.matvec(x);
        ax.iter()
            .zip(b)
            .map(|(p, q)| (p - q).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn lstsq_recovers_exact_solution() {
        let a = Matrix::from_fn(7, 4, |i, j| {
            ((i * 3 + j * 5) % 7) as f64 + 0.5 * (i == j) as u8 as f64
        });
        let x_true = [1.0, -2.0, 0.5, 3.0];
        let b = a.matvec(&x_true);
        let x = lstsq(&a, &b, 1e-14);
        for (p, q) in x.iter().zip(&x_true) {
            assert!((p - q).abs() < 1e-10, "{x:?}");
        }
        assert!(residual_max(&a, &x, &b) < 1e-10);
    }

    #[test]
    fn lstsq_residual_is_orthogonal_to_columns() {
        let a = Matrix::from_fn(9, 3, |i, j| (i as f64 + 1.0).powi(j as i32));
        let b: Vec<f64> = (0..9).map(|i| (i as f64).sin()).collect();
        let x = lstsq(&a, &b, 1e-14);
        let r: Vec<f64> = a.matvec(&x).iter().zip(&b).map(|(p, q)| p - q).collect();
        for j in 0..3 {
            let d: f64 = a.col(j).iter().zip(&r).map(|(p, q)| p * q).sum();
            assert!(d.abs() < 1e-9, "column {j}: {d}");
        }
    }

    #[test]
    fn pivoting_picks_the_dominant_column_first() {
        let a = Matrix::from_fn(5, 3, |i, j| if j == 2 { 10.0 + i as f64 } else { 1.0 });
        let f = PivotedQr::new(&a, 2);
        assert_eq!(f.perm()[0], 2);
    }

    #[test]
    fn rank_deficient_solve_stays_finite() {
        // Two identical columns: the second pivot's R_ii is ~0.
        let a = Matrix::from_fn(6, 2, |i, _| i as f64 + 1.0);
        let b: Vec<f64> = (0..6).map(|i| 2.0 * (i as f64 + 1.0)).collect();
        let x = lstsq(&a, &b, 1e-12);
        assert!(x.iter().all(|v| v.is_finite()));
        assert!(residual_max(&a, &x, &b) < 1e-10);
    }

    #[test]
    fn leading_solves_match_subset_lstsq() {
        let a = Matrix::from_fn(12, 6, |i, j| ((i + 1) as f64 * 0.3 * (j + 1) as f64).cos());
        let b: Vec<f64> = (0..12).map(|i| (i as f64 * 0.7).exp().ln_1p()).collect();
        let f = PivotedQr::new(&a, 6);
        for k in 1..=6 {
            let x = f.solve_leading(k, &b, 1e-14);
            let sub = Matrix::from_fn(12, k, |i, j| a[(i, f.perm()[j])]);
            let y = lstsq(&sub, &b, 1e-14);
            let ry = residual_max(&sub, &y, &b);
            let rx = residual_max(&sub, &x, &b);
            assert!((rx - ry).abs() < 1e-9, "k={k}: {rx} vs {ry}");
        }
    }
}
