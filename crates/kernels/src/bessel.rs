//! Bessel functions of the first kind, as needed by the plane-wave rule
//! derivation: `J₀`/`J₁` at arbitrary real arguments (the radial basis of
//! the Sommerfeld integral and its λ-derivative) and `Jₙ` for a run of
//! integer orders (the trapezoid-in-α error, which is `2 Σ_m J_{mM}`).

/// Below this argument the power series is used, above it the Hankel
/// asymptotic expansion; both are accurate to ~1e-12 absolute there.
const SERIES_MAX: f64 = 14.0;

/// `J₀(x)`.
pub fn j0(x: f64) -> f64 {
    bessel01(x.abs(), 0)
}

/// `J₁(x)`.
pub fn j1(x: f64) -> f64 {
    let v = bessel01(x.abs(), 1);
    if x < 0.0 {
        -v
    } else {
        v
    }
}

fn bessel01(x: f64, nu: u32) -> f64 {
    if x < SERIES_MAX {
        // J_ν(x) = (x/2)^ν Σ_k (−x²/4)^k / (k! (k+ν)!).
        let q = -0.25 * x * x;
        let mut term = if nu == 0 { 1.0 } else { 0.5 * x };
        let mut sum = term;
        for k in 1..200 {
            term *= q / (k as f64 * (k + nu as usize) as f64);
            sum += term;
            if term.abs() < 1e-17 * sum.abs().max(1e-300) {
                break;
            }
        }
        sum
    } else {
        // J_ν(x) = √(2/(πx)) (P cos χ − Q sin χ), χ = x − (ν/2 + 1/4)π,
        // with t_k = a_k(ν)/x^k, P = Σ (−1)^k t_{2k}, Q = Σ (−1)^k t_{2k+1}.
        let mu = 4.0 * (nu * nu) as f64;
        let (mut p, mut q) = (1.0, 0.0);
        let mut t = 1.0f64;
        for k in 1..60u32 {
            let kk = (2 * k - 1) as f64;
            let next = t * (mu - kk * kk) / (k as f64 * 8.0 * x);
            if next.abs() > t.abs() {
                break;
            }
            t = next;
            let sign = if (k / 2).is_multiple_of(2) { 1.0 } else { -1.0 };
            if k.is_multiple_of(2) {
                p += sign * t;
            } else {
                q += sign * t;
            }
            if t.abs() < 1e-17 {
                break;
            }
        }
        let chi = x - (0.5 * nu as f64 + 0.25) * std::f64::consts::PI;
        (2.0 / (std::f64::consts::PI * x)).sqrt() * (p * chi.cos() - q * chi.sin())
    }
}

/// `J₀(x), …, J_{n_max}(x)` for `x ≥ 0` by Miller's backward recurrence,
/// normalised with `J₀ + 2 Σ J_{2k} = 1`.  Accurate to ~1e-15 absolute for
/// every order, including orders far above `x` where the values underflow
/// towards zero.
pub fn jn_all(x: f64, n_max: usize) -> Vec<f64> {
    assert!(x >= 0.0 && x.is_finite());
    let mut out = vec![0.0; n_max + 1];
    if x < 1e-300 {
        out[0] = 1.0;
        return out;
    }
    let big = n_max.max(x.ceil() as usize);
    let start = 2 * ((big + 20 + (40.0 * big as f64).sqrt() as usize) / 2 + 1);
    let (mut jp, mut j) = (0.0f64, 1e-280f64);
    let mut norm = 0.0;
    for n in (1..=start).rev() {
        // j = J_n (unnormalised), jp = J_{n+1}; step to J_{n-1}.
        let jm = 2.0 * n as f64 / x * j - jp;
        jp = j;
        j = jm;
        let m = n - 1;
        if m <= n_max {
            out[m] = j;
        }
        if m > 0 && m.is_multiple_of(2) {
            norm += 2.0 * j;
        }
        if j.abs() > 1e250 {
            // Rescale everything accumulated so far.
            let s = 1e-250;
            j *= s;
            jp *= s;
            norm *= s;
            for v in out.iter_mut() {
                *v *= s;
            }
        }
    }
    norm += j;
    for v in out.iter_mut() {
        *v /= norm;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `J_n(x) = (1/π) ∫₀^π cos(nτ − x sin τ) dτ`; the periodic trapezoid
    /// rule on the full circle is spectrally accurate.
    fn jn_integral(n: usize, x: f64) -> f64 {
        let m = 4 * (n + x.ceil() as usize) + 64;
        let mut acc = 0.0;
        for j in 0..m {
            let t = std::f64::consts::TAU * j as f64 / m as f64;
            acc += (n as f64 * t - x * t.sin()).cos();
        }
        acc / m as f64
    }

    #[test]
    fn j0_j1_match_integral_representation() {
        let mut x = 0.0;
        while x < 120.0 {
            assert!((j0(x) - jn_integral(0, x)).abs() < 5e-12, "J0({x})");
            assert!((j1(x) - jn_integral(1, x)).abs() < 5e-12, "J1({x})");
            x += 0.173;
        }
        for x in [SERIES_MAX - 1e-9, SERIES_MAX, SERIES_MAX + 1e-9] {
            assert!((j0(x) - jn_integral(0, x)).abs() < 5e-12);
            assert!((j1(x) - jn_integral(1, x)).abs() < 5e-12);
        }
    }

    #[test]
    fn known_values() {
        assert_eq!(j0(0.0), 1.0);
        assert_eq!(j1(0.0), 0.0);
        // First zero of J₀.
        assert!(j0(2.404_825_557_695_773).abs() < 1e-13);
        assert!((j1(-1.0) + j1(1.0)).abs() < 1e-16);
    }

    #[test]
    fn miller_matches_integral_for_all_orders() {
        for x in [0.3, 2.0, 9.5, 31.0, 77.7] {
            let js = jn_all(x, 160);
            for n in [0usize, 1, 2, 7, 30, 60, 100, 160] {
                let want = jn_integral(n, x);
                assert!(
                    (js[n] - want).abs() < 1e-13,
                    "J_{n}({x}): {} vs {want}",
                    js[n]
                );
            }
        }
        let z = jn_all(0.0, 4);
        assert_eq!(z, vec![1.0, 0.0, 0.0, 0.0, 0.0]);
    }
}
