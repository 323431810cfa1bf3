//! Plane-wave (Sommerfeld) discretisation of the Laplace and Yukawa kernels.
//!
//! Both kernels of the paper admit a Sommerfeld integral representation for
//! `z > 0`:
//!
//! ```text
//!   1/r        = (1/2π) ∫₀^∞        ∫₀^{2π} e^{-λz} e^{iλ(x cosα + y sinα)} dα dλ
//!   e^{-κr}/r  = (1/2π) ∫₀^∞ (λ/s)  ∫₀^{2π} e^{-sz} e^{iλ(x cosα + y sinα)} dα dλ,
//!                 s = √(λ² + κ²)
//! ```
//!
//! Discretising `λ` with a few nodes and `α` with the trapezoid rule yields
//! a finite sum of **exponential basis functions** in which *translation is
//! diagonal* — the property the merge-and-shift technique exploits (the
//! paper's `M→I`, `I→I`, `I→L` operators).  This is the structure of the
//! exponential expansions of Cheng–Greengard–Rokhlin (Laplace) and
//! Greengard–Huang (Yukawa), whose λ rules are *generalized Gaussian*
//! quadratures: far fewer nodes than any generic rule, because they are
//! optimised for the one family of integrands that actually occurs.
//!
//! [`PlaneWaveQuad::build`] derives such a rule for any [`QuadSpec`]:
//!
//! 1. **λ rule.**  The α-averaged integrand is `g(λ)e^{-sz}J₀(λρ)`.  Sample
//!    that family on a `(z, ρ)` fit grid for every node of a dense
//!    composite Gauss–Legendre reference rule, pick `k` nodes by
//!    column-pivoted QR, fit their weights by least squares, then refine
//!    nodes and weights jointly by damped Gauss–Newton on reweighted `L_p`
//!    norms with `p` rising to 128, which drives the fit towards minimax.
//!    `k` grows until the fit meets its share of the error budget.
//! 2. **α counts.**  Each λ node gets the smallest even trapezoid count
//!    `M_k` whose error `2 Σ_m J_{mM_k}(λ_k ρ)`, damped by the node's
//!    weight and `e^{-s_k z_min}`, fits its share of the budget.
//! 3. **Validation.**  The finished rule is checked against the exact
//!    kernel on a sweep of the whole 3-D region, corners included, that
//!    shares no point with the fit grid.  A rule is returned only once that
//!    sweep passes, so correctness never rests on constants.
//!
//! All coordinates are normalised to the box side of the tree level in
//! question; the validity region `z ∈ [1, 4]`, `ρ ≤ 4√2` covers exactly the
//! geometry of directional `L2` interactions.  For Yukawa the scaled
//! screening `κ·side` enters the rule, making the expansion length
//! level-dependent (the paper's "length of the intermediate expansion
//! depends on the depth in the hierarchy").

use dashmm_linalg::{cholesky, Matrix, PivotedQr};

use crate::bessel::{j0, j1, jn_all};
use crate::gauss::gauss_legendre;

/// Share of `eps` the λ rule may use on the fit grid.
const FIT_SHARE: f64 = 0.65;
/// Share of `eps` split evenly among the λ nodes' α discretisations.  The
/// rest is margin for the fit error between fit-grid points.
const ALPHA_SHARE: f64 = 0.2;
/// A rule is accepted when its validation error is within this share of
/// `eps`, leaving the rest for peaks between validation points.
const ACCEPT_SHARE: f64 = 0.9;
/// The plain least-squares fit on the pivoted nodes may miss the target by
/// this factor; Gauss–Newton refinement closes the gap.
const LS_REACH: f64 = 8.0;
/// The most λ nodes a rule may have.
const MAX_NODES: usize = 64;
/// Pivoted-QR steps taken up front (grown on demand).
const QR_STEPS: usize = 24;
/// Gauss–Newton iterations per `L_p` stage of [`refine`].
const ITERS_PER_P: usize = 12;
/// Fit-grid points across `[z_min, z_max]` (Chebyshev roots; an even count
/// keeps the center, a rational point, off the grid).
const FIT_NZ: usize = 12;
/// Validation sweep: `z`, `ρ` and azimuth (`θ ∈ [0, π/2]`) subdivisions,
/// uniform with ends included.
const VALIDATE_NZ: usize = 12;
const VALIDATE_NRHO: usize = 24;
const VALIDATE_NTHETA: usize = 6;

/// Requirements for a plane-wave quadrature.
#[derive(Clone, Copy, Debug)]
pub struct QuadSpec {
    /// Target relative accuracy over the validity region.
    pub eps: f64,
    /// Minimum `z` separation, in box units (directional `L2` ⇒ 1).
    pub z_min: f64,
    /// Maximum `z` separation (offset 3 plus one box of spread ⇒ 4).
    pub z_max: f64,
    /// Maximum transverse distance (offsets ≤ 3 plus spread ⇒ 4√2).
    pub rho_max: f64,
    /// Screening parameter scaled to the box side (0 ⇒ Laplace).
    pub kappa: f64,
}

impl QuadSpec {
    /// The spec for directional `L2` interactions at the given accuracy and
    /// (scaled) screening.
    ///
    /// Center offsets along the direction axis are 2–3 box sides and ≤ 3
    /// transversally; the expansions are formed from and evaluated at
    /// surface points up to `0.525` sides from the box centers, so the
    /// region is padded accordingly (z ∈ [0.9, 4.1], ρ ≤ 4.1·√2).
    pub fn for_l2(eps: f64, kappa: f64) -> Self {
        QuadSpec {
            eps,
            z_min: 0.9,
            z_max: 4.1,
            rho_max: 4.1 * std::f64::consts::SQRT_2,
            kappa,
        }
    }

    /// Exact kernel in normalised coordinates.
    fn exact(&self, r: f64) -> f64 {
        if self.kappa > 0.0 {
            (-self.kappa * r).exp() / r
        } else {
            1.0 / r
        }
    }

    /// The error scale: the kernel at the closest separation `r = z_min`.
    /// Rule errors are measured relative to it.
    pub fn scale(&self) -> f64 {
        self.exact(self.z_min)
    }

    /// Decay rate `s(λ) = √(λ² + κ²)`.
    fn s(&self, lambda: f64) -> f64 {
        (lambda * lambda + self.kappa * self.kappa).sqrt()
    }

    /// Weight function `g(λ)`: 1 for Laplace, `λ/s` for Yukawa.
    fn g(&self, lambda: f64) -> f64 {
        if self.kappa > 0.0 {
            lambda / self.s(lambda)
        } else {
            1.0
        }
    }
}

/// One node of the λ rule: its trapezoid count in α and its weight
/// (`g(λ)` folded in; the α sum is an average).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LambdaNode {
    /// Node position λ.
    pub lambda: f64,
    /// Weight, including `g(λ)`.
    pub weight: f64,
    /// Trapezoid count `M` over the full circle (even; `M/2` terms stored).
    pub m: usize,
}

/// A validated plane-wave quadrature: a set of exponential basis terms
/// `w · e^{-s z} · e^{iλ(x cosα + y sinα)}` whose real part reproduces the
/// kernel over the validity region.
///
/// Terms are stored structure-of-arrays; only the half circle of angles is
/// kept (the other half contributes the complex conjugate, so the final
/// evaluation takes `2·Re`, already folded into the weights).
#[derive(Clone, Debug)]
pub struct PlaneWaveQuad {
    spec: QuadSpec,
    nodes: Vec<LambdaNode>,
    /// λ of each term.
    pub lambda: Vec<f64>,
    /// Decay rate `s(λ)` of each term.
    pub s: Vec<f64>,
    /// Combined weight of each term (includes the `2/M_k` trapezoid factor).
    pub w: Vec<f64>,
    /// cos α of each term.
    pub cos_a: Vec<f64>,
    /// sin α of each term.
    pub sin_a: Vec<f64>,
    /// Worst relative error observed during validation.
    pub validated_error: f64,
}

impl PlaneWaveQuad {
    /// Derive a generalized-Gaussian rule satisfying `spec` (see the module
    /// docs), growing the λ node count until the validation sweep passes.
    /// Deterministic: the same spec always yields a bitwise-identical rule.
    /// Panics only if no node count succeeds, which indicates an
    /// unsatisfiable spec.
    ///
    /// ```
    /// use dashmm_kernels::{PlaneWaveQuad, QuadSpec};
    ///
    /// let q = PlaneWaveQuad::build(QuadSpec::for_l2(1e-3, 0.0));
    /// // The discretised kernel reproduces 1/r inside the validity region.
    /// let approx = q.eval(0.5, -0.25, 2.0);
    /// let exact = 1.0 / (0.5f64 * 0.5 + 0.25 * 0.25 + 4.0).sqrt();
    /// assert!((approx - exact).abs() < 1e-3);
    /// ```
    pub fn build(spec: QuadSpec) -> Self {
        assert!(spec.eps > 0.0 && spec.eps < 0.5, "eps must be in (0, 0.5)");
        assert!(spec.z_min > 0.0 && spec.z_max > spec.z_min);
        assert!(spec.rho_max >= 0.0 && spec.kappa >= 0.0);
        let fit = FitGrid::new(&spec);
        let target = FIT_SHARE * spec.eps * spec.scale();

        // Reference pool and its pivoted QR: columns are the pool nodes'
        // weighted integrands, so pivoting prefers nodes that carry mass.
        let (pool_x, pool_w) = reference_pool(&spec);
        let mut a = fit.basis(&spec, &pool_x, false).0;
        for (j, &wj) in pool_w.iter().enumerate() {
            a.col_mut(j).iter_mut().for_each(|v| *v *= wj);
        }
        let k_cap = pool_x.len().min(fit.len() / 4).min(MAX_NODES);
        // Factor lazily: rules need a few dozen nodes at most, and the
        // first j pivots do not depend on how many steps are requested, so
        // growing the factorisation never changes earlier choices.
        let mut qr = PivotedQr::new(&a, k_cap.min(QR_STEPS));

        // Least squares on the leading k pivots: (nodes, weights, max error).
        let ls_fit = |qr: &PivotedQr, k: usize| -> (Vec<f64>, Vec<f64>, f64) {
            let x = qr.solve_leading(k, &fit.target, 1e-13);
            let cols = &qr.perm()[..k];
            let mut r: Vec<f64> = fit.target.iter().map(|t| -t).collect();
            for (&xi, &j) in x.iter().zip(cols) {
                r.iter_mut()
                    .zip(a.col(j))
                    .for_each(|(ri, aij)| *ri += xi * aij);
            }
            let lam = cols.iter().map(|&j| pool_x[j]).collect();
            let w = x.iter().zip(cols).map(|(xi, &j)| xi * pool_w[j]).collect();
            (lam, w, max_abs(&r))
        };

        // Start from the smallest k whose plain least-squares fit is within
        // reach of the target; refinement then recovers the rest.
        let mut last_err = f64::INFINITY;
        for k in 1..=k_cap {
            if k > qr.steps() {
                qr = PivotedQr::new(&a, (2 * k).min(k_cap));
            }
            let (lam, w, ls_err) = ls_fit(&qr, k);
            if ls_err > LS_REACH * target && k < k_cap {
                continue;
            }
            let (lam, w, fit_err) = refine(&spec, &fit, lam, w, target);
            if fit_err > target {
                last_err = fit_err / spec.scale();
                continue;
            }
            let mut q = Self::from_nodes(spec, &lam, &w);
            let err = q.validate();
            if err <= ACCEPT_SHARE * spec.eps {
                q.validated_error = err;
                return q;
            }
            last_err = err;
        }
        panic!(
            "plane-wave quadrature failed to reach eps={} (best error {last_err:.3e})",
            spec.eps
        );
    }

    /// Assemble the rule from fitted λ nodes: choose each node's α count
    /// and expand it into half-circle terms.
    fn from_nodes(spec: QuadSpec, lam: &[f64], w: &[f64]) -> Self {
        let mut order: Vec<usize> = (0..lam.len()).collect();
        order.sort_by(|&a, &b| lam[a].total_cmp(&lam[b]));
        let budget = ALPHA_SHARE * spec.eps * spec.scale() / lam.len() as f64;
        let mut q = PlaneWaveQuad {
            spec,
            nodes: Vec::with_capacity(lam.len()),
            lambda: Vec::new(),
            s: Vec::new(),
            w: Vec::new(),
            cos_a: Vec::new(),
            sin_a: Vec::new(),
            validated_error: f64::NAN,
        };
        for i in order {
            let (lk, sk) = (lam[i], spec.s(lam[i]));
            let weight = w[i] * spec.g(lk);
            let damp = weight.abs() * (-sk * spec.z_min).exp();
            let m = alpha_count(lk * spec.rho_max, damp, budget);
            q.nodes.push(LambdaNode {
                lambda: lk,
                weight,
                m,
            });
            let term_w = 2.0 * weight / m as f64;
            for j in 0..m / 2 {
                let alpha = std::f64::consts::TAU * j as f64 / m as f64;
                q.lambda.push(lk);
                q.s.push(sk);
                q.w.push(term_w);
                q.cos_a.push(alpha.cos());
                q.sin_a.push(alpha.sin());
            }
        }
        q
    }

    /// Number of exponential basis terms (the length of an intermediate
    /// expansion in one direction).
    pub fn num_terms(&self) -> usize {
        self.lambda.len()
    }

    /// The λ nodes in increasing order, with weights and α counts.
    pub fn nodes(&self) -> &[LambdaNode] {
        &self.nodes
    }

    /// The spec this rule was built for.
    pub fn spec(&self) -> &QuadSpec {
        &self.spec
    }

    /// Evaluate the discretised kernel at the (normalised) displacement.
    ///
    /// Used by tests and by the operator-table constructors; the FMM hot
    /// path works with the per-term complex coefficients directly.
    pub fn eval(&self, x: f64, y: f64, z: f64) -> f64 {
        let mut acc = 0.0;
        for i in 0..self.lambda.len() {
            let phase = self.lambda[i] * (x * self.cos_a[i] + y * self.sin_a[i]);
            acc += self.w[i] * (-self.s[i] * z).exp() * phase.cos();
        }
        acc
    }

    /// Worst error over the `(nz+1) × (nrho+1) × (ntheta+1)` sweep of the
    /// validity region with uniform `z`, `ρ` and azimuth `θ ∈ [0, π/2]`,
    /// all ends (hence all corners) included, measured relative to
    /// [`QuadSpec::scale`] — the error measure of Cheng–Greengard–Rokhlin,
    /// which is what bounds the final potential error of the FMM.  A
    /// pointwise *relative* criterion would be unattainable for strong
    /// screening, where the exact kernel underflows at the far corner.
    /// A quarter turn suffices: every node's angle set `{2πj/M}` is closed
    /// under `α → −α` and `α → α + π`, which makes the rule invariant under
    /// `θ → −θ` and `θ → π − θ`.
    pub fn max_error_on_sweep(&self, nz: usize, nrho: usize, ntheta: usize) -> f64 {
        let spec = self.spec;
        let scale = spec.scale();
        let mut decay = vec![0.0; self.num_terms()];
        let mut worst = 0.0f64;
        for iz in 0..=nz {
            let z = spec.z_min + (spec.z_max - spec.z_min) * iz as f64 / nz as f64;
            for (d, (&w, &s)) in decay.iter_mut().zip(self.w.iter().zip(&self.s)) {
                *d = w * (-s * z).exp();
            }
            for ir in 0..=nrho {
                let rho = spec.rho_max * ir as f64 / nrho as f64;
                for it in 0..=ntheta {
                    let th = std::f64::consts::FRAC_PI_2 * it as f64 / ntheta as f64;
                    let (x, y) = (rho * th.cos(), rho * th.sin());
                    let mut got = 0.0;
                    for t in 0..decay.len() {
                        let phase = self.lambda[t] * (x * self.cos_a[t] + y * self.sin_a[t]);
                        got += decay[t] * phase.cos();
                    }
                    let exact = spec.exact((rho * rho + z * z).sqrt());
                    worst = worst.max((got - exact).abs() / scale);
                }
            }
        }
        worst
    }

    /// The acceptance sweep of [`PlaneWaveQuad::build`].
    fn validate(&self) -> f64 {
        self.max_error_on_sweep(VALIDATE_NZ, VALIDATE_NRHO, VALIDATE_NTHETA)
    }
}

/// The `(z, ρ)` fit grid: Chebyshev roots in `z` (clustered at the ends;
/// the error peaks at `z_min`) times cell midpoints in `ρ`, both reaching
/// just past the region's edges so the fit also holds at its corners.  No
/// fit point is a validation point: the Chebyshev roots are irrational
/// offsets, and midpoints `(2i+1)/(2n)·ρ_max` with `8 | n` miss every
/// `j/V·ρ_max` whose `V` has at most three factors of 2, such as the 24 of
/// the acceptance sweep.
struct FitGrid {
    z: Vec<f64>,
    rho: Vec<f64>,
    /// Exact kernel at each sample, `z`-major.
    target: Vec<f64>,
}

impl FitGrid {
    fn new(spec: &QuadSpec) -> Self {
        // Chebyshev roots on an interval widened just enough that the
        // extreme roots sit at (not inside) the ends: the fit error peaks at
        // the `z_min` edge, so the grid must reach it.
        let t0 = (std::f64::consts::PI / (2 * FIT_NZ) as f64).cos();
        let c = 0.5 * (spec.z_min + spec.z_max);
        let h = 0.5 * (spec.z_max - spec.z_min) / t0 * (1.0 + 1e-3);
        let z: Vec<f64> = (0..FIT_NZ)
            .map(|i| {
                let t = std::f64::consts::PI * (2 * i + 1) as f64 / (2 * FIT_NZ) as f64;
                c - h * t.cos()
            })
            .collect();
        // Cell midpoints of `n` cells over `[0, ρ_max]`, plus one more half
        // a cell past `ρ_max` so the fit also holds at the outer edge.
        // Resolve the fastest oscillation that matters, J₀(λ_max ρ), at
        // about four samples per period.
        let periods = lambda_max(spec) * spec.rho_max / std::f64::consts::TAU;
        let n_rho = (((4.0 * periods).ceil() as usize).max(16)).div_ceil(8) * 8;
        let rho: Vec<f64> = (0..=n_rho)
            .map(|i| spec.rho_max * (2 * i + 1) as f64 / (2 * n_rho) as f64)
            .collect();
        let mut target = Vec::with_capacity(z.len() * rho.len());
        for &zz in &z {
            for &rr in &rho {
                target.push(spec.exact((zz * zz + rr * rr).sqrt()));
            }
        }
        FitGrid { z, rho, target }
    }

    fn len(&self) -> usize {
        self.target.len()
    }

    /// Every node's α-averaged integrand `g(λ) e^{-s z} J₀(λρ)` at every
    /// sample (an `m × k` matrix), and optionally its λ-derivative.  The
    /// grid is a tensor product, so each node costs one exponential per `z`
    /// and one Bessel pair per `ρ`.
    fn basis(&self, spec: &QuadSpec, lam: &[f64], deriv: bool) -> (Matrix, Option<Matrix>) {
        let (nz, nr) = (self.z.len(), self.rho.len());
        let mut val = Matrix::zeros(nz * nr, lam.len());
        let mut der = deriv.then(|| Matrix::zeros(nz * nr, lam.len()));
        let kk = spec.kappa * spec.kappa;
        for (c, &l) in lam.iter().enumerate() {
            let s = spec.s(l);
            let (g, dg) = (
                spec.g(l),
                if spec.kappa > 0.0 {
                    kk / (s * s * s)
                } else {
                    0.0
                },
            );
            let e: Vec<f64> = self.z.iter().map(|z| (-s * z).exp()).collect();
            let b0: Vec<f64> = self.rho.iter().map(|r| j0(l * r)).collect();
            let col = val.col_mut(c);
            for iz in 0..nz {
                for ir in 0..nr {
                    col[iz * nr + ir] = g * e[iz] * b0[ir];
                }
            }
            if let Some(der) = der.as_mut() {
                let b1: Vec<f64> = self.rho.iter().map(|r| j1(l * r)).collect();
                let col = der.col_mut(c);
                for iz in 0..nz {
                    let a = dg - g * (l / s) * self.z[iz];
                    for ir in 0..nr {
                        col[iz * nr + ir] = e[iz] * (a * b0[ir] - g * self.rho[ir] * b1[ir]);
                    }
                }
            }
        }
        (val, der)
    }
}

/// Residuals `V w − target`.
fn residuals(val: &Matrix, w: &[f64], target: &[f64]) -> Vec<f64> {
    let mut r: Vec<f64> = target.iter().map(|t| -t).collect();
    val.matvec_acc(w, &mut r);
    r
}

fn max_abs(v: &[f64]) -> f64 {
    v.iter().fold(0.0f64, |m, x| m.max(x.abs()))
}

/// Where the λ integrand has decayed below the error budget (with a margin
/// of e^{-4.6} ≈ 1%): `e^{-(s−κ) z_min} ≤ eps/100`, and `s − κ ≥ λ − κ`.
fn lambda_max(spec: &QuadSpec) -> f64 {
    spec.kappa + ((1.0 / spec.eps).ln() + 4.6) / spec.z_min
}

/// The dense reference rule whose nodes form the candidate pool: composite
/// 8-point Gauss–Legendre on `[0, λ_max]` with panels about one
/// `J₀(λρ_max)` period wide.  For Yukawa, panel edges are added at
/// `κ·2^j` (j = −3..): `g(λ) = λ/s` turns over at `λ ≈ κ`, which a panel
/// straddling it resolves poorly when κ is small.
fn reference_pool(spec: &QuadSpec) -> (Vec<f64>, Vec<f64>) {
    let lam_max = lambda_max(spec);
    let period = std::f64::consts::TAU / spec.rho_max.max(1.0);
    let n_panels = (lam_max / period).ceil() as usize;
    let mut edges: Vec<f64> = (0..=n_panels)
        .map(|p| p as f64 * lam_max / n_panels as f64)
        .collect();
    if spec.kappa > 0.0 {
        let first = edges[1];
        let mut e = spec.kappa / 8.0;
        while e < first.min(2.0 * spec.kappa) {
            edges.push(e);
            e *= 2.0;
        }
        if spec.kappa < lam_max {
            edges.push(spec.kappa);
        }
        edges.sort_by(f64::total_cmp);
        edges.dedup_by(|a, b| (*a - *b).abs() < 1e-3 * period);
    }
    let (mut xs, mut ws) = (Vec::new(), Vec::new());
    for pair in edges.windows(2) {
        let (x, w) = gauss_legendre(8, pair[0], pair[1]);
        xs.extend(x);
        ws.extend(w);
    }
    (xs, ws)
}

/// Refine nodes and weights jointly by damped Gauss–Newton towards the
/// minimax fit.  The minimax objective is approached through `L_p` norms
/// with `p` doubling from 2 to 128: at each `p`, Levenberg–Marquardt steps
/// on the iteratively reweighted least-squares problem (sample weights
/// `|r_i|^{p−2}`, Lawson-style) decrease `Σ|r_i|^p` monotonically, and
/// each `p` warm-starts the next.  Stops as soon as the max residual meets
/// `target`; returns the best (lowest max residual) iterate.
fn refine(
    spec: &QuadSpec,
    fit: &FitGrid,
    mut lam: Vec<f64>,
    mut w: Vec<f64>,
    target: f64,
) -> (Vec<f64>, Vec<f64>, f64) {
    let k = lam.len();
    let basis = |lam: &[f64]| {
        let (val, der) = fit.basis(spec, lam, true);
        (val, der.expect("derivatives requested"))
    };
    let (mut val, mut der) = basis(&lam);
    let mut r = residuals(&val, &w, &fit.target);
    let mut best = (lam.clone(), w.clone(), max_abs(&r));
    for p in [2.0f64, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0] {
        let mut mu = 1e-3f64;
        let mut normal: Option<(Matrix, Vec<f64>)> = None;
        for _ in 0..ITERS_PER_P {
            if best.2 <= target {
                return best;
            }
            // Normalising by the current max keeps |r|^p finite.
            let rmax = max_abs(&r);
            let lp = |r: &[f64]| -> f64 { r.iter().map(|x| (x.abs() / rmax).powf(p)).sum() };
            let (jtj, grad) = normal.get_or_insert_with(|| {
                let u: Vec<f64> = r.iter().map(|x| (x.abs() / rmax).powf(p - 2.0)).collect();
                normal_equations(&val, &der, &w, &u, &r, p - 1.0)
            });
            let mut damped = jtj.clone();
            for c in 0..2 * k {
                damped[(c, c)] *= 1.0 + mu;
            }
            let Some(chol) = cholesky(&damped) else {
                mu *= 4.0;
                continue;
            };
            let mut step = grad.clone();
            chol.solve_in_place(&mut step);
            let lam_new: Vec<f64> = lam.iter().zip(&step[..k]).map(|(a, d)| a + d).collect();
            let w_new: Vec<f64> = w.iter().zip(&step[k..]).map(|(a, d)| a + d).collect();
            if lam_new.iter().any(|l| !(l.is_finite() && *l > 0.0)) {
                mu *= 4.0;
                continue;
            }
            let (val_new, der_new) = basis(&lam_new);
            let r_new = residuals(&val_new, &w_new, &fit.target);
            let (f_old, f_new) = (lp(&r), lp(&r_new));
            if f_new < f_old {
                (lam, w, r, val, der) = (lam_new, w_new, r_new, val_new, der_new);
                normal = None;
                mu = (mu / 3.0).max(1e-12);
                let err = max_abs(&r);
                if err < best.2 {
                    best = (lam.clone(), w.clone(), err);
                }
                if f_new > 0.99 * f_old {
                    break; // stalled at this p
                }
            } else {
                mu *= 4.0;
                if mu > 1e8 {
                    break;
                }
            }
        }
    }
    best
}

/// Weighted Gauss–Newton normal equations `(JᵀUJ, −JᵀUr/c)` for the
/// parameters `[λ | w]`; `c = p − 1` turns the reweighted least-squares
/// step into the Gauss–Newton step of `Σ|r_i|^p`.
fn normal_equations(
    val: &Matrix,
    der: &Matrix,
    w: &[f64],
    u: &[f64],
    r: &[f64],
    c: f64,
) -> (Matrix, Vec<f64>) {
    let (m, k) = (val.rows(), val.cols());
    let su: Vec<f64> = u.iter().map(|x| x.sqrt()).collect();
    let mut jw = Matrix::zeros(m, 2 * k);
    for j in 0..k {
        let (dj, vj) = (der.col(j), val.col(j));
        for i in 0..m {
            jw[(i, j)] = su[i] * w[j] * dj[i];
            jw[(i, k + j)] = su[i] * vj[i];
        }
    }
    let ur: Vec<f64> = r.iter().zip(&su).map(|(ri, s)| -ri * s / c).collect();
    let mut jtj = Matrix::zeros(2 * k, 2 * k);
    for a in 0..2 * k {
        for b in 0..=a {
            let v = dot(jw.col(a), jw.col(b));
            jtj[(a, b)] = v;
            jtj[(b, a)] = v;
        }
    }
    let grad = (0..2 * k).map(|a| dot(jw.col(a), &ur)).collect();
    (jtj, grad)
}

/// Dot product with a fixed four-way accumulation order: vectorisable, and
/// bit-identical on every host (no runtime-dispatched FMA), so a rule
/// derives the same everywhere.
fn dot(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let (ca, cb) = (a.chunks_exact(4), b.chunks_exact(4));
    let (ra, rb) = (ca.remainder(), cb.remainder());
    for (x, y) in ca.zip(cb) {
        for l in 0..4 {
            acc[l] += x[l] * y[l];
        }
    }
    let tail: f64 = ra.iter().zip(rb).map(|(x, y)| x * y).sum();
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// The smallest even trapezoid count `M ≥ 2` whose α error for a node with
/// `x_max = λ ρ_max`, scaled by `damp`, is within `budget`.  The M-point
/// trapezoid average of `e^{ix cos(α−θ)}` equals `J₀(x) + 2 Σ_{m≥1}
/// i^{mM} J_{mM}(x) cos(mMθ)`, so its error is at most
/// `2 Σ_m |J_{mM}(x)|`, maximised over `x ∈ [0, x_max]`; every order up to
/// `3·m_cap` counts (beyond it `J_n` is negligible on `[0, x_max]`).
fn alpha_count(x_max: f64, damp: f64, budget: f64) -> usize {
    let m_cap = 2 * ((x_max + 10.0 * x_max.cbrt() + 40.0) / 2.0).ceil() as usize;
    let n_max = 3 * m_cap;
    // Two samples per unit of x: the bound oscillates with period ~2π.
    let samples = ((2.0 * x_max).ceil() as usize).max(32);
    let tables: Vec<Vec<f64>> = (0..=samples)
        .map(|i| jn_all(x_max * i as f64 / samples as f64, n_max))
        .collect();
    (1..=m_cap / 2)
        .map(|h| 2 * h)
        .find(|&m| {
            let err = tables
                .iter()
                .map(|js| 2.0 * (m..=n_max).step_by(m).map(|n| js[n].abs()).sum::<f64>())
                .fold(0.0, f64::max);
            damp * err <= budget
        })
        .unwrap_or(m_cap)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laplace_three_digit_rule_validates() {
        let q = PlaneWaveQuad::build(QuadSpec::for_l2(1e-3, 0.0));
        assert!(q.validated_error <= 1e-3, "err = {}", q.validated_error);
        assert!(q.num_terms() > 0);
    }

    #[test]
    fn laplace_six_digit_rule_validates_and_is_longer() {
        let q3 = PlaneWaveQuad::build(QuadSpec::for_l2(1e-3, 0.0));
        let q6 = PlaneWaveQuad::build(QuadSpec::for_l2(1e-6, 0.0));
        assert!(q6.validated_error <= 1e-6);
        assert!(q6.num_terms() > q3.num_terms());
    }

    #[test]
    fn yukawa_rule_validates() {
        let q = PlaneWaveQuad::build(QuadSpec::for_l2(1e-3, 0.8));
        assert!(q.validated_error <= 1e-3, "err = {}", q.validated_error);
    }

    #[test]
    fn yukawa_scale_variance_changes_rule() {
        // Different scaled screenings (different tree levels) produce
        // genuinely different rules — the paper's scale-variant behaviour.
        let shallow = PlaneWaveQuad::build(QuadSpec::for_l2(1e-3, 2.0));
        let deep = PlaneWaveQuad::build(QuadSpec::for_l2(1e-3, 0.25));
        let x = (1.5, 0.3, 2.0);
        let a = shallow.eval(x.0, x.1, x.2);
        let b = deep.eval(x.0, x.1, x.2);
        assert!((a - b).abs() > 1e-6, "rules for different κ must differ");
    }

    #[test]
    fn spot_accuracy_on_axis() {
        let q = PlaneWaveQuad::build(QuadSpec::for_l2(1e-3, 0.0));
        // On-axis at z = 2: K = 0.5.
        let got = q.eval(0.0, 0.0, 2.0);
        assert!((got - 0.5).abs() < 1e-3 * 0.5, "got {got}");
    }

    #[test]
    fn spot_accuracy_off_axis_yukawa() {
        let kappa = 1.3;
        let q = PlaneWaveQuad::build(QuadSpec::for_l2(1e-3, kappa));
        let (x, y, z) = (2.0f64, -1.0, 3.0);
        let r = (x * x + y * y + z * z).sqrt();
        let exact = (-kappa * r).exp() / r;
        let got = q.eval(x, y, z);
        // Error is bounded relative to the kernel at closest separation.
        let scale = (-kappa * 1.0f64).exp() / 1.0;
        assert!((got - exact).abs() <= 1e-3 * scale);
    }

    #[test]
    fn translation_is_diagonal() {
        // Shifting the evaluation point multiplies every term by a phase:
        // eval(x+dx, y+dy, z+dz) equals the term-wise translated sum.
        let q = PlaneWaveQuad::build(QuadSpec::for_l2(1e-3, 0.0));
        let (x, y, z) = (0.7, -0.4, 1.6);
        let (dx, dy, dz) = (0.5, 0.25, 0.8);
        // Direct evaluation at the shifted point.
        let direct = q.eval(x + dx, y + dy, z + dz);
        // Term-wise: accumulate with translated complex coefficients.
        let mut acc = 0.0;
        for i in 0..q.num_terms() {
            let lam = q.lambda[i];
            let ph0 = lam * (x * q.cos_a[i] + y * q.sin_a[i]);
            let phd = lam * (dx * q.cos_a[i] + dy * q.sin_a[i]);
            let decay = (-q.s[i] * (z + dz)).exp();
            acc += q.w[i] * decay * (ph0 + phd).cos();
        }
        assert!((acc - direct).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn absurd_spec_rejected() {
        let _ = PlaneWaveQuad::build(QuadSpec {
            eps: 0.9,
            ..QuadSpec::for_l2(1e-3, 0.0)
        });
    }

    #[test]
    fn fit_grid_avoids_validation_sweep() {
        // No fit sample may be validated against: both the acceptance sweep
        // and the dense sweep of the integration tests must be off-grid.
        let uniform = |lo: f64, hi: f64, n: usize| -> Vec<f64> {
            (0..=n)
                .map(|i| lo + (hi - lo) * i as f64 / n as f64)
                .collect()
        };
        for spec in [
            QuadSpec::for_l2(1e-3, 0.0),
            QuadSpec::for_l2(1e-6, 0.0),
            QuadSpec::for_l2(1e-3, 0.03125),
            QuadSpec::for_l2(1e-3, 2.0),
        ] {
            let fit = FitGrid::new(&spec);
            for (nz, nrho) in [(VALIDATE_NZ, VALIDATE_NRHO), (29, 43)] {
                let vz = uniform(spec.z_min, spec.z_max, nz);
                let vr = uniform(0.0, spec.rho_max, nrho);
                for (fit_pts, val_pts) in [(&fit.z, &vz), (&fit.rho, &vr)] {
                    for a in fit_pts.iter() {
                        assert!(
                            val_pts.iter().all(|b| (a - b).abs() > 1e-9),
                            "fit point {a} is a validation point"
                        );
                    }
                }
            }
            // The grid reaches just past every edge of the region.
            assert!(fit.z[0] < spec.z_min && *fit.z.last().unwrap() > spec.z_max);
            assert!(*fit.rho.last().unwrap() > spec.rho_max);
        }
    }

    #[test]
    fn alpha_count_meets_its_budget() {
        // Brute-force the trapezoid error of the chosen count over x and θ.
        // The last two are a high-λ node: its damping is near its budget, so
        // a small count passes unless every aliased order is counted.
        for (x_max, damp, budget) in [
            (12.0, 1.0, 1e-4),
            (40.0, 0.3, 1e-7),
            (0.5, 1.0, 1e-3),
            (66.0, 1e-5, 1e-5),
            (100.0, 1e-5, 4e-6),
        ] {
            let m = alpha_count(x_max, damp, budget);
            assert!(m >= 2 && m.is_multiple_of(2));
            let mut worst = 0.0f64;
            for ix in 0..=200 {
                let x = x_max * ix as f64 / 200.0;
                for it in 0..=32 {
                    let th = std::f64::consts::FRAC_PI_2 * it as f64 / 32.0;
                    let avg = (0..m)
                        .map(|j| {
                            let a = std::f64::consts::TAU * j as f64 / m as f64;
                            (x * (a - th).cos()).cos()
                        })
                        .sum::<f64>()
                        / m as f64;
                    worst = worst.max((avg - j0(x)).abs());
                }
            }
            assert!(damp * worst <= budget * 1.01, "M={m}: {worst:e}");
            // And it is the smallest such even count, up to the sampling.
            if m > 2 {
                assert!(alpha_count(x_max, damp, budget * 1e3) < m);
            }
        }
    }
}
