//! Interaction kernels and numerical quadratures for `dashmm-rs`.
//!
//! The paper evaluates two interaction types (§V-A): the scale-invariant
//! **Laplace** kernel `1/r` (electrostatics / Newtonian gravity) and the
//! scale-variant **Yukawa** kernel `e^{-λr}/r` (screened Coulomb).  This
//! crate provides:
//!
//! * the [`Kernel`] trait with [`Laplace`], [`Yukawa`] and [`Gauss`]
//!   implementations — including batched `eval_into`/`deriv_into` slice
//!   APIs over squared separations with runtime-detected AVX2+FMA
//!   vectorizations ([`simd`]) and portable scalar fallbacks,
//! * a parallel **direct summation** oracle ([`direct::direct_sum`]) used to
//!   validate every multipole method against the exact O(N²) answer,
//! * [`gauss::gauss_legendre`] nodes/weights,
//! * [`sommerfeld::PlaneWaveQuad`] — generalized-Gaussian discretisations
//!   of the Sommerfeld integral representation of both kernels, derived
//!   for any accuracy and scaled screening and validated before use; they
//!   are the mathematical substrate of the plane-wave (intermediate, `I`)
//!   expansions of the merge-and-shift technique.

mod bessel;
pub mod direct;
pub mod gauss;
pub mod kernel;
pub mod simd;
pub mod sommerfeld;

pub use direct::{direct_sum, direct_sum_at};
pub use gauss::gauss_legendre;
pub use kernel::{Gauss, Kernel, KernelKind, Laplace, Yukawa};
pub use simd::simd_kernels_active;
pub use sommerfeld::{LambdaNode, PlaneWaveQuad, QuadSpec};
