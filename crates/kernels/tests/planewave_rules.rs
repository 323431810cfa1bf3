//! Guards on the derived plane-wave rules: accuracy off every grid the
//! derivation saw, term-count ceilings, and bitwise determinism.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use dashmm_kernels::{PlaneWaveQuad, QuadSpec};

/// Rules derived so far, keyed by the bits of `(eps, κ)`.
type RuleCache = Mutex<HashMap<(u64, u64), Arc<PlaneWaveQuad>>>;

/// Derive each rule once per test binary.
fn rule(eps: f64, kappa: f64) -> Arc<PlaneWaveQuad> {
    static CACHE: OnceLock<RuleCache> = OnceLock::new();
    let key = (eps.to_bits(), kappa.to_bits());
    if let Some(q) = CACHE
        .get_or_init(Default::default)
        .lock()
        .unwrap()
        .get(&key)
    {
        return Arc::clone(q);
    }
    let q = Arc::new(PlaneWaveQuad::build(QuadSpec::for_l2(eps, kappa)));
    let mut map = CACHE.get().unwrap().lock().unwrap();
    Arc::clone(map.entry(key).or_insert(q))
}

const YUKAWA_KAPPAS: [f64; 4] = [0.03125, 0.25, 1.0, 2.0];

#[test]
fn every_rule_meets_eps_on_dense_off_grid_sweep() {
    let mut specs = vec![(1e-3, 0.0), (1e-6, 0.0)];
    specs.extend(YUKAWA_KAPPAS.iter().map(|&k| (1e-3, k)));
    for (eps, kappa) in specs {
        let q = rule(eps, kappa);
        // 30 × 44 × 18 points; these counts share no interior point with
        // the 12 × 24 × 6 acceptance sweep or the fit grid.
        let err = q.max_error_on_sweep(29, 43, 17);
        assert!(
            err <= eps,
            "eps={eps:e} κ={kappa}: dense-sweep error {err:.3e} (validated {:.3e})",
            q.validated_error
        );
    }
}

#[test]
fn term_counts_stay_under_ceilings() {
    let laplace3 = rule(1e-3, 0.0).num_terms();
    assert!(laplace3 <= 200, "Laplace 3-digit: {laplace3} terms");
    let laplace6 = rule(1e-6, 0.0).num_terms();
    assert!(laplace6 <= 1000, "Laplace 6-digit: {laplace6} terms");
    for kappa in [0.03125, 0.0625, 0.125, 0.25, 0.5, 1.0] {
        let n = rule(1e-3, kappa).num_terms();
        assert!(n <= 260, "Yukawa 3-digit κ={kappa}: {n} terms");
    }
}

#[test]
fn derivation_is_bitwise_deterministic() {
    let bits = |q: &PlaneWaveQuad| -> Vec<u64> {
        let mut v: Vec<u64> = q
            .nodes()
            .iter()
            .flat_map(|n| [n.lambda.to_bits(), n.weight.to_bits(), n.m as u64])
            .collect();
        for col in [&q.lambda, &q.s, &q.w, &q.cos_a, &q.sin_a] {
            v.extend(col.iter().map(|x| x.to_bits()));
        }
        v.push(q.validated_error.to_bits());
        v
    };
    for (eps, kappa) in [(1e-3, 0.0), (1e-3, 0.25)] {
        let a = PlaneWaveQuad::build(QuadSpec::for_l2(eps, kappa));
        let b = PlaneWaveQuad::build(QuadSpec::for_l2(eps, kappa));
        assert_eq!(bits(&a), bits(&b), "eps={eps:e} κ={kappa}");
    }
}

#[test]
fn nodes_expand_into_terms() {
    // The node list and the term arrays describe the same rule.
    let q = rule(1e-3, 0.25);
    let total: usize = q.nodes().iter().map(|n| n.m / 2).sum();
    assert_eq!(total, q.num_terms());
    assert!(q.nodes().windows(2).all(|p| p[0].lambda < p[1].lambda));
    assert!(q.nodes().iter().all(|n| n.m >= 2 && n.m.is_multiple_of(2)));
}
