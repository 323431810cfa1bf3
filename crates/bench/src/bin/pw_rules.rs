//! **Plane-wave rules** — derive every generalized-Gaussian exponential
//! rule the harness uses and record them in `results/planewave_rules.txt`.
//!
//! Each entry lists the λ nodes with their weights and trapezoid counts
//! `M_k`, the term count (`Σ M_k/2`, the length of one direction's
//! intermediate expansion), the validated error and the derivation time.
//! The rules are those of the Laplace kernel at 3 and 6 digits and of the
//! Yukawa kernel at 3 digits for every scaled screening `κ·side` from 1/32
//! to 2 (tree levels of a unit-screening problem on a side-2 domain).
//!
//! Run: `cargo run --release -p dashmm-bench --bin pw_rules [--out PATH]`
//!
//! `--check` derives every rule without writing anything and exits 1
//! unless each one validates and its term count equals the one recorded
//! in the committed file (`--out` names the file to compare against).

use std::fmt::Write as _;
use std::time::Instant;

use dashmm_kernels::{PlaneWaveQuad, QuadSpec};

const DEFAULT_OUT: &str = "results/planewave_rules.txt";

/// `(label, eps, scaled screening)` of every recorded rule.
const RULES: [(&str, f64, f64); 9] = [
    ("laplace", 1e-3, 0.0),
    ("laplace", 1e-6, 0.0),
    ("yukawa", 1e-3, 0.03125),
    ("yukawa", 1e-3, 0.0625),
    ("yukawa", 1e-3, 0.125),
    ("yukawa", 1e-3, 0.25),
    ("yukawa", 1e-3, 0.5),
    ("yukawa", 1e-3, 1.0),
    ("yukawa", 1e-3, 2.0),
];

fn header(label: &str, eps: f64, kappa: f64) -> String {
    format!("rule {label} eps={eps:e} kappa={kappa}")
}

fn usage() -> ! {
    eprintln!("usage: pw_rules [--check] [--out PATH]");
    std::process::exit(2);
}

fn main() {
    let mut check = false;
    let mut out = DEFAULT_OUT.to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--check" => check = true,
            "--out" => out = args.next().unwrap_or_else(|| usage()),
            _ => usage(),
        }
    }

    let mut text = String::from(
        "# Derived plane-wave rules (PlaneWaveQuad::build).\n\
         # Regenerate: cargo run --release -p dashmm-bench --bin pw_rules\n\
         # Per rule: λ nodes with weight (g(λ) folded in) and full-circle\n\
         # trapezoid count M; terms = Σ M/2.  Errors are relative to the\n\
         # kernel at the closest separation.\n",
    );
    let mut derived = Vec::new();
    let mut ok = true;
    for (label, eps, kappa) in RULES {
        let t = Instant::now();
        let q = PlaneWaveQuad::build(QuadSpec::for_l2(eps, kappa));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let head = header(label, eps, kappa);
        let valid = q.validated_error <= eps;
        ok &= valid;
        println!(
            "{head}: {} nodes, {} terms, validated error {:.3e} [{}], {ms:.1} ms",
            q.nodes().len(),
            q.num_terms(),
            q.validated_error,
            if valid { "ok" } else { "FAIL" }
        );
        let _ = writeln!(text, "\n{head}");
        let _ = writeln!(
            text,
            "terms {}  nodes {}  validated_error {:.3e}  derive_ms {ms:.1}",
            q.num_terms(),
            q.nodes().len(),
            q.validated_error
        );
        let _ = writeln!(
            text,
            "{:>4}  {:>22}  {:>22}  {:>4}",
            "k", "lambda", "weight", "M"
        );
        for (k, n) in q.nodes().iter().enumerate() {
            let _ = writeln!(
                text,
                "{k:>4}  {:>22.15e}  {:>22.15e}  {:>4}",
                n.lambda, n.weight, n.m
            );
        }
        derived.push((head, q.num_terms()));
    }

    if !check {
        if let Err(e) = std::fs::write(&out, text) {
            eprintln!("pw_rules: cannot write {out}: {e}");
            std::process::exit(1);
        }
        println!("wrote {out}");
        std::process::exit(if ok { 0 } else { 1 });
    }

    let committed = std::fs::read_to_string(&out).unwrap_or_else(|e| {
        eprintln!("pw_rules: cannot read {out}: {e}");
        std::process::exit(1);
    });
    let recorded = recorded_term_counts(&committed);
    for (head, terms) in &derived {
        match recorded.iter().find(|(h, _)| h == head) {
            Some((_, want)) if want == terms => {
                println!("{head}: {terms} terms match {out} [ok]")
            }
            Some((_, want)) => {
                println!("{head}: {terms} terms, {out} records {want} [MISMATCH]");
                ok = false;
            }
            None => {
                println!("{head}: not recorded in {out} [MISMATCH]");
                ok = false;
            }
        }
    }
    if recorded.len() != derived.len() {
        println!(
            "{out} records {} rules, derived {} [MISMATCH]",
            recorded.len(),
            derived.len()
        );
        ok = false;
    }
    std::process::exit(if ok { 0 } else { 1 });
}

/// `(rule header, term count)` pairs from a rules file.
fn recorded_term_counts(text: &str) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    let mut current: Option<String> = None;
    for line in text.lines() {
        if line.starts_with("rule ") {
            current = Some(line.trim().to_string());
        } else if let (Some(head), Some(rest)) = (current.as_ref(), line.strip_prefix("terms ")) {
            if let Some(n) = rest.split_whitespace().next().and_then(|v| v.parse().ok()) {
                out.push((head.clone(), n));
            }
            current = None;
        }
    }
    out
}
