//! The repository benchmark: three workloads that together exercise every
//! layer of dashmm, each timed from outside through the layers' public
//! functions (see `README.md` for the workloads, metrics and reconciliation
//! rules).
//!
//! A run of one workload yields one [`Outcome`]: the operations attempted
//! and failed (every output is verified outside the timed windows) plus a
//! set of named metrics.  An untraced run (`trace = false`) measures the
//! end-to-end metrics [`E2E`]; a traced run measures the per-layer metrics
//! [`LAYERS`].  Both lists are fixed: every workload reports every name,
//! with 0 for a layer the workload does not use.

mod fmm;
mod serve;

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use dashmm_dag::EdgeOp;

/// End-to-end metrics: `(name, unit)`, measured by an untraced run.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("eval_s", "s"),
    ("peak_heap_mib", "MiB"),
];

/// Per-layer metrics that are not per operator: `(name, unit)`, measured by
/// a traced run.  [`layer_names`] adds `op.<OP>.count` / `op.<OP>.busy_ms`.
pub(crate) const LAYER_BASE: &[(&str, &str)] = &[
    ("tree.build_ms", "ms"),
    ("tree.depth", "count"),
    ("tree.boxes", "count"),
    ("tables.build_ms", "ms"),
    ("tables.levels", "count"),
    ("eval.first_extra_ms", "ms"),
    ("dag.assemble_ms", "ms"),
    ("dag.distribute_ms", "ms"),
    ("dag.nodes", "count"),
    ("dag.edges", "count"),
    ("dag.remote_edges", "count"),
    ("amt.start_ms", "ms"),
    ("setup.other_ms", "ms"),
    ("exec.install_ms", "ms"),
    ("exec.seed_ms", "ms"),
    ("exec.run_ms", "ms"),
    ("exec.extract_ms", "ms"),
    ("eval.other_ms", "ms"),
    ("amt.tasks", "count"),
    ("amt.busy_frac", "1"),
    ("amt.nonop_ms", "ms"),
    ("kernel.ns_per_pair", "ns"),
    ("net.parcels", "count"),
    ("net.frames", "count"),
    ("net.parcels_per_frame", "count"),
    ("net.bytes", "B"),
    ("net.flush.size", "count"),
    ("net.flush.interval", "count"),
    ("net.flush.idle", "count"),
    ("net.retransmits", "count"),
    ("net.backpressure_stalls", "count"),
    ("net.max_queued_bytes", "B"),
    ("svc.queue_ms.p50", "ms"),
    ("svc.queue_ms.p99", "ms"),
    ("svc.fuse_ms.p50", "ms"),
    ("svc.compute_ms.p50", "ms"),
    ("svc.compute_ms.p99", "ms"),
    ("svc.reply_ms.p50", "ms"),
    ("svc.tiles", "count"),
    ("svc.requests_per_tile", "count"),
    ("svc.shed", "count"),
    ("svc.query_p50_ms", "ms"),
    ("svc.query_p99_ms", "ms"),
    ("svc.slo_frac", "1"),
    ("svc.step_p50_ms", "ms"),
    ("svc.tput_tps", "targets/s"),
    ("gen.late_p99_ms", "ms"),
    ("engine.m2t_ms", "ms"),
    ("engine.p2p_ms", "ms"),
    ("engine.far_pairs_per_target", "count"),
    ("engine.near_pairs_per_target", "count"),
    ("step.refit_ms", "ms"),
    ("step.recompute_ms", "ms"),
    ("step.lists_ms", "ms"),
    ("step.dag_ms", "ms"),
    ("step.dirty_frac", "1"),
    ("step.invalidated_edges", "count"),
    ("step.sweep_share", "1"),
    ("trace.overhead_frac", "1"),
];

/// Every per-layer metric `(name, unit)`, in output order.
pub fn layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = LAYER_BASE
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for op in EdgeOp::ALL {
        v.push((format!("op.{op:?}.count"), "count"));
        v.push((format!("op.{op:?}.busy_ms"), "ms"));
    }
    v
}

/// The workloads, by the names the command line takes.
pub const WORKLOADS: [&str; 3] = ["fmm-cube", "fmm-sphere-2rank", "serve-mixed"];

/// Problem sizes.  `full()` is what the benchmark measures; `smoke()`
/// runs the identical code paths at toy scale for the self-tests.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Sources and targets of `fmm-cube`.
    pub cube_points: usize,
    /// Sources and targets of `fmm-sphere-2rank`.
    pub sphere_points: usize,
    /// Resident sources of `serve-mixed`.
    pub serve_points: usize,
    /// Requests in one `serve-mixed` sweep.
    pub sweep_requests: usize,
    /// Rounds per FMM run, each a fresh set-up (their median is
    /// `setup_s` / `solve_s`) followed by steady evaluations.
    pub fmm_rounds: usize,
    /// Rounds per `serve-mixed` run (set-ups are cheaper, so more).
    pub serve_rounds: usize,
    /// Minimum steady samples per round, whatever the time budget.
    pub min_samples: usize,
}

impl Size {
    /// The benchmark's sizes.
    pub fn full() -> Self {
        Size {
            cube_points: 200_000,
            sphere_points: 100_000,
            serve_points: 20_000,
            sweep_requests: 160,
            fmm_rounds: 3,
            serve_rounds: 7,
            min_samples: 2,
        }
    }

    /// Toy sizes for the self-tests.
    pub fn smoke() -> Self {
        Size {
            cube_points: 3_000,
            sphere_points: 3_000,
            serve_points: 2_000,
            sweep_requests: 48,
            fmm_rounds: 2,
            serve_rounds: 2,
            min_samples: 1,
        }
    }
}

/// One run's verdict and metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations whose check failed (or that failed outright).
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<String, f64>,
}

impl Outcome {
    /// Record one checked operation.
    pub(crate) fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
    }

    /// Set a metric.
    pub(crate) fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// The reported metrics `(name, value, unit)` for a traced or untraced
    /// run: exactly the names of [`E2E`] or [`layer_names`], in that order.
    /// A missing end-to-end metric is an error; a missing per-layer metric
    /// is a layer this workload does not use and reads 0.
    pub fn metrics(&self, trace: bool) -> Result<Vec<(String, f64, &'static str)>, String> {
        if trace {
            Ok(layer_names()
                .into_iter()
                .map(|(n, u)| {
                    let v = self.values.get(&n).copied().unwrap_or(0.0);
                    (n, v, u)
                })
                .collect())
        } else {
            E2E.iter()
                .map(|&(n, u)| match self.values.get(n) {
                    Some(&v) if v.is_finite() && v > 0.0 => Ok((n.to_string(), v, u)),
                    other => Err(format!("end-to-end metric {n} not measured: {other:?}")),
                })
                .collect()
        }
    }
}

/// Run one workload.  `seconds` bounds the steady measurement window.
pub fn run_workload(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
) -> Result<Outcome, String> {
    let window = Duration::from_secs_f64(seconds);
    match workload {
        "fmm-cube" => fmm::run(fmm::Kind::Cube, seed, window, trace, size),
        "fmm-sphere-2rank" => fmm::run(fmm::Kind::Sphere2Rank, seed, window, trace, size),
        "serve-mixed" => serve::run(seed, window, trace, size),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Median of a sample (mean of the middle pair when even); 0 when empty,
/// which [`Outcome::metrics`] rejects for an end-to-end metric.
pub(crate) fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// Nearest-rank percentile `p` in `(0, 100]`; 0 for an empty sample.
pub(crate) fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Milliseconds elapsed since `t`.
pub(crate) fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A stream seed derived from the workload seed and a purpose tag, so every
/// input (sources, targets, charges, query batches, step moves) comes from
/// the one `--seed` without two inputs sharing a stream.
pub(crate) fn derive_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Relative L2 distance of `got` from `want` (0 when both are zero).
pub(crate) fn rel_err(got: &[f64], want: &[f64]) -> f64 {
    if got.len() != want.len() {
        return f64::INFINITY;
    }
    let num: f64 = got.iter().zip(want).map(|(a, b)| (a - b) * (a - b)).sum();
    let den: f64 = want.iter().map(|b| b * b).sum();
    if num == 0.0 {
        0.0
    } else {
        (num / den).sqrt()
    }
}

/// Hand freed heap pages back to the OS, so each set-up of a run starts
/// from the cold heap a fresh process has.  Without it, later set-ups
/// reuse earlier ones' pages and skip their page faults (a third two-rank
/// solve ran up to 30% faster than the first).
pub(crate) fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` only returns free heap memory to the
        // kernel; it takes no pointers and is thread-safe in glibc.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// The benchmark's global allocator: the system allocator plus a count
/// of live heap bytes and their high-water mark.  Heap bytes, unlike the
/// resident set, do not depend on how much freed memory glibc keeps
/// mapped: identical two-rank runs ended between 1.7 and 2.1 GiB resident
/// after `malloc_trim` and peaked between 2.4 and 3.2 GiB.
pub(crate) struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn note_alloc(bytes: usize) {
    // Relaxed: the counters are statistics and publish no other data.
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters only read sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` are passed through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`, since
        // every allocation of this allocator is `System`'s.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            note_alloc(new_size);
        }
        p
    }
}

/// Restart the heap high-water mark from the bytes live now.
pub(crate) fn reset_peak_heap() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Heap high-water mark since the last [`reset_peak_heap`], in MiB.
pub(crate) fn peak_heap_mib() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// The host and revision a result was measured on: `nproc`, CPU model,
/// the ISA flags the kernels dispatch on, and the git revision of the
/// checkout (`unknown` outside a git checkout).
pub fn fingerprint() -> BTreeMap<&'static str, String> {
    let mut f = BTreeMap::new();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    f.insert("nproc", nproc.to_string());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
    };
    f.insert(
        "cpu",
        field("model name").unwrap_or_else(|| "unknown".into()),
    );
    let flags = field("flags").unwrap_or_default();
    let isa: Vec<&str> = ["avx2", "fma", "avx512f"]
        .into_iter()
        .filter(|want| flags.split_whitespace().any(|f| f == *want))
        .collect();
    f.insert("isa", isa.join(","));
    f.insert(
        "git_rev",
        git_revision().unwrap_or_else(|| "unknown".into()),
    );
    f
}

fn git_revision() -> Option<String> {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}
