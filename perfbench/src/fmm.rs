//! The two one-shot FMM workloads: `fmm-cube` (Laplace, 200 000 uniform
//! points, one locality with two workers) and `fmm-sphere-2rank` (Yukawa,
//! 100 000 points on a sphere surface, two ranks of one worker each over
//! the socket transport, joined in-process by a loopback TCP pair).
//! `fmm-cube` schedules FIFO, the builder's default; `fmm-sphere-2rank`
//! schedules under the computed priority lattice (`LatticeHint::uniform`),
//! so its ranks, graded task queues and class-keyed parcel flushes carry
//! the two-rank traffic.
//!
//! The untraced run goes through the public `DashmmBuilder` / `Evaluation`
//! API exactly as a user would.  The traced run rebuilds the same
//! evaluation layer by layer — `Problem::new`, `OperatorLibrary::tables`,
//! `assemble`, `FmmPolicy::assign`, `Runtime` start, then per evaluation
//! `ExecCtx::new`/`install`/`seed`, `Runtime::run`, `ExecCtx::extract` —
//! timing each call from outside, and alternates evaluations on an
//! untraced runtime and one at `ObsLevel::Counters` to price the tracing.

use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dashmm_amt::{ObsLevel, RunReport, Runtime, RuntimeConfig, Transport};
use dashmm_core::exec::ExecCtx;
use dashmm_core::{
    assemble, block_owner, Assembly, DashmmBuilder, Evaluation, Method, Problem, SchedPolicy,
};
use dashmm_dag::{DistributionPolicy, EdgeOp, FmmPolicy, LatticeHint, NodeClass};
use dashmm_expansion::{AccuracyParams, OperatorLibrary};
use dashmm_kernels::{direct_sum_at, Kernel, Laplace, Yukawa};
use dashmm_net::{CoalesceConfig, CommMetrics, FlushReason, SocketTransport};
use dashmm_obs::ClassCounters;
use dashmm_tree::{sphere_surface, uniform_cube, BuildParams, Point3};
use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{
    derive_seed, median, ms_since, peak_heap_mib, rel_err, release_freed_memory, reset_peak_heap,
    Outcome, Size,
};

/// Which FMM workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Kind {
    /// Laplace on a uniform cube, one locality.
    Cube,
    /// Yukawa on a sphere surface, two socket-connected ranks.
    Sphere2Rank,
}

/// Refinement threshold (the paper's 60).
const THRESHOLD: usize = 60;
/// Targets checked against direct summation after every evaluation.
const SAMPLE_TARGETS: usize = 64;
/// The paper's 3-digit accuracy, as relative L2 error over the sample.
const ACCURACY: f64 = 1e-3;
/// Two-rank merged potentials vs a single-process build.
const MERGE_TOL: f64 = 1e-12;
/// Collective / bootstrap timeout of the loopback transports.
const NET_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Clone, Copy)]
struct Spec {
    n: usize,
    sphere: bool,
    ranks: u32,
    workers: usize,
    /// Schedule under the computed priority lattice rather than FIFO.
    lattice: bool,
}

impl Spec {
    fn policy(&self) -> SchedPolicy {
        if self.lattice {
            SchedPolicy::Lattice(LatticeHint::uniform())
        } else {
            SchedPolicy::Fifo
        }
    }
}

/// Everything generated from the seed.
struct Inputs {
    sources: Vec<Point3>,
    targets: Vec<Point3>,
    charges: Vec<f64>,
    src_p3: Vec<[f64; 3]>,
    sample: Vec<usize>,
    seed: u64,
}

impl Inputs {
    fn new(spec: Spec, seed: u64) -> Self {
        let gen = if spec.sphere {
            sphere_surface
        } else {
            uniform_cube
        };
        let sources = gen(spec.n, derive_seed(seed, 1));
        let targets = gen(spec.n, derive_seed(seed, 2));
        let charges = Self::fresh_charges(spec.n, seed, 0);
        let src_p3 = sources.iter().map(|p| [p.x, p.y, p.z]).collect();
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, 3));
        let pick = Uniform::new(0.0, spec.n as f64);
        let sample = (0..SAMPLE_TARGETS.min(spec.n))
            .map(|_| (pick.sample(&mut rng) as usize).min(spec.n - 1))
            .collect();
        Inputs {
            sources,
            targets,
            charges,
            src_p3,
            sample,
            seed,
        }
    }

    /// Charges of evaluation `k` (0 = the build charges), uniform in
    /// `[-1, 1]`.
    fn fresh_charges(n: usize, seed: u64, k: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, 1000 + k));
        let u = Uniform::new_inclusive(-1.0, 1.0);
        (0..n).map(|_| u.sample(&mut rng)).collect()
    }

    fn charges(&self, k: u64) -> Vec<f64> {
        Self::fresh_charges(self.sources.len(), self.seed, k)
    }
}

/// Checks potentials on the seeded sample against `direct_sum_at`; returns
/// the relative error and the kernel's nanoseconds per source–target pair.
fn verify<K: Kernel>(kernel: &K, inp: &Inputs, charges: &[f64], pots: &[f64]) -> (f64, f64) {
    let t = Instant::now();
    let want: Vec<f64> = inp
        .sample
        .iter()
        .map(|&i| {
            let p = inp.targets[i];
            direct_sum_at(kernel, &inp.src_p3, charges, &[p.x, p.y, p.z])
        })
        .collect();
    let ns = t.elapsed().as_secs_f64() * 1e9 / (want.len() * inp.src_p3.len()) as f64;
    let got: Vec<f64> = inp
        .sample
        .iter()
        .map(|&i| pots.get(i).copied().unwrap_or(f64::NAN))
        .collect();
    (rel_err(&got, &want), ns)
}

/// A fully connected loopback pair of socket transports (rank 0, rank 1).
fn mesh() -> Result<Vec<Arc<SocketTransport>>, String> {
    let io = |e: std::io::Error| format!("loopback mesh: {e}");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let a = TcpStream::connect(listener.local_addr().map_err(io)?).map_err(io)?;
    let (b, _) = listener.accept().map_err(io)?;
    let cfg = CoalesceConfig::default();
    Ok(vec![
        Arc::new(SocketTransport::new(
            0,
            2,
            vec![None, Some(a)],
            cfg,
            NET_TIMEOUT,
        )),
        Arc::new(SocketTransport::new(
            1,
            2,
            vec![Some(b), None],
            cfg,
            NET_TIMEOUT,
        )),
    ])
}

/// Meet at a final barrier and stop every progress thread.
fn close(transports: &[Arc<SocketTransport>]) -> Result<(), String> {
    std::thread::scope(|s| {
        let hs: Vec<_> = transports
            .iter()
            .map(|t| {
                s.spawn(move || {
                    let r = t.barrier();
                    t.shutdown();
                    r
                })
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("transport close thread"))
            .collect::<Result<Vec<()>, _>>()
            .map(|_| ())
            .map_err(|e| format!("final barrier: {e}"))
    })
}

/// Run `f(rank)` for every rank concurrently (SPMD) and collect results.
fn per_rank<T: Send>(ranks: u32, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if ranks == 1 {
        return vec![f(0)];
    }
    std::thread::scope(|s| {
        let hs: Vec<_> = (0..ranks as usize)
            .map(|r| {
                let f = &f;
                s.spawn(move || f(r))
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("rank thread"))
            .collect()
    })
}

/// Sum the ranks' partial potentials (each rank owns a share of targets).
fn merge(parts: Vec<Vec<f64>>) -> Vec<f64> {
    let mut it = parts.into_iter();
    let mut sum = it.next().unwrap_or_default();
    for p in it {
        for (s, v) in sum.iter_mut().zip(p) {
            *s += v;
        }
    }
    sum
}

/// The evaluation as a user builds it: one `Evaluation` per rank.
struct Machine<K: Kernel> {
    evals: Vec<Evaluation<K>>,
    transports: Vec<Arc<SocketTransport>>,
}

impl<K: Kernel> Machine<K> {
    fn build(kernel: &K, spec: Spec, inp: &Inputs) -> Result<Self, String> {
        let transports = if spec.ranks > 1 { mesh()? } else { Vec::new() };
        let evals = per_rank(spec.ranks, |r| {
            let mut b = DashmmBuilder::new(kernel.clone())
                .method(Method::AdvancedFmm)
                .accuracy(AccuracyParams::three_digit())
                .threshold(THRESHOLD)
                .machine(spec.ranks as usize, spec.workers)
                .schedule(spec.policy());
            if let Some(t) = transports.get(r) {
                b = b.transport(Arc::clone(t) as Arc<dyn Transport>);
            }
            b.build(&inp.sources, &inp.charges, &inp.targets)
        });
        Ok(Machine { evals, transports })
    }

    /// Evaluate on every rank at once; `None` uses the build charges.
    fn evaluate(&self, charges: Option<&[f64]>) -> (Vec<f64>, bool) {
        let outs = per_rank(self.evals.len() as u32, |r| match charges {
            Some(c) => self.evals[r].evaluate_with_charges(c),
            None => self.evals[r].evaluate(),
        });
        let complete = outs.iter().all(|o| o.report.completed());
        (
            merge(outs.into_iter().map(|o| o.potentials).collect()),
            complete,
        )
    }

    fn close(self) -> Result<(), String> {
        close(&self.transports)
    }
}

/// Run one FMM workload.
pub(crate) fn run(
    kind: Kind,
    seed: u64,
    window: Duration,
    trace: bool,
    size: Size,
) -> Result<Outcome, String> {
    match kind {
        Kind::Cube => {
            let spec = Spec {
                n: size.cube_points,
                sphere: false,
                ranks: 1,
                workers: 2,
                lattice: false,
            };
            run_kernel(Laplace, spec, seed, window, trace, size)
        }
        Kind::Sphere2Rank => {
            let spec = Spec {
                n: size.sphere_points,
                sphere: true,
                ranks: 2,
                workers: 1,
                lattice: true,
            };
            run_kernel(Yukawa::new(1.0), spec, seed, window, trace, size)
        }
    }
}

fn run_kernel<K: Kernel>(
    kernel: K,
    spec: Spec,
    seed: u64,
    window: Duration,
    trace: bool,
    size: Size,
) -> Result<Outcome, String> {
    let inp = Inputs::new(spec, seed);
    let mut out = Outcome::default();
    if trace {
        traced(&kernel, spec, &inp, window, size, &mut out)?;
    } else {
        untraced(&kernel, spec, &inp, window, size, &mut out)?;
    }
    Ok(out)
}

/// Two-rank runs: the merged potentials must match a single-process build.
fn check_against_single<K: Kernel>(kernel: &K, inp: &Inputs, merged: &[f64], out: &mut Outcome) {
    let reference = DashmmBuilder::new(kernel.clone())
        .method(Method::AdvancedFmm)
        .accuracy(AccuracyParams::three_digit())
        .threshold(THRESHOLD)
        .machine(1, 2)
        .build(&inp.sources, &inp.charges, &inp.targets)
        .evaluate();
    let e = rel_err(merged, &reference.potentials);
    out.check(
        e <= MERGE_TOL,
        &format!("two-rank merged potentials vs single process: rel err {e:.2e}"),
    );
}

fn check_accuracy<K: Kernel>(
    kernel: &K,
    inp: &Inputs,
    charges: &[f64],
    pots: &[f64],
    complete: bool,
    out: &mut Outcome,
) -> f64 {
    let (e, ns) = verify(kernel, inp, charges, pots);
    out.check(
        complete && e <= ACCURACY,
        &format!("evaluation vs direct sum: rel err {e:.2e}, complete {complete}"),
    );
    ns
}

/// End-to-end metrics through the public API, in rounds.  A round is a
/// fresh build and first solve, then steady `evaluate_with_charges` calls
/// for its share of the window.  Spreading the set-ups over the run keeps
/// one slow spell of a shared host from landing on all of them.
fn untraced<K: Kernel>(
    kernel: &K,
    spec: Spec,
    inp: &Inputs,
    window: Duration,
    size: Size,
    out: &mut Outcome,
) -> Result<(), String> {
    let rounds = size.fmm_rounds;
    let share = window / rounds as u32;
    let (mut setup, mut solve, mut steady) = (Vec::new(), Vec::new(), Vec::new());
    let mut first_merged = None;
    let mut k = 0u64;
    for round in 0..rounds {
        release_freed_memory();
        reset_peak_heap();
        let t0 = Instant::now();
        let m = Machine::build(kernel, spec, inp)?;
        setup.push(t0.elapsed().as_secs_f64());
        let (pots, complete) = m.evaluate(None);
        solve.push(t0.elapsed().as_secs_f64());
        check_accuracy(kernel, inp, &inp.charges, &pots, complete, out);
        if round == 0 && spec.ranks > 1 {
            first_merged = Some(pots);
        }
        let start = Instant::now();
        let mut n = 0;
        while n < size.min_samples || start.elapsed() < share {
            k += 1;
            let charges = inp.charges(k);
            let t = Instant::now();
            let (pots, complete) = m.evaluate(Some(&charges));
            steady.push(t.elapsed().as_secs_f64());
            check_accuracy(kernel, inp, &charges, &pots, complete, out);
            n += 1;
        }
        if round == 0 {
            out.set("peak_heap_mib", peak_heap_mib());
        }
        m.close()?;
    }
    eprintln!("perfbench: samples (s): setup {setup:.3?} solve {solve:.3?} eval {steady:.3?}");
    out.set("setup_s", median(&setup));
    out.set("solve_s", median(&solve));
    out.set("eval_s", median(&steady));
    if let Some(merged) = first_merged {
        check_against_single(kernel, inp, &merged, out);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Traced run: the same evaluation, layer by layer.
// ---------------------------------------------------------------------------

/// Runtime slots of a rig: untraced and counted.
const OFF: usize = 0;
const COUNTED: usize = 1;

/// One rank's evaluation, assembled by hand.
struct Rig<K: Kernel> {
    problem: Arc<Problem>,
    lib: Arc<OperatorLibrary<K>>,
    asm: Arc<Assembly>,
    runtimes: [Arc<Runtime>; 2],
    policy: SchedPolicy,
}

/// Set-up layer times of one rank (ms).
#[derive(Default)]
struct SetupTimes {
    tree: f64,
    tables: f64,
    assemble: f64,
    distribute: f64,
    start: f64,
    wall: f64,
}

/// Evaluation layer times of one rank (ms).
#[derive(Default, Clone, Copy)]
struct EvalTimes {
    install: f64,
    seed: f64,
    run: f64,
    extract: f64,
    wall: f64,
}

fn runtime(spec: Spec, obs: ObsLevel, transport: Option<&Arc<SocketTransport>>) -> Arc<Runtime> {
    let cfg = RuntimeConfig {
        localities: spec.ranks as usize,
        workers_per_locality: spec.workers,
        priority_scheduling: spec.policy().graded(),
        obs,
    };
    match transport {
        Some(t) => Runtime::with_transport(cfg, Arc::clone(t) as Arc<dyn Transport>),
        None => Runtime::new(cfg),
    }
}

/// Build one rank's rig, timing each layer.  `nets[slot]` is this rank's
/// transport for that runtime slot (two-rank runs only).
fn build_rig<K: Kernel>(
    kernel: &K,
    spec: Spec,
    inp: &Inputs,
    nets: [Option<&Arc<SocketTransport>>; 2],
) -> (Rig<K>, SetupTimes) {
    let mut st = SetupTimes::default();
    let t_wall = Instant::now();

    let t = Instant::now();
    let problem = Arc::new(Problem::new(
        &inp.sources,
        &inp.charges,
        &inp.targets,
        BuildParams {
            threshold: THRESHOLD,
            max_level: 20,
        },
    ));
    st.tree = ms_since(t);

    let t = Instant::now();
    let lib = Arc::new(OperatorLibrary::new(
        kernel.clone(),
        AccuracyParams::three_digit(),
        problem.tree.domain().side(),
        Method::AdvancedFmm.uses_planewave(),
    ));
    let depth = problem
        .tree
        .source()
        .depth()
        .max(problem.tree.target().depth());
    for level in 0..=depth {
        lib.tables(level);
    }
    st.tables = ms_since(t);

    let t = Instant::now();
    let mut asm = assemble(&problem, Method::AdvancedFmm, &lib);
    st.assemble = ms_since(t);

    let t = Instant::now();
    let n_loc = spec.ranks;
    let owner = |class: NodeClass, box_id: u32| -> u32 {
        let tree = match class {
            NodeClass::S | NodeClass::M | NodeClass::Is => problem.tree.source(),
            _ => problem.tree.target(),
        };
        block_owner(tree.node(box_id).first, tree.points().len(), n_loc)
    };
    FmmPolicy::default().assign(&mut asm.dag, n_loc, &owner);
    st.distribute = ms_since(t);

    let t = Instant::now();
    let counted = runtime(spec, ObsLevel::Counters, nets[COUNTED]);
    st.start = ms_since(t);
    st.wall = ms_since(t_wall);

    // The untraced twin is outside the set-up wall: the public build
    // starts one runtime, not two.
    let off = runtime(spec, ObsLevel::Off, nets[OFF]);
    let rig = Rig {
        problem,
        lib,
        asm: Arc::new(asm),
        runtimes: [off, counted],
        policy: spec.policy(),
    };
    (rig, st)
}

/// One evaluation on runtime `slot`, timed call by call.  Mirrors
/// `Evaluation::evaluate_with_charges`.
fn eval_rig<K: Kernel>(
    rig: &Rig<K>,
    slot: usize,
    charges: &[f64],
) -> (Vec<f64>, RunReport, EvalTimes) {
    let rt = &rig.runtimes[slot];
    let mut et = EvalTimes::default();
    let t_wall = Instant::now();
    rt.reset();
    let morton: Vec<f64> = rig
        .problem
        .tree
        .source()
        .permutation()
        .iter()
        .map(|&i| charges[i as usize])
        .collect();

    let t = Instant::now();
    let exec = ExecCtx::new(
        Arc::clone(&rig.problem),
        Arc::clone(&rig.lib),
        Arc::clone(&rig.asm),
        rig.policy.clone(),
        false,
        morton,
    );
    exec.install(rt);
    et.install = ms_since(t);

    let t = Instant::now();
    exec.seed(rt);
    et.seed = ms_since(t);

    let t = Instant::now();
    let report = rt.run();
    et.run = ms_since(t);

    let t = Instant::now();
    let (pots, _) = exec.extract(rt);
    et.extract = ms_since(t);

    let pots = rig.problem.unsort_potentials(&pots);
    et.wall = ms_since(t_wall);
    (pots, report, et)
}

/// Per-layer metrics from the hand-assembled evaluation.
fn traced<K: Kernel>(
    kernel: &K,
    spec: Spec,
    inp: &Inputs,
    window: Duration,
    size: Size,
    out: &mut Outcome,
) -> Result<(), String> {
    // Two-rank runs: one loopback mesh per runtime slot.
    let nets: Vec<Vec<Arc<SocketTransport>>> = if spec.ranks > 1 {
        vec![mesh()?, mesh()?]
    } else {
        Vec::new()
    };
    let net = |slot: usize, r: usize| nets.get(slot).map(|m| &m[r]);
    let built = per_rank(spec.ranks, |r| {
        build_rig(kernel, spec, inp, [net(OFF, r), net(COUNTED, r)])
    });
    let (rigs, setups): (Vec<_>, Vec<_>) = built.into_iter().unzip();
    let st = &setups[0];
    let rig0 = &rigs[0];
    let src = rig0.problem.tree.source();
    let tgt = rig0.problem.tree.target();
    out.set("tree.build_ms", st.tree);
    out.set("tree.depth", src.depth().max(tgt.depth()) as f64);
    out.set("tree.boxes", (src.num_nodes() + tgt.num_nodes()) as f64);
    out.set("tables.build_ms", st.tables);
    out.set("tables.levels", rig0.lib.built_levels() as f64);
    out.set("dag.assemble_ms", st.assemble);
    out.set("dag.distribute_ms", st.distribute);
    out.set("dag.nodes", rig0.asm.dag.num_nodes() as f64);
    out.set("dag.edges", rig0.asm.dag.num_edges() as f64);
    out.set("dag.remote_edges", rig0.asm.dag.remote_edge_count() as f64);
    out.set("amt.start_ms", st.start);
    out.set(
        "setup.other_ms",
        st.wall - (st.tree + st.tables + st.assemble + st.distribute + st.start),
    );

    let eval_all = |slot: usize, charges: &[f64]| {
        let res = per_rank(spec.ranks, |r| eval_rig(&rigs[r], slot, charges));
        release_freed_memory();
        let complete = res.iter().all(|(_, rep, _)| rep.completed());
        let times: Vec<EvalTimes> = res.iter().map(|(_, _, t)| *t).collect();
        let reports: Vec<(u64, ClassCounters)> = res
            .iter()
            .map(|(_, rep, _)| (rep.tasks, rep.counters))
            .collect();
        let pots = merge(res.into_iter().map(|(p, _, _)| p).collect());
        (pots, complete, times, reports)
    };

    // First evaluation: build charges, untraced runtime, cold caches.
    let (pots, complete, times, _) = eval_all(OFF, &inp.charges);
    let first_ms = times[0].wall;
    let mut ns_per_pair = vec![check_accuracy(
        kernel,
        inp,
        &inp.charges,
        &pots,
        complete,
        out,
    )];
    let first_merged = pots;

    let comm = |slot: usize| -> Vec<CommMetrics> {
        nets.get(slot)
            .map(|m| m.iter().map(|t| t.metrics()).collect())
            .unwrap_or_default()
    };
    let comm_before = comm(COUNTED);

    let workers = (spec.ranks as usize * spec.workers) as f64;
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut parts: [Vec<f64>; 5] = Default::default();
    let mut tasks = Vec::new();
    let mut busy_frac = Vec::new();
    let mut nonop = Vec::new();
    let mut op_count = [0.0f64; EdgeOp::COUNT];
    let mut op_busy = [0.0f64; EdgeOp::COUNT];
    let start = Instant::now();
    let mut k = 1u64;
    while traced_ms.len() < size.min_samples || start.elapsed() < window {
        for slot in [OFF, COUNTED] {
            let charges = inp.charges(k);
            k += 1;
            let (pots, complete, times, reports) = eval_all(slot, &charges);
            ns_per_pair.push(check_accuracy(kernel, inp, &charges, &pots, complete, out));
            let t0 = times[0];
            if slot == OFF {
                untraced_ms.push(t0.wall);
                continue;
            }
            traced_ms.push(t0.wall);
            parts[0].push(t0.install);
            parts[1].push(t0.seed);
            parts[2].push(t0.run);
            parts[3].push(t0.extract);
            parts[4].push(t0.wall - (t0.install + t0.seed + t0.run + t0.extract));
            let run_ms = times.iter().map(|t| t.run).fold(0.0, f64::max);
            let mut busy_ms = 0.0;
            for (_, counters) in &reports {
                // Trace classes `0..EdgeOp::COUNT` are the operators, by
                // `EdgeOp::index`.
                for op in EdgeOp::ALL {
                    let stat = counters.0[op.index()];
                    op_count[op.index()] += stat.count as f64;
                    op_busy[op.index()] += stat.total_ns as f64 / 1e6;
                    busy_ms += stat.total_ns as f64 / 1e6;
                }
            }
            tasks.push(reports.iter().map(|(t, _)| *t as f64).sum());
            busy_frac.push(busy_ms / (workers * run_ms));
            nonop.push(workers * run_ms - busy_ms);
        }
    }
    let n = traced_ms.len() as f64;
    for (name, v) in [
        "exec.install_ms",
        "exec.seed_ms",
        "exec.run_ms",
        "exec.extract_ms",
        "eval.other_ms",
    ]
    .iter()
    .zip(&parts)
    {
        out.set(name, median(v));
    }
    out.set("amt.tasks", median(&tasks));
    out.set("amt.busy_frac", median(&busy_frac));
    out.set("amt.nonop_ms", median(&nonop));
    for op in EdgeOp::ALL {
        out.set(&format!("op.{op:?}.count"), op_count[op.index()] / n);
        out.set(&format!("op.{op:?}.busy_ms"), op_busy[op.index()] / n);
    }
    out.set("kernel.ns_per_pair", median(&ns_per_pair));
    out.set("eval.first_extra_ms", first_ms - median(&untraced_ms));
    out.set(
        "trace.overhead_frac",
        median(&traced_ms) / median(&untraced_ms) - 1.0,
    );
    set_net_metrics(&comm_before, &comm(COUNTED), n, out);

    for m in &nets {
        close(m)?;
    }
    drop(rigs);
    release_freed_memory();
    if spec.ranks > 1 {
        check_against_single(kernel, inp, &first_merged, out);
    }
    Ok(())
}

/// Transport counters per counted evaluation, summed over ranks.
fn set_net_metrics(before: &[CommMetrics], after: &[CommMetrics], evals: f64, out: &mut Outcome) {
    let sum = |f: &dyn Fn(&CommMetrics) -> u64| -> f64 {
        let a: u64 = after.iter().map(f).sum();
        let b: u64 = before.iter().map(f).sum();
        a.saturating_sub(b) as f64 / evals
    };
    let parcels = sum(&|m| m.parcels_sent());
    let frames = sum(&|m| m.frames_sent());
    out.set("net.parcels", parcels);
    out.set("net.frames", frames);
    out.set(
        "net.parcels_per_frame",
        if frames > 0.0 { parcels / frames } else { 0.0 },
    );
    out.set(
        "net.bytes",
        sum(&|m| m.per_dest.iter().map(|d| d.bytes).sum()),
    );
    out.set(
        "net.flush.size",
        sum(&|m| m.flush_reasons[FlushReason::Size as usize]),
    );
    out.set(
        "net.flush.interval",
        sum(&|m| m.flush_reasons[FlushReason::Interval as usize]),
    );
    out.set(
        "net.flush.idle",
        sum(&|m| m.flush_reasons[FlushReason::Idle as usize]),
    );
    out.set("net.retransmits", sum(&|m| m.retransmit_frames));
    out.set("net.backpressure_stalls", sum(&|m| m.backpressure_stalls));
    out.set(
        "net.max_queued_bytes",
        after
            .iter()
            .map(|m| m.max_queued_bytes as f64)
            .fold(0.0, f64::max),
    );
}
