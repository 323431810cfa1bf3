//! `serve-mixed`: an in-process stepping evaluation server
//! (`EvalServer::bind_stepping` over the bench library's
//! `SteppingResident`) driven by one client connection with a sending and
//! a receiving thread, speaking the public wire codec so requests are
//! pipelined and never wait for replies.
//!
//! Two traffic shapes, both mixing reads with writes (`StepSources` frames
//! that move 5% of the sources, with alternating sign so the ensemble does
//! not drift; a step holds the engine's write lock while it refits):
//!
//! - a *sweep* evaluates a fixed target set, keeping [`WINDOW`] queries
//!   outstanding and sending a step after every [`READS_PER_STEP`] queries —
//!   the closed-window saturation measurement behind `eval_s`;
//! - the *open loop* offers queries at [`RATE_HZ`], with the same step
//!   after every [`READS_PER_STEP`] queries, whatever the server does, and
//!   times each request from its due time (traced runs only).
//!
//! Every rate, size and interval is a constant: none is derived from
//! measured capacity, so a faster build gets the same load.  After the
//! timed phases every response is replayed against a reference engine the
//! benchmark steps itself; a query passes if it matches (to 1e-12) the
//! reference at any step state it could have observed.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use dashmm_bench::service::{ServiceWorkload, SteppingResident};
use dashmm_core::{ResidentFmm, StepReport};
use dashmm_kernels::{direct_sum_at, Laplace};
use dashmm_net::service::{encode_request, encode_step_request};
use dashmm_net::wire::{encode_frame, FrameDecoder};
use dashmm_net::{
    decode_response, EvalServer, FrameKind, PhaseBreakdown, RespStatus, ServiceConfig,
};
use dashmm_refit::Displacement;
use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{
    derive_seed, median, peak_heap_mib, percentile, rel_err, release_freed_memory, reset_peak_heap,
    Outcome, Size,
};

// The basis of each constant, with the costs it was sized from, is in
// README.md under "serve-mixed".

/// Targets per query.
const BATCH: usize = 64;
/// Queries kept outstanding during a sweep: one full fused tile of the
/// server's default 1024-target budget, so the eval worker always has the
/// next tile queued while it computes one.
const WINDOW: usize = 16;
/// Queries per step, in both traffic shapes: the modelled client probes
/// `READS_PER_STEP * BATCH` targets between two source steps.
const READS_PER_STEP: usize = 20;
/// Open-loop offered query rate, about half of one eval worker's
/// capacity; with [`READS_PER_STEP`] it offers a step every 100 ms.
const RATE_HZ: f64 = 200.0;
/// Open-loop latency limit: a query slower than this, failed or shed
/// misses it.
const SLO_MS: f64 = 25.0;
/// Share of sources a step moves, and the scale of a move.
const MOVE_FRAC: f64 = 0.05;
const MOVE_SCALE: f64 = 1e-3;
/// Queries per reference evaluation when replaying.
const REPLAY_TILE: usize = 16;
/// Responses must match the reference to this relative L2 error.
const TOL: f64 = 1e-12;
/// A response slower than this is a lost server.
const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// Client ids of the two query streams (they seed the target batches).
const SWEEP_CLIENT: u32 = 0;
const OPEN_CLIENT: u32 = 1;

/// The moves of step `s` (1-based): steps `2j+1` and `2j+2` move the same
/// seeded 5% of sources by `+d` and `-d`.
fn step_moves(seed: u64, n: usize, s: u32) -> Vec<(u32, [f64; 3])> {
    let pair = u64::from((s - 1) / 2);
    let sign = if s % 2 == 1 { 1.0 } else { -1.0 };
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 10_000 + pair));
    let u = Uniform::new(0.0, 1.0);
    let d = Uniform::new_inclusive(-MOVE_SCALE, MOVE_SCALE);
    let mut moves = Vec::new();
    for i in 0..n as u32 {
        if u.sample(&mut rng) < MOVE_FRAC {
            let delta = [d.sample(&mut rng), d.sample(&mut rng), d.sample(&mut rng)];
            moves.push((i, delta.map(|x| sign * x)));
        }
    }
    moves
}

/// One query's log entry.  `lo..=hi` are the step states it could have
/// observed: `lo` steps were applied before it was read (the server reads
/// a connection's frames in order and applies a step before reading on),
/// and at most `hi` had been sent when its answer arrived.
struct QueryRec {
    client: u32,
    req: u32,
    lo: u32,
    hi: u32,
    potentials: Option<Vec<f64>>,
    latency_ms: f64,
    phases: PhaseBreakdown,
}

/// What one phase of traffic produced.
#[derive(Default)]
struct PhaseLog {
    queries: Vec<QueryRec>,
    step_ms: Vec<f64>,
    steps_failed: usize,
    late_ms: Vec<f64>,
}

enum Plan {
    /// `requests` queries over the sweep target set, at most `window` of
    /// them outstanding, with a step after every [`READS_PER_STEP`] if
    /// `steps`.
    Sweep {
        requests: usize,
        window: usize,
        steps: bool,
    },
    /// Fixed-rate queries and steps for `duration`.
    Open { duration: Duration },
}

#[derive(Clone, Copy)]
enum Sent {
    Query {
        client: u32,
        req: u32,
        lo: u32,
        due: Instant,
    },
    Step {
        due: Instant,
    },
}

/// Requests in flight on the connection, shared by the two client threads.
#[derive(Default)]
struct Flight {
    pending: HashMap<u64, Sent>,
    queries_out: usize,
    sender_done: bool,
    aborted: bool,
}

/// The two client threads' meeting point.
#[derive(Default)]
struct Shared {
    flight: Mutex<Flight>,
    cv: Condvar,
}

impl Shared {
    fn lock(&self) -> std::sync::MutexGuard<'_, Flight> {
        self.flight.lock().expect("flight lock")
    }
}

/// A stepping server with one connected client.
struct Session {
    engine: Arc<SteppingResident>,
    server: EvalServer,
    stream: TcpStream,
    next_id: u64,
    next_open_req: u32,
    steps: AtomicU32,
    log: PhaseLog,
}

impl Session {
    fn start(wl: &ServiceWorkload) -> Result<Self, String> {
        let engine = Arc::new(SteppingResident::new(wl.build_engine()));
        let cfg = ServiceConfig {
            eval_workers: 1,
            ..ServiceConfig::default()
        };
        let server = EvalServer::bind_stepping("127.0.0.1:0", engine.clone(), cfg)
            .map_err(|e| format!("bind: {e}"))?;
        let stream = TcpStream::connect(("127.0.0.1", server.port()))
            .map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        Ok(Session {
            engine,
            server,
            stream,
            next_id: 1,
            next_open_req: 0,
            steps: AtomicU32::new(0),
            log: PhaseLog::default(),
        })
    }

    fn close(mut self) -> PhaseLog {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        self.server.shutdown();
        self.log
    }

    /// Drive one phase; its records are appended to the session log and
    /// its wall time (first send to last answer, seconds) returned.
    fn drive(&mut self, wl: &ServiceWorkload, plan: Plan) -> Result<f64, String> {
        let shared = Shared::default();
        let writer = self.stream.try_clone().map_err(|e| e.to_string())?;
        let reader = self.stream.try_clone().map_err(|e| e.to_string())?;
        let mut ids = self.next_id;
        let mut open_req = self.next_open_req;
        let steps = &self.steps;
        let start = Instant::now();
        let (send_res, recv_res) = std::thread::scope(|s| {
            let shared = &shared;
            let (ids, open_req) = (&mut ids, &mut open_req);
            let sender = s.spawn(move || {
                let mut tx = Sender {
                    wl,
                    shared,
                    steps,
                    writer,
                    next_id: ids,
                    late_ms: Vec::new(),
                };
                let res = tx.run(plan, start, open_req);
                shared.lock().sender_done = true;
                shared.cv.notify_all();
                (res, tx.late_ms)
            });
            let receiver = s.spawn(move || receive(shared, steps, reader));
            let recv = receiver.join().expect("receiver thread");
            if recv.is_err() {
                shared.lock().aborted = true;
                shared.cv.notify_all();
            }
            let (send, late) = sender.join().expect("sender thread");
            (send.map(|()| late), recv)
        });
        self.next_id = ids;
        self.next_open_req = open_req;
        let late = send_res?;
        let (queries, step_ms, steps_failed, last) = recv_res?;
        let seconds = last.duration_since(start).as_secs_f64();
        self.log.queries.extend(queries);
        self.log.step_ms.extend(step_ms);
        self.log.steps_failed += steps_failed;
        self.log.late_ms.extend(late);
        Ok(seconds)
    }
}

struct Sender<'a> {
    wl: &'a ServiceWorkload,
    shared: &'a Shared,
    steps: &'a AtomicU32,
    writer: TcpStream,
    next_id: &'a mut u64,
    late_ms: Vec<f64>,
}

impl Sender<'_> {
    /// Register the request before writing it, so an answer can never
    /// arrive for an unknown id.  `body` encodes the frame body for an id.
    fn send(
        &mut self,
        sent: Sent,
        kind: FrameKind,
        body: impl FnOnce(u64) -> Vec<u8>,
    ) -> Result<(), String> {
        let id = *self.next_id;
        *self.next_id += 1;
        {
            let mut f = self.shared.lock();
            if matches!(sent, Sent::Query { .. }) {
                f.queries_out += 1;
            }
            f.pending.insert(id, sent);
        }
        self.shared.cv.notify_all();
        self.writer
            .write_all(&encode_frame(kind, 0, &body(id)))
            .map_err(|e| format!("send: {e}"))
    }

    fn query(&mut self, client: u32, req: u32, due: Instant) -> Result<(), String> {
        let targets = self.wl.request_targets(client, req, BATCH);
        let lo = self.steps.load(Ordering::SeqCst);
        let sent = Sent::Query {
            client,
            req,
            lo,
            due,
        };
        self.send(sent, FrameKind::EvalRequest, |id| {
            encode_request(id, 0, &targets)
        })
    }

    fn step(&mut self, due: Instant) -> Result<(), String> {
        // Counted before the write: a query's `hi` may overstate the
        // steps it saw, never understate them.
        let s = self.steps.fetch_add(1, Ordering::SeqCst) + 1;
        let moves = step_moves(self.wl.seed, self.wl.points, s);
        self.send(Sent::Step { due }, FrameKind::StepSources, |id| {
            encode_step_request(id, 0, &moves, &[])
        })
    }

    fn run(&mut self, plan: Plan, start: Instant, open_req: &mut u32) -> Result<(), String> {
        match plan {
            Plan::Sweep {
                requests,
                window,
                steps,
            } => {
                for r in 0..requests {
                    {
                        let mut f = self.shared.lock();
                        while f.queries_out >= window && !f.aborted {
                            f = self.shared.cv.wait(f).expect("window wait");
                        }
                        if f.aborted {
                            return Err("receiver failed".into());
                        }
                    }
                    self.query(SWEEP_CLIENT, r as u32, Instant::now())?;
                    if steps && (r + 1) % READS_PER_STEP == 0 {
                        self.step(Instant::now())?;
                    }
                }
            }
            Plan::Open { duration } => {
                for q in 0.. {
                    let due = start + Duration::from_secs_f64(f64::from(q) / RATE_HZ);
                    if due - start >= duration {
                        break;
                    }
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    self.late_ms.push(due.elapsed().as_secs_f64() * 1e3);
                    self.query(OPEN_CLIENT, *open_req, due)?;
                    *open_req += 1;
                    if (q + 1) % READS_PER_STEP as u32 == 0 {
                        self.step(due)?;
                    }
                }
            }
        }
        Ok(())
    }
}

type Received = (Vec<QueryRec>, Vec<f64>, usize, Instant);

/// Read answers until the sender is done and nothing is outstanding.
fn receive(shared: &Shared, steps: &AtomicU32, mut reader: TcpStream) -> Result<Received, String> {
    let mut queries = Vec::new();
    let mut step_ms = Vec::new();
    let mut steps_failed = 0;
    let mut dec = FrameDecoder::new();
    let mut buf = vec![0u8; 64 * 1024];
    let mut last = Instant::now();
    loop {
        let frame = match dec.next_frame().map_err(|e| format!("bad frame: {e}"))? {
            Some(f) => f,
            None => {
                {
                    let mut f = shared.lock();
                    while f.pending.is_empty() && !f.sender_done {
                        f = shared.cv.wait(f).expect("flight wait");
                    }
                    if f.pending.is_empty() {
                        return Ok((queries, step_ms, steps_failed, last));
                    }
                }
                match reader.read(&mut buf) {
                    Ok(0) => return Err("server closed the connection".into()),
                    Ok(n) => dec.push(&buf[..n]),
                    Err(e) => return Err(format!("receive: {e}")),
                }
                continue;
            }
        };
        if frame.kind != FrameKind::EvalResponse {
            return Err(format!("unexpected frame {:?}", frame.kind));
        }
        let resp = decode_response(&frame.body).map_err(|e| format!("bad response: {e}"))?;
        last = Instant::now();
        let sent = {
            let mut f = shared.lock();
            let sent = f.pending.remove(&resp.req_id);
            if matches!(sent, Some(Sent::Query { .. })) {
                f.queries_out -= 1;
            }
            sent
        };
        shared.cv.notify_all();
        match sent {
            None => return Err(format!("answer to unknown request {}", resp.req_id)),
            Some(Sent::Step { due }) => {
                step_ms.push(ms(last, due));
                if resp.status != RespStatus::Ok {
                    steps_failed += 1;
                }
            }
            Some(Sent::Query {
                client,
                req,
                lo,
                due,
            }) => queries.push(QueryRec {
                client,
                req,
                lo,
                hi: steps.load(Ordering::SeqCst),
                latency_ms: ms(last, due),
                phases: resp.phases,
                potentials: (resp.status == RespStatus::Ok).then_some(resp.potentials),
            }),
        }
    }
}

fn ms(later: Instant, earlier: Instant) -> f64 {
    later.saturating_duration_since(earlier).as_secs_f64() * 1e3
}

/// What replaying the log against the reference engine measured.
#[derive(Default)]
struct Replay {
    failed: u64,
    checked: u64,
    m2t_ms: f64,
    p2p_ms: f64,
    far_pairs: f64,
    near_pairs: f64,
    targets: f64,
    steps: Vec<StepReport>,
    ns_per_pair: f64,
}

/// Check every logged answer against a reference engine stepped through
/// the same step sequence.  All sessions start from the same state and
/// apply the same numbered steps, so one replay covers them all, and a
/// query that several sessions sent at the same state is evaluated once.
fn replay(wl: &ServiceWorkload, logs: &[PhaseLog]) -> Replay {
    let t0 = Instant::now();
    let mut fmm = wl.build_engine();
    let recs: Vec<&QueryRec> = logs.iter().flat_map(|l| &l.queries).collect();
    let mut matched = vec![false; recs.len()];
    let mut rep = Replay::default();
    let mut evaluated = 0;
    let last = recs.iter().map(|r| r.hi).max().unwrap_or(0);
    for s in 0..=last {
        let due: Vec<usize> = (0..recs.len())
            .filter(|&i| !matched[i] && recs[i].potentials.is_some())
            .filter(|&i| recs[i].lo <= s && s <= recs[i].hi)
            .collect();
        let mut keys: Vec<(u32, u32)> =
            due.iter().map(|&i| (recs[i].client, recs[i].req)).collect();
        keys.sort_unstable();
        keys.dedup();
        evaluated += keys.len();
        let want = evaluate_at_state(wl, &fmm, &keys, &mut rep);
        for &i in &due {
            let w = &want[&(recs[i].client, recs[i].req)];
            matched[i] = rel_err(recs[i].potentials.as_deref().unwrap_or(&[]), w) <= TOL;
        }
        if s < last {
            let moves: Vec<Displacement> = step_moves(wl.seed, wl.points, s + 1)
                .into_iter()
                .map(|(index, delta)| Displacement { index, delta })
                .collect();
            rep.steps.push(fmm.step(&moves, &[]));
        }
    }
    eprintln!(
        "perfbench: replayed {} answers with {} evaluations over {} steps in {:.1} s",
        recs.len(),
        evaluated,
        last,
        t0.elapsed().as_secs_f64()
    );
    rep.checked = recs.len() as u64;
    rep.failed = matched.iter().filter(|&&m| !m).count() as u64;
    rep.ns_per_pair = kernel_ns_per_pair(wl, &fmm);
    rep
}

/// The reference's answers to the queries `keys` (`(client, req)`) at its
/// current state, evaluated in tiles of [`REPLAY_TILE`] queries split over
/// two threads; the tiles' profiles are added to `rep`.  The engine's
/// answers do not depend on how targets are batched, so each query's slice
/// must match what the server sent for it.
fn evaluate_at_state(
    wl: &ServiceWorkload,
    fmm: &ResidentFmm<Laplace>,
    keys: &[(u32, u32)],
    rep: &mut Replay,
) -> HashMap<(u32, u32), Vec<f64>> {
    let tile = |keys: &[(u32, u32)]| {
        let targets: Vec<[f64; 3]> = keys
            .iter()
            .flat_map(|&(client, req)| wl.request_targets(client, req, BATCH))
            .collect();
        let mut want = vec![0.0; targets.len()];
        let prof = fmm.evaluate_profiled(&targets, &mut want);
        (want, prof)
    };
    let tiles: Vec<&[(u32, u32)]> = keys.chunks(REPLAY_TILE).collect();
    let half = tiles.len() / 2;
    let results = std::thread::scope(|s| {
        let h = s.spawn(|| tiles[half..].iter().map(|t| tile(t)).collect::<Vec<_>>());
        let mut v: Vec<_> = tiles[..half].iter().map(|t| tile(t)).collect();
        v.extend(h.join().expect("replay thread"));
        v
    });
    let mut want = HashMap::new();
    for (ks, (pots, prof)) in tiles.iter().zip(results) {
        for (&key, w) in ks.iter().zip(pots.chunks(BATCH)) {
            want.insert(key, w.to_vec());
        }
        rep.m2t_ms += prof.m2t_us / 1e3;
        rep.p2p_ms += prof.p2p_us / 1e3;
        rep.far_pairs += prof.far_pairs as f64;
        rep.near_pairs += prof.near_pairs as f64;
        rep.targets += pots.len() as f64;
    }
    want
}

/// The Laplace kernel's direct-sum cost over the current sources.
fn kernel_ns_per_pair(wl: &ServiceWorkload, fmm: &ResidentFmm<Laplace>) -> f64 {
    let sources: Vec<[f64; 3]> = fmm
        .current_sources()
        .iter()
        .map(|p| [p.x, p.y, p.z])
        .collect();
    let charges = fmm.current_charges();
    let targets = wl.request_targets(SWEEP_CLIENT, 0, BATCH);
    let t = Instant::now();
    let sum: f64 = targets
        .iter()
        .map(|p| direct_sum_at(&Laplace, &sources, &charges, p))
        .sum();
    std::hint::black_box(sum);
    t.elapsed().as_secs_f64() * 1e9 / (targets.len() * sources.len()) as f64
}

/// Run `serve-mixed`.
pub(crate) fn run(seed: u64, window: Duration, trace: bool, size: Size) -> Result<Outcome, String> {
    let wl = ServiceWorkload {
        points: size.serve_points,
        seed,
        theta: 0.5,
        threshold: 60,
    };
    let mut out = Outcome::default();
    let logs = if trace {
        traced(&wl, window, size, &mut out)?
    } else {
        untraced(&wl, window, size, &mut out)?
    };
    let rep = replay(&wl, &logs);
    for log in &logs {
        out.attempted += log.step_ms.len() as u64;
        out.failed += log.steps_failed as u64;
    }
    out.attempted += rep.checked;
    out.failed += rep.failed;
    if out.failed > 0 {
        eprintln!(
            "perfbench: {} of {} answers match no reference state; {} steps rejected",
            rep.failed,
            rep.checked,
            out.failed - rep.failed
        );
    }
    if trace {
        let queries = rep.targets / BATCH as f64;
        out.set("engine.m2t_ms", rep.m2t_ms / queries);
        out.set("engine.p2p_ms", rep.p2p_ms / queries);
        out.set("engine.far_pairs_per_target", rep.far_pairs / rep.targets);
        out.set("engine.near_pairs_per_target", rep.near_pairs / rep.targets);
        let col = |f: fn(&StepReport) -> f64| median(&rep.steps.iter().map(f).collect::<Vec<_>>());
        out.set("step.refit_ms", col(|r| r.refit_us / 1e3));
        out.set("step.recompute_ms", col(|r| r.recompute_us / 1e3));
        out.set("step.lists_ms", col(|r| r.lists_us / 1e3));
        out.set("step.dag_ms", col(|r| r.dag_us / 1e3));
        out.set("step.dirty_frac", col(|r| r.dirty_fraction()));
        out.set(
            "step.invalidated_edges",
            col(|r| r.dag.invalidated_edges as f64),
        );
        // Share of a sweep's wall time the engine's write lock is held,
        // pricing each step at the reference engine's step time.
        let hold_ms = col(|r| (r.refit_us + r.recompute_us + r.lists_us + r.dag_us) / 1e3);
        let steps_per_sweep = (size.sweep_requests / READS_PER_STEP) as f64;
        let sweep_ms = 1e3 * (size.sweep_requests * BATCH) as f64 / out.values["svc.tput_tps"];
        out.set("step.sweep_share", steps_per_sweep * hold_ms / sweep_ms);
        out.set("kernel.ns_per_pair", rep.ns_per_pair);
    }
    Ok(out)
}

/// End-to-end metrics, in rounds: a fresh set-up ending in a cold sweep,
/// then sweeps for the round's share of the window.
fn untraced(
    wl: &ServiceWorkload,
    window: Duration,
    size: Size,
    out: &mut Outcome,
) -> Result<Vec<PhaseLog>, String> {
    let rounds = size.serve_rounds;
    let share = window / rounds as u32;
    // Peak heap, untimed: a set-up and one sweep with a single query in
    // flight and no steps.  With `WINDOW` queries in flight the peak
    // depends on how the server happened to fuse them; and a step whose
    // moves change the tree's structure re-assembles the step DAG beside
    // the old one (+2.6 MiB on some seeds), which would make the peak
    // depend on whether the seed's moves cross a leaf boundary.
    release_freed_memory();
    reset_peak_heap();
    let mut s = Session::start(wl)?;
    s.drive(
        wl,
        Plan::Sweep {
            requests: size.sweep_requests,
            window: 1,
            steps: false,
        },
    )?;
    out.set("peak_heap_mib", peak_heap_mib());
    let mut logs = vec![s.close()];

    let (mut setup, mut solve, mut sweeps) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..rounds {
        release_freed_memory();
        let t0 = Instant::now();
        let mut s = Session::start(wl)?;
        setup.push(t0.elapsed().as_secs_f64());
        s.drive(wl, sweep_plan(size))?;
        solve.push(t0.elapsed().as_secs_f64());
        let start = Instant::now();
        let mut n = 0;
        while n < size.min_samples || start.elapsed() < share {
            sweeps.push(s.drive(wl, sweep_plan(size))?);
            n += 1;
        }
        logs.push(s.close());
    }
    eprintln!("perfbench: samples (s): setup {setup:.3?} solve {solve:.3?} sweep {sweeps:.3?}");
    out.set("setup_s", median(&setup));
    out.set("solve_s", median(&solve));
    out.set("eval_s", median(&sweeps));
    Ok(logs)
}

fn sweep_plan(size: Size) -> Plan {
    Plan::Sweep {
        requests: size.sweep_requests,
        window: WINDOW,
        steps: true,
    }
}

/// Per-layer metrics: one session with a cold sweep, the open loop for
/// half the window, then sweeps for the other half.
fn traced(
    wl: &ServiceWorkload,
    window: Duration,
    size: Size,
    out: &mut Outcome,
) -> Result<Vec<PhaseLog>, String> {
    let mut s = Session::start(wl)?;
    {
        let engine = s.engine.0.read().expect("engine lock");
        out.set("tree.depth", f64::from(engine.depth()));
        out.set("tree.boxes", engine.num_nodes() as f64);
    }
    s.drive(wl, sweep_plan(size))?;
    let open_from = s.log.queries.len();
    let steps_from = s.log.step_ms.len();
    let late_from = s.log.late_ms.len();
    s.drive(
        wl,
        Plan::Open {
            duration: window / 2,
        },
    )?;
    let open: Vec<&QueryRec> = s.log.queries[open_from..].iter().collect();
    let lat: Vec<f64> = open.iter().map(|r| r.latency_ms).collect();
    let within = open
        .iter()
        .filter(|r| r.potentials.is_some() && r.latency_ms <= SLO_MS)
        .count();
    out.set("svc.query_p50_ms", percentile(&lat, 50.0));
    out.set("svc.query_p99_ms", percentile(&lat, 99.0));
    out.set("svc.slo_frac", within as f64 / open.len().max(1) as f64);
    out.set(
        "svc.step_p50_ms",
        percentile(&s.log.step_ms[steps_from..], 50.0),
    );
    out.set(
        "gen.late_p99_ms",
        percentile(&s.log.late_ms[late_from..], 99.0),
    );
    let phase = |f: &dyn Fn(&PhaseBreakdown) -> f32| -> Vec<f64> {
        open.iter().map(|r| f64::from(f(&r.phases)) / 1e3).collect()
    };
    out.set(
        "svc.queue_ms.p50",
        percentile(&phase(&|p| p.queue_us), 50.0),
    );
    out.set(
        "svc.queue_ms.p99",
        percentile(&phase(&|p| p.queue_us), 99.0),
    );
    out.set("svc.fuse_ms.p50", percentile(&phase(&|p| p.fuse_us), 50.0));
    out.set(
        "svc.compute_ms.p50",
        percentile(&phase(&|p| p.compute_us), 50.0),
    );
    out.set(
        "svc.compute_ms.p99",
        percentile(&phase(&|p| p.compute_us), 99.0),
    );
    out.set(
        "svc.reply_ms.p50",
        percentile(&phase(&|p| p.reply_us), 50.0),
    );

    let (mut targets, mut secs) = (0.0, 0.0);
    let start = Instant::now();
    let mut n = 0;
    while n < size.min_samples || start.elapsed() < window / 2 {
        secs += s.drive(wl, sweep_plan(size))?;
        targets += (size.sweep_requests * BATCH) as f64;
        n += 1;
    }
    out.set("svc.tput_tps", targets / secs);
    let stats = s.server.stats();
    out.set("svc.tiles", stats.totals.tiles as f64);
    out.set("svc.requests_per_tile", stats.mean_tile_requests());
    out.set("svc.shed", stats.totals.shed_requests as f64);
    Ok(vec![s.close()])
}
