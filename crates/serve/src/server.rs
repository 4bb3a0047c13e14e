//! The long-lived serving front end: worker threads holding warm
//! [`PopularSolver`]s behind the bounded queue, with panic isolation and
//! the degradation policy wired in (see the crate docs for the failure
//! model).

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pm_popular::delta::{Delta, DeltaSolver, DeltaStats};
use pm_popular::instance::{Assignment, PrefInstance};
use pm_popular::solver::PopularSolver;
pub use pm_popular::solver::SolveMode;
use pm_popular::PopularError;

use crate::degrade::{serial_dictatorship, FailureDisposition, Gate, HealthMap};
use crate::faults::{InjectedFault, Spec};
use crate::queue::{BoundedQueue, PushError};

/// A solve request.
///
/// `instance_id` keys the degradation state and the last-good cache:
/// requests sharing an id are treated as traffic against one logical
/// instance (the id is the client's to choose — e.g. a tenant or snapshot
/// id).  The instance itself travels as an `Arc` so a queue full of
/// requests against one big instance costs one allocation, not many.
#[derive(Debug, Clone)]
pub struct Request {
    /// The (validated) instance to solve.
    pub instance: Arc<PrefInstance>,
    /// Degradation/cache key; see the type docs.
    pub instance_id: u64,
    /// Which pipeline to run.
    pub mode: SolveMode,
    /// Latest useful completion time.  `None` means no deadline.
    pub deadline: Option<Instant>,
}

impl Request {
    /// A [`SolveMode::Popular`] request with no deadline.
    pub fn new(instance: Arc<PrefInstance>, instance_id: u64) -> Self {
        Self {
            instance,
            instance_id,
            mode: SolveMode::Popular,
            deadline: None,
        }
    }

    /// Sets the pipeline.
    pub fn with_mode(mut self, mode: SolveMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the deadline as a timeout from now.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.deadline = Some(Instant::now() + timeout);
        self
    }
}

/// How trustworthy a [`Response`]'s matching is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quality {
    /// A fresh solve of the submitted instance: popular (or
    /// maximum-cardinality popular) as requested.
    Full,
    /// The cached matching of this id's last *successful* solve — possibly
    /// computed against an older snapshot of the instance.
    Stale,
    /// A serial-dictatorship approximation: valid, but with no popularity
    /// guarantee.
    Fallback,
}

/// A successful (possibly degraded) answer.
#[derive(Debug, Clone)]
pub struct Response {
    /// The matching.
    pub matching: Assignment,
    /// Full, stale or fallback — degraded answers are always flagged.
    pub quality: Quality,
    /// True iff the solve finished after the request's deadline (the
    /// answer is delivered anyway; the overrun is also counted in
    /// [`StatsSnapshot::deadline_overruns`]).
    pub overran_deadline: bool,
}

impl Response {
    /// True iff this answer came from the degradation path rather than a
    /// fresh solve of the submitted instance.
    pub fn is_degraded(&self) -> bool {
        self.quality != Quality::Full
    }
}

/// Why a request got no (full or degraded) matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The bounded queue was full — backpressure.  Retry later, shed load
    /// upstream, or widen the deployment; the server never buffers without
    /// limit.
    Overloaded {
        /// The configured queue capacity that was exhausted.
        capacity: usize,
    },
    /// The deadline passed while the request waited; it was shed without
    /// touching a solver.
    DeadlineExpired {
        /// How long the request had been queued when it was shed.
        queued_for: Duration,
    },
    /// The solver answered with a typed error (no popular matching, ties
    /// not supported, …) — a deterministic property of the input, not a
    /// server failure, so it never triggers degradation.
    Solve(PopularError),
    /// The solve failed (panic or injected fault) and the instance has not
    /// yet crossed the degradation threshold `K`.
    Faulted,
    /// The server is shut down (or the worker serving this request died).
    Closed,
    /// A delta was submitted for an instance id that was never installed
    /// with [`Server::install_delta`] (or was installed and since removed).
    UnknownInstance {
        /// The id the delta was addressed to.
        instance_id: u64,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { capacity } => {
                write!(
                    f,
                    "overloaded: the request queue (capacity {capacity}) is full"
                )
            }
            ServeError::DeadlineExpired { queued_for } => {
                write!(f, "deadline expired after queueing for {queued_for:?}")
            }
            ServeError::Solve(e) => write!(f, "solve error: {e}"),
            ServeError::Faulted => write!(f, "solve failed (panic or injected fault)"),
            ServeError::Closed => write!(f, "server closed"),
            ServeError::UnknownInstance { instance_id } => {
                write!(f, "no delta solver installed for instance id {instance_id}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Server tuning knobs.  `Default` is a sensible single-machine deployment;
/// every field can be overridden before [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads, each holding one warm [`PopularSolver`] (≥ 1).
    pub workers: usize,
    /// Bounded queue capacity; a full queue rejects with
    /// [`ServeError::Overloaded`].
    pub queue_capacity: usize,
    /// Consecutive failures on one instance id before the server degrades
    /// it (`K`; clamped to ≥ 1).
    pub degrade_after: u32,
    /// First re-promotion probe delay after degrading.
    pub backoff_initial: Duration,
    /// Backoff ceiling (doubling stops here).
    pub backoff_max: Duration,
    /// Fault-injection spec.  `Default` reads [`PM_FAULTS`]; pass
    /// [`Spec::none`] for a deterministic server regardless of the
    /// environment.
    ///
    /// [`PM_FAULTS`]: crate::faults::ENV_VAR
    pub faults: Spec,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 1,
            queue_capacity: 64,
            degrade_after: 3,
            backoff_initial: Duration::from_millis(50),
            backoff_max: Duration::from_secs(2),
            faults: Spec::from_env(),
        }
    }
}

/// Counter snapshot (monotonic since [`Server::start`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Requests answered by a fresh solve (including typed solve errors —
    /// the solver ran and produced its deterministic answer).
    pub served: u64,
    /// Requests rejected at submit because the queue was full.
    pub rejected: u64,
    /// Requests shed because their deadline expired before a solver picked
    /// them up.
    pub shed: u64,
    /// Solve panics trapped by `catch_unwind` (each also discards and
    /// rebuilds the worker's solver).
    pub panics_recovered: u64,
    /// Degraded answers served (stale last-good or fallback).
    pub degraded_responses: u64,
    /// Solves that finished after their request's deadline.
    pub deadline_overruns: u64,
    /// Typed solver errors passed through to clients (subset of `served`).
    pub solve_errors: u64,
    /// Delta scheduling ticks that found work (each is one coalesced
    /// apply-and-flush round on an incremental solver).
    pub delta_ticks: u64,
    /// Deltas applied through [`Server::submit_delta`] (so
    /// `deltas_coalesced / delta_ticks` is the mean coalescing factor).
    pub deltas_coalesced: u64,
}

#[derive(Debug, Default)]
struct Stats {
    served: AtomicU64,
    rejected: AtomicU64,
    shed: AtomicU64,
    panics_recovered: AtomicU64,
    degraded_responses: AtomicU64,
    deadline_overruns: AtomicU64,
    solve_errors: AtomicU64,
    delta_ticks: AtomicU64,
    deltas_coalesced: AtomicU64,
}

impl Stats {
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            served: self.served.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            panics_recovered: self.panics_recovered.load(Ordering::Relaxed),
            degraded_responses: self.degraded_responses.load(Ordering::Relaxed),
            deadline_overruns: self.deadline_overruns.load(Ordering::Relaxed),
            solve_errors: self.solve_errors.load(Ordering::Relaxed),
            delta_ticks: self.delta_ticks.load(Ordering::Relaxed),
            deltas_coalesced: self.deltas_coalesced.load(Ordering::Relaxed),
        }
    }
}

/// A queued request plus its reply slot.
struct SolveJob {
    req: Request,
    enqueued_at: Instant,
    reply: mpsc::Sender<Result<Response, ServeError>>,
}

/// What travels through the bounded queue: a one-shot solve, or a
/// scheduling tick telling a worker to drain one instance's pending deltas
/// in a single coalesced apply-and-flush round.
enum Job {
    Solve(SolveJob),
    DeltaTick { instance_id: u64 },
}

/// The handle for an in-flight request; [`wait`](Ticket::wait) blocks for
/// the outcome.
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<Response, ServeError>>,
}

impl Ticket {
    /// Blocks until the server answers.  A worker that died without
    /// replying (process-fatal conditions only — solve panics are trapped)
    /// surfaces as [`ServeError::Closed`].
    pub fn wait(self) -> Result<Response, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Closed))
    }

    /// Like [`wait`](Self::wait) with an upper bound; `None` on timeout
    /// (the request stays in flight and can be waited on again).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<Response, ServeError>> {
        match self.rx.recv_timeout(timeout) {
            Ok(r) => Some(r),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(ServeError::Closed)),
        }
    }
}

/// A preference mutation against an installed incremental instance (see
/// [`Server::install_delta`]).
#[derive(Debug, Clone)]
pub struct DeltaRequest {
    /// The id [`Server::install_delta`] registered the instance under.
    pub instance_id: u64,
    /// The mutation to apply.
    pub delta: Delta,
    /// Latest useful completion time.  `None` means no deadline.
    pub deadline: Option<Instant>,
}

impl DeltaRequest {
    /// A delta with no deadline.
    pub fn new(instance_id: u64, delta: Delta) -> Self {
        Self {
            instance_id,
            delta,
            deadline: None,
        }
    }

    /// Sets the deadline as a timeout from now.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.deadline = Some(Instant::now() + timeout);
        self
    }
}

/// The answer to a delta: the instance's post-mutation matching.
///
/// Every delta coalesced into the same scheduling tick receives the *same*
/// matching — the result of one incremental solve after all of them were
/// applied (deltas are applied in submission order, so the matching
/// reflects each submitter's mutation).
#[derive(Debug, Clone)]
pub struct DeltaResponse {
    /// The matching of the mutated instance.
    pub matching: Assignment,
    /// Full, stale or fallback — degraded answers are always flagged.
    pub quality: Quality,
    /// True iff the solve finished after this delta's deadline.
    pub overran_deadline: bool,
    /// How many deltas were answered by this solve round (≥ 1).
    pub coalesced: usize,
}

impl DeltaResponse {
    /// True iff this answer came from the degradation path rather than a
    /// fresh incremental solve.
    pub fn is_degraded(&self) -> bool {
        self.quality != Quality::Full
    }
}

/// The handle for an in-flight delta; [`wait`](DeltaTicket::wait) blocks
/// for the outcome.
#[derive(Debug)]
pub struct DeltaTicket {
    rx: mpsc::Receiver<Result<DeltaResponse, ServeError>>,
}

impl DeltaTicket {
    /// Blocks until the server answers (or [`ServeError::Closed`] if it
    /// shut down first).
    pub fn wait(self) -> Result<DeltaResponse, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Closed))
    }

    /// Like [`wait`](Self::wait) with an upper bound; `None` on timeout.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<DeltaResponse, ServeError>> {
        match self.rx.recv_timeout(timeout) {
            Ok(r) => Some(r),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(ServeError::Closed)),
        }
    }
}

/// A submitted delta waiting for its scheduling tick.
struct PendingDelta {
    seq: u64,
    delta: Delta,
    deadline: Option<Instant>,
    enqueued_at: Instant,
    reply: mpsc::Sender<Result<DeltaResponse, ServeError>>,
}

/// One installed incremental instance: the warm [`DeltaSolver`], its queue
/// of not-yet-applied deltas, and the tick-scheduling latch.
struct DeltaState {
    solver: Mutex<DeltaSolver>,
    pending: Mutex<VecDeque<PendingDelta>>,
    /// True while a [`Job::DeltaTick`] for this instance is queued (or a
    /// worker is between clearing the latch and draining `pending`).  The
    /// swap-to-true in [`Server::submit_delta`] makes sure at most one tick
    /// is in the queue per instance, which is what turns a burst of deltas
    /// into one coalesced solve round.
    scheduled: AtomicBool,
    seq: AtomicU64,
}

impl DeltaState {
    fn lock_solver(&self) -> MutexGuard<'_, DeltaSolver> {
        self.solver
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn lock_pending(&self) -> MutexGuard<'_, VecDeque<PendingDelta>> {
        self.pending
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

struct Shared {
    queue: BoundedQueue<Job>,
    health: HealthMap,
    stats: Stats,
    faults: Spec,
    queue_capacity: usize,
    deltas: Mutex<HashMap<u64, Arc<DeltaState>>>,
}

impl Shared {
    fn delta_state(&self, instance_id: u64) -> Option<Arc<DeltaState>> {
        self.deltas
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .get(&instance_id)
            .cloned()
    }
}

/// The serving front end (see the crate docs).  Dropping the server closes
/// the queue, lets the workers drain it, and joins them.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts the worker threads and returns the handle.
    pub fn start(cfg: ServerConfig) -> Self {
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(cfg.queue_capacity),
            health: HealthMap::new(cfg.degrade_after, cfg.backoff_initial, cfg.backoff_max),
            stats: Stats::default(),
            faults: cfg.faults.clone(),
            queue_capacity: cfg.queue_capacity.max(1),
            deltas: Mutex::new(HashMap::new()),
        });
        let workers = (0..cfg.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pm-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning a serve worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// Submits a request; returns immediately with a [`Ticket`] or a typed
    /// rejection ([`Overloaded`](ServeError::Overloaded) under
    /// backpressure, [`DeadlineExpired`](ServeError::DeadlineExpired) if
    /// the deadline already passed).
    pub fn submit(&self, req: Request) -> Result<Ticket, ServeError> {
        let now = Instant::now();
        if req.deadline.is_some_and(|d| now >= d) {
            self.shared.stats.shed.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::DeadlineExpired {
                queued_for: Duration::ZERO,
            });
        }
        let (tx, rx) = mpsc::channel();
        let job = Job::Solve(SolveJob {
            req,
            enqueued_at: now,
            reply: tx,
        });
        match self.shared.queue.try_push(job) {
            Ok(_) => Ok(Ticket { rx }),
            Err(PushError::Full(_)) => {
                self.shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::Overloaded {
                    capacity: self.shared.queue_capacity,
                })
            }
            Err(PushError::Closed(_)) => Err(ServeError::Closed),
        }
    }

    /// Submit + wait, for callers that want a blocking RPC shape.
    pub fn call(&self, req: Request) -> Result<Response, ServeError> {
        self.submit(req)?.wait()
    }

    /// Installs (or reinstalls) an incremental solver for `instance_id`:
    /// one full solve now, then [`submit_delta`](Self::submit_delta)
    /// mutations pay only for their dirty components.
    ///
    /// Runs the installing solve on the caller's thread — it is setup, not
    /// serving traffic — and replaces any previous solver under the same id
    /// (the documented recovery for an instance whose solver got stuck).
    ///
    /// # Errors
    /// [`ServeError::Solve`] if the instance is rejected up front (e.g.
    /// tied lists).  An instance with *no* popular matching installs fine:
    /// infeasibility is a per-component property the delta layer tracks,
    /// and deltas that heal it start answering again.
    pub fn install_delta(
        &self,
        instance_id: u64,
        inst: &PrefInstance,
        mode: SolveMode,
    ) -> Result<(), ServeError> {
        let solver = DeltaSolver::install(inst, mode).map_err(ServeError::Solve)?;
        let state = Arc::new(DeltaState {
            solver: Mutex::new(solver),
            pending: Mutex::new(VecDeque::new()),
            scheduled: AtomicBool::new(false),
            seq: AtomicU64::new(0),
        });
        self.shared
            .deltas
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .insert(instance_id, state);
        Ok(())
    }

    /// Submits a preference mutation; returns immediately with a
    /// [`DeltaTicket`].  Deltas submitted while a scheduling tick is
    /// already queued for the same instance are *coalesced*: one worker
    /// applies them all in submission order and runs a single incremental
    /// solve, and every submitter gets that solve's matching.
    ///
    /// # Errors
    /// * [`ServeError::UnknownInstance`] — no [`install_delta`](Self::install_delta)
    ///   for this id.
    /// * [`ServeError::Overloaded`] — the instance's pending-delta queue or
    ///   the server queue is full.
    /// * [`ServeError::DeadlineExpired`] — the deadline already passed.
    pub fn submit_delta(&self, req: DeltaRequest) -> Result<DeltaTicket, ServeError> {
        let now = Instant::now();
        if req.deadline.is_some_and(|d| now >= d) {
            self.shared.stats.shed.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::DeadlineExpired {
                queued_for: Duration::ZERO,
            });
        }
        let Some(state) = self.shared.delta_state(req.instance_id) else {
            return Err(ServeError::UnknownInstance {
                instance_id: req.instance_id,
            });
        };
        let (tx, rx) = mpsc::channel();
        let seq = state.seq.fetch_add(1, Ordering::Relaxed);
        {
            let mut pending = state.lock_pending();
            if pending.len() >= self.shared.queue_capacity {
                self.shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Overloaded {
                    capacity: self.shared.queue_capacity,
                });
            }
            pending.push_back(PendingDelta {
                seq,
                delta: req.delta,
                deadline: req.deadline,
                enqueued_at: now,
                reply: tx,
            });
        }
        // At most one tick per instance sits in the server queue: the first
        // submitter after a tick drained (or none existed) schedules it,
        // later ones ride along.
        if !state.scheduled.swap(true, Ordering::AcqRel) {
            let push = self.shared.queue.try_push(Job::DeltaTick {
                instance_id: req.instance_id,
            });
            if let Err(e) = push {
                // Roll back: un-latch, and withdraw our delta unless a
                // concurrently running tick already claimed it (then the
                // ticket is live and the scheduling failure is moot).
                state.scheduled.store(false, Ordering::Release);
                let withdrawn = {
                    let mut pending = state.lock_pending();
                    let before = pending.len();
                    pending.retain(|p| p.seq != seq);
                    pending.len() < before
                };
                if withdrawn {
                    return match e {
                        PushError::Full(_) => {
                            self.shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
                            Err(ServeError::Overloaded {
                                capacity: self.shared.queue_capacity,
                            })
                        }
                        PushError::Closed(_) => Err(ServeError::Closed),
                    };
                }
            }
        }
        Ok(DeltaTicket { rx })
    }

    /// Submit + wait for a delta, for callers that want a blocking RPC
    /// shape (no coalescing benefit: the next delta is only submitted after
    /// this one's round completed).
    pub fn apply_delta(&self, req: DeltaRequest) -> Result<DeltaResponse, ServeError> {
        self.submit_delta(req)?.wait()
    }

    /// Counters of `instance_id`'s incremental solver (`None` if not
    /// installed).  Briefly locks the solver — don't poll in a tight loop.
    pub fn delta_stats(&self, instance_id: u64) -> Option<DeltaStats> {
        let state = self.shared.delta_state(instance_id)?;
        let stats = state.lock_solver().stats();
        Some(stats)
    }

    /// Current counter values.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Current queue depth (for load shedding decisions upstream).
    pub fn queue_len(&self) -> usize {
        self.shared.queue.len()
    }

    /// Forces `instance_id` into the degraded state with the probe window
    /// pushed `backoff_max` out — the ops/bench hook for exercising and
    /// measuring the degraded path without injecting failures.
    pub fn force_degrade(&self, instance_id: u64) {
        self.shared
            .health
            .force_degrade(instance_id, Instant::now());
    }

    /// Closes the queue, drains outstanding requests, joins the workers.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.queue.close();
        for w in self.workers.drain(..) {
            // A worker that somehow died still closed its reply channels;
            // nothing useful to do with its panic payload here.
            let _ = w.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// What one isolated solve attempt produced.
enum Attempt {
    Ok(Assignment),
    TypedError(PopularError),
    /// Panic (true) or injected I/O fault (false).
    Failed {
        panicked: bool,
    },
}

fn worker_loop(shared: &Shared) {
    let mut solver = PopularSolver::new(0, 0);
    while let Some(job) = shared.queue.pop() {
        match job {
            Job::Solve(job) => handle(shared, &mut solver, job),
            Job::DeltaTick { instance_id } => handle_delta_tick(shared, instance_id),
        }
    }
}

fn handle(shared: &Shared, solver: &mut PopularSolver, job: SolveJob) {
    let now = Instant::now();
    let SolveJob {
        req,
        enqueued_at,
        reply,
    } = job;

    // Deadline shedding: an expired request never touches a solver.
    if req.deadline.is_some_and(|d| now >= d) {
        shared.stats.shed.fetch_add(1, Ordering::Relaxed);
        let _ = reply.send(Err(ServeError::DeadlineExpired {
            queued_for: now - enqueued_at,
        }));
        return;
    }

    // Degradation gate: a degraded id inside its backoff window is answered
    // without solver traffic.
    let probing = match shared.health.gate(req.instance_id, now) {
        Gate::Solve { probe } => probe,
        Gate::Stale(matching) => {
            respond_degraded(shared, &reply, matching, Quality::Stale, &req);
            return;
        }
        Gate::Fallback => {
            let matching = serial_dictatorship(&req.instance);
            respond_degraded(shared, &reply, matching, Quality::Fallback, &req);
            return;
        }
    };

    // The isolated solve: fail point, then the pipeline, under
    // `catch_unwind`.  Only the solver and the instance cross the unwind
    // boundary — the reply channel stays out here so every path answers.
    let attempt = {
        let instance = &req.instance;
        let mode = req.mode;
        let faults = &shared.faults;
        match catch_unwind(AssertUnwindSafe(
            || -> Result<Result<Assignment, PopularError>, InjectedFault> {
                faults.fail_solve()?;
                Ok(match mode {
                    SolveMode::Popular => solver.solve(instance).cloned(),
                    SolveMode::MaxCardinality => solver.solve_max_cardinality(instance).cloned(),
                })
            },
        )) {
            Ok(Ok(Ok(matching))) => Attempt::Ok(matching),
            Ok(Ok(Err(e))) => Attempt::TypedError(e),
            Ok(Err(InjectedFault::Io)) => Attempt::Failed { panicked: false },
            Err(payload) => {
                drop(payload);
                Attempt::Failed { panicked: true }
            }
        }
    };

    match attempt {
        Attempt::Ok(matching) => {
            let finished = Instant::now();
            let overran = req.deadline.is_some_and(|d| finished > d);
            if overran {
                shared
                    .stats
                    .deadline_overruns
                    .fetch_add(1, Ordering::Relaxed);
            }
            shared.health.record_success(req.instance_id, &matching);
            shared.stats.served.fetch_add(1, Ordering::Relaxed);
            let _ = reply.send(Ok(Response {
                matching,
                quality: Quality::Full,
                overran_deadline: overran,
            }));
        }
        Attempt::TypedError(e) => {
            // A deterministic property of the input: answered, not a
            // failure.  `SolverPoisoned` cannot reach here: panics rebuild
            // the solver below before the next request.  A *probe* landing
            // here proves the solver healthy, so the id is re-promoted
            // (with nothing to cache).
            if probing {
                shared.health.record_healthy(req.instance_id);
            }
            shared.stats.served.fetch_add(1, Ordering::Relaxed);
            shared.stats.solve_errors.fetch_add(1, Ordering::Relaxed);
            let _ = reply.send(Err(ServeError::Solve(e)));
        }
        Attempt::Failed { panicked } => {
            if panicked {
                shared
                    .stats
                    .panics_recovered
                    .fetch_add(1, Ordering::Relaxed);
                // A panic mid-solve leaves the solver poisoned (workspace
                // epoch check); a panic at the fail point may not.  Either
                // way the warm state is discarded wholesale, so no later
                // request can observe dirty buffers.
                *solver = PopularSolver::new(0, 0);
            }
            match shared
                .health
                .record_failure(req.instance_id, Instant::now())
            {
                FailureDisposition::Error => {
                    let _ = reply.send(Err(ServeError::Faulted));
                }
                FailureDisposition::Stale(matching) => {
                    respond_degraded(shared, &reply, matching, Quality::Stale, &req);
                }
                FailureDisposition::Fallback => {
                    let matching = serial_dictatorship(&req.instance);
                    respond_degraded(shared, &reply, matching, Quality::Fallback, &req);
                }
            }
        }
    }
}

/// Drains one instance's pending deltas and answers them all from a single
/// coalesced apply-and-flush round on its incremental solver.
///
/// The §9 failure semantics of [`handle`] carry over delta-for-request:
/// expired deltas are shed without solver traffic, a degraded id is
/// answered stale/fallback without flushing, the flush runs under
/// `catch_unwind` behind the fault injection point, and a panic counts one
/// failure toward degradation.  The one asymmetry: a panic does not discard
/// the incremental solver wholesale (that would lose the warm component
/// decomposition for good) — the solver's workspace poisoning latch trips,
/// and [`DeltaSolver::recover`] rebuilds the scratch and re-solves the
/// whole instance from its intact raw preference lists, which is exactly
/// the "poisoned shard re-solves fully" rule from DESIGN.md §10.
fn handle_delta_tick(shared: &Shared, instance_id: u64) {
    let Some(state) = shared.delta_state(instance_id) else {
        return; // uninstalled since the tick was queued
    };
    // The solver lock serialises rounds per instance (a redundant tick just
    // finds an empty queue).  Clear the scheduled latch *before* draining:
    // a submit landing after the drain must schedule a fresh tick; one
    // landing in between is coalesced into this round and its redundant
    // tick drains nothing.
    let mut solver = state.lock_solver();
    state.scheduled.store(false, Ordering::Release);
    let batch: Vec<PendingDelta> = {
        let mut pending = state.lock_pending();
        pending.drain(..).collect()
    };
    if batch.is_empty() {
        return;
    }
    shared.stats.delta_ticks.fetch_add(1, Ordering::Relaxed);

    // Shed expired deltas, apply the rest in submission order.  A rejected
    // delta (validation error) is a typed answer for that submitter only —
    // the rest of the round proceeds without it.
    let now = Instant::now();
    let mut applied: Vec<PendingDelta> = Vec::with_capacity(batch.len());
    for p in batch {
        if p.deadline.is_some_and(|d| now >= d) {
            shared.stats.shed.fetch_add(1, Ordering::Relaxed);
            let _ = p.reply.send(Err(ServeError::DeadlineExpired {
                queued_for: now - p.enqueued_at,
            }));
            continue;
        }
        let ds = &mut *solver;
        match catch_unwind(AssertUnwindSafe(|| ds.apply(&p.delta))) {
            Ok(Ok(())) => applied.push(p),
            Ok(Err(e)) => {
                shared.stats.served.fetch_add(1, Ordering::Relaxed);
                shared.stats.solve_errors.fetch_add(1, Ordering::Relaxed);
                let _ = p.reply.send(Err(ServeError::Solve(e)));
            }
            Err(payload) => {
                // A panic mid-apply latches the solver's poisoning guard;
                // recover (full re-solve from the intact raw lists) so the
                // rest of the round isn't answered `SolverPoisoned`.
                drop(payload);
                shared
                    .stats
                    .panics_recovered
                    .fetch_add(1, Ordering::Relaxed);
                let ds = &mut *solver;
                let _ = catch_unwind(AssertUnwindSafe(|| ds.recover().map(|_| ())));
                let _ = p.reply.send(Err(ServeError::Faulted));
            }
        }
    }
    if applied.is_empty() {
        return;
    }
    shared
        .stats
        .deltas_coalesced
        .fetch_add(applied.len() as u64, Ordering::Relaxed);
    let coalesced = applied.len();

    // Degradation gate.  The mutations are already applied to the raw
    // instance state (they will be picked up by the next full-quality
    // round); a degraded id is answered without solver traffic.
    let probing = match shared.health.gate(instance_id, now) {
        Gate::Solve { probe } => probe,
        Gate::Stale(matching) => {
            for p in &applied {
                respond_degraded_delta(shared, p, matching.clone(), Quality::Stale, coalesced);
            }
            return;
        }
        Gate::Fallback => {
            respond_fallback_delta(shared, &mut solver, &applied, coalesced);
            return;
        }
    };

    // The isolated flush: fail point, then the incremental solve, under
    // `catch_unwind`.  Reply channels stay out here so every path answers.
    let attempt = {
        let faults = &shared.faults;
        let ds = &mut *solver;
        match catch_unwind(AssertUnwindSafe(
            || -> Result<Result<Assignment, PopularError>, InjectedFault> {
                faults.fail_solve()?;
                Ok(ds.flush().cloned())
            },
        )) {
            Ok(Ok(Ok(matching))) => Attempt::Ok(matching),
            Ok(Ok(Err(e))) => Attempt::TypedError(e),
            Ok(Err(InjectedFault::Io)) => Attempt::Failed { panicked: false },
            Err(payload) => {
                drop(payload);
                Attempt::Failed { panicked: true }
            }
        }
    };

    match attempt {
        Attempt::Ok(matching) => {
            let finished = Instant::now();
            shared.health.record_success(instance_id, &matching);
            shared
                .stats
                .served
                .fetch_add(coalesced as u64, Ordering::Relaxed);
            for p in applied {
                let overran = p.deadline.is_some_and(|d| finished > d);
                if overran {
                    shared
                        .stats
                        .deadline_overruns
                        .fetch_add(1, Ordering::Relaxed);
                }
                let _ = p.reply.send(Ok(DeltaResponse {
                    matching: matching.clone(),
                    quality: Quality::Full,
                    overran_deadline: overran,
                    coalesced,
                }));
            }
        }
        Attempt::TypedError(e) => {
            // Deterministic property of the mutated instance (e.g. a
            // component with no popular matching): answered, not a failure.
            if probing {
                shared.health.record_healthy(instance_id);
            }
            shared
                .stats
                .served
                .fetch_add(coalesced as u64, Ordering::Relaxed);
            shared
                .stats
                .solve_errors
                .fetch_add(coalesced as u64, Ordering::Relaxed);
            for p in applied {
                let _ = p.reply.send(Err(ServeError::Solve(e.clone())));
            }
        }
        Attempt::Failed { panicked } => {
            if panicked {
                shared
                    .stats
                    .panics_recovered
                    .fetch_add(1, Ordering::Relaxed);
                // A poisoned shard re-solves fully: rebuild the scratch and
                // the matching from the intact raw lists.  Recovery repairs
                // state for the *next* round; this round still counts as a
                // failure for degradation purposes.  If recovery itself
                // panics the solver stays poisoned and later flushes return
                // `SolverPoisoned` as a typed error (the reinstall path in
                // `install_delta` is the ultimate backstop).
                let ds = &mut *solver;
                let _ = catch_unwind(AssertUnwindSafe(|| ds.recover().map(|_| ())));
            }
            match shared.health.record_failure(instance_id, Instant::now()) {
                FailureDisposition::Error => {
                    for p in applied {
                        let _ = p.reply.send(Err(ServeError::Faulted));
                    }
                }
                FailureDisposition::Stale(matching) => {
                    for p in &applied {
                        respond_degraded_delta(
                            shared,
                            p,
                            matching.clone(),
                            Quality::Stale,
                            coalesced,
                        );
                    }
                }
                FailureDisposition::Fallback => {
                    respond_fallback_delta(shared, &mut solver, &applied, coalesced);
                }
            }
        }
    }
}

/// Answers every delta in `applied` with a serial-dictatorship matching of
/// the solver's *current* (post-mutation) raw instance — or
/// [`ServeError::Faulted`] if even the snapshot is unavailable (poisoned
/// solver that failed to recover).
fn respond_fallback_delta(
    shared: &Shared,
    solver: &mut DeltaSolver,
    applied: &[PendingDelta],
    coalesced: usize,
) {
    match solver.snapshot_instance() {
        Ok(snap) => {
            let matching = serial_dictatorship(&snap);
            for p in applied {
                respond_degraded_delta(shared, p, matching.clone(), Quality::Fallback, coalesced);
            }
        }
        Err(_) => {
            for p in applied {
                let _ = p.reply.send(Err(ServeError::Faulted));
            }
        }
    }
}

fn respond_degraded_delta(
    shared: &Shared,
    p: &PendingDelta,
    matching: Assignment,
    quality: Quality,
    coalesced: usize,
) {
    shared
        .stats
        .degraded_responses
        .fetch_add(1, Ordering::Relaxed);
    let overran = p.deadline.is_some_and(|d| Instant::now() > d);
    if overran {
        shared
            .stats
            .deadline_overruns
            .fetch_add(1, Ordering::Relaxed);
    }
    let _ = p.reply.send(Ok(DeltaResponse {
        matching,
        quality,
        overran_deadline: overran,
        coalesced,
    }));
}

fn respond_degraded(
    shared: &Shared,
    reply: &mpsc::Sender<Result<Response, ServeError>>,
    matching: Assignment,
    quality: Quality,
    req: &Request,
) {
    shared
        .stats
        .degraded_responses
        .fetch_add(1, Ordering::Relaxed);
    let overran = req.deadline.is_some_and(|d| Instant::now() > d);
    if overran {
        shared
            .stats
            .deadline_overruns
            .fetch_add(1, Ordering::Relaxed);
    }
    let _ = reply.send(Ok(Response {
        matching,
        quality,
        overran_deadline: overran,
    }));
}
