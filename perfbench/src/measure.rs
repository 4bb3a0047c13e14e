//! The measured process: set-up, the timed window through `pm_serve`, and
//! (traced runs) the direct replay of the same operations through the layer
//! functions.

use std::collections::VecDeque;
use std::path::Path;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use pm_instances::snapshot;
use pm_popular::delta::Delta;
use pm_popular::instance::{Assignment, PrefInstance};
use pm_serve::faults::Spec;
use pm_serve::{
    DeltaRequest, DeltaResponse, DeltaTicket, Quality, Request, Response, ServeError, Server,
    ServerConfig, SolveMode, StatsSnapshot, Ticket,
};

use crate::stats::{fixed_rate, Kind, OpLog};
use crate::trace::{Tracer, NO_PARENT};
use crate::workload::{
    edit_streams, hash_matching, nth_edit, read_file, Reference, Traffic, Workload,
};

/// Instance ids of the edited instances start here; read instances use
/// their index.
pub const WRITE_ID_BASE: u64 = 1 << 32;

/// Deployment setting: deep enough that a scheduling hiccup at the
/// workloads' rates never turns into `Overloaded`.
const QUEUE_CAPACITY: usize = 256;

/// The served state after set-up.
pub struct Loaded {
    pub server: Server,
    pub reads: Vec<Arc<PrefInstance>>,
    pub writes: Vec<Arc<PrefInstance>>,
}

/// The reference answer hash of a read instance in a mode.
pub fn ref_hash(refs: &[Reference], read: usize, mode: SolveMode) -> Option<u64> {
    refs.iter()
        .find(|r| r.read == read && r.mode == mode)
        .map(|r| r.hash)
}

/// One set-up, as a user pays it: snapshot reads, `Server::start`,
/// `install_delta` of every edited instance, one warm-up solve.  Spans go
/// under one `setup` root.
pub fn setup(
    w: Workload,
    dir: &Path,
    refs: &[Reference],
    tr: &mut Tracer,
) -> Result<Loaded, String> {
    let p = w.params();
    let root = tr.open("setup", NO_PARENT, 0);
    let load = |tr: &mut Tracer, path: &Path, op: u64| {
        tr.time("snapshot.load", root, op, || snapshot::read_file(path))
            .map(Arc::new)
            .map_err(|e| format!("{}: {e}", path.display()))
    };
    let reads = (0..p.read_count())
        .map(|i| load(tr, &read_file(dir, i), i as u64))
        .collect::<Result<Vec<_>, _>>()?;
    let writes = (0..p.write_count())
        .map(|j| {
            let path = p.write_file(dir, j);
            if path == read_file(dir, j) {
                Ok(Arc::clone(&reads[j]))
            } else {
                load(tr, &path, WRITE_ID_BASE + j as u64)
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    let server = tr.time("server.start", root, 0, || {
        Server::start(ServerConfig {
            workers: 1,
            queue_capacity: QUEUE_CAPACITY,
            faults: Spec::none(),
            ..ServerConfig::default()
        })
    });
    for (j, inst) in writes.iter().enumerate() {
        let id = WRITE_ID_BASE + j as u64;
        tr.time("delta.install", root, id, || {
            server.install_delta(id, inst, SolveMode::Popular)
        })
        .map_err(|e| format!("install_delta {j}: {e}"))?;
    }
    let warm = tr.time("warmup", root, 0, || {
        server.call(Request::new(Arc::clone(&reads[0]), 0))
    });
    tr.close(root);
    match warm {
        Ok(r) if Some(hash_matching(&r.matching)) == ref_hash(refs, 0, SolveMode::Popular) => {
            Ok(Loaded {
                server,
                reads,
                writes,
            })
        }
        other => Err(format!(
            "warm-up solve gave a wrong answer: {:?}",
            other.map(|r| r.quality)
        )),
    }
}

/// The read-only side of a run: the workload, the served state, the
/// reference answers and the edit streams.
pub struct Plan<'a> {
    pub w: Workload,
    pub ld: &'a Loaded,
    refs: &'a [Reference],
    pub streams: Vec<[Vec<Delta>; 2]>,
}

impl Plan<'_> {
    fn read_request(&self, i: u64) -> (usize, SolveMode, Request) {
        let (t, mode) = (self.w.read_target(i), self.w.read_mode(i));
        let req = Request::new(Arc::clone(&self.ld.reads[t]), t as u64).with_mode(mode);
        (t, mode, req)
    }

    fn write_request(&self, k: u64) -> (usize, DeltaRequest) {
        let wc = self.ld.writes.len() as u64;
        let j = (k % wc) as usize;
        let delta = nth_edit(&self.streams[j], (k / wc) as usize).clone();
        (j, DeltaRequest::new(WRITE_ID_BASE + j as u64, delta))
    }

    fn read_bytes(&self, t: usize) -> f64 {
        // One clone out of the solver, one for the last-good cache.
        2.0 * 4.0 * self.ld.reads[t].num_applicants() as f64
    }
}

/// The bookkeeping of a run that spans its windows: where each edit
/// stream stands, what the server last answered, and what went wrong.
pub struct Book {
    pub next_read: u64,
    pub next_write: u64,
    /// Edits each instance's server copy has applied.
    pub applied: Vec<usize>,
    /// True once an edit of the instance failed, so its final state cannot
    /// be replayed.
    pub write_failed: Vec<bool>,
    pub last: Vec<Option<Assignment>>,
    /// Coalesced round sizes per edited instance, in order.
    pub batches: Vec<Vec<usize>>,
    /// Answers that differ from the reference, or typed errors on inputs
    /// known to be solvable.
    pub wrong: usize,
}

impl Book {
    fn check_read(
        &mut self,
        plan: &Plan,
        t: usize,
        mode: SolveMode,
        r: &Result<Response, ServeError>,
    ) -> bool {
        match r {
            Ok(resp) if resp.quality == Quality::Full => {
                let good = Some(hash_matching(&resp.matching)) == ref_hash(plan.refs, t, mode);
                self.wrong += usize::from(!good);
                good
            }
            Err(ServeError::Solve(_)) => {
                self.wrong += 1;
                false
            }
            _ => false,
        }
    }

    /// Books an edit's answer; `first_of_round` is false for the answers
    /// that rode along in a round already booked.
    fn accept_write(
        &mut self,
        j: usize,
        r: Result<DeltaResponse, ServeError>,
        first_of_round: bool,
        bytes: &mut f64,
    ) -> bool {
        match r {
            Ok(resp) if resp.quality == Quality::Full => {
                self.applied[j] += 1;
                if first_of_round {
                    self.batches[j].push(resp.coalesced);
                    // One clone out of the solver, one for the last-good
                    // cache, one per coalesced reply.
                    *bytes +=
                        (2 + resp.coalesced) as f64 * 4.0 * resp.matching.num_applicants() as f64;
                }
                self.last[j] = Some(resp.matching);
                true
            }
            other => {
                self.write_failed[j] = true;
                self.wrong += usize::from(matches!(other, Err(ServeError::Solve(_))));
                false
            }
        }
    }
}

/// What one timed window produced.
pub struct Window {
    pub log: Vec<OpLog>,
    pub elapsed_s: f64,
    pub allocs: u64,
    pub stats: (StatsSnapshot, StatsSnapshot),
    /// Client-side `submit` durations (ns) and queue lengths sampled at
    /// each submit; traced windows only.
    pub submit_ns: Vec<u64>,
    pub queue_lens: Vec<f64>,
    /// Matching bytes the server copied for this window's answers,
    /// computed as copies per answer × 4 B × n.
    pub bytes_copied: f64,
}

pub struct Run<'a> {
    pub plan: Plan<'a>,
    pub book: Book,
}

impl<'a> Run<'a> {
    pub fn new(w: Workload, seed: u64, ld: &'a Loaded, refs: &'a [Reference]) -> Self {
        let p = w.params();
        let wc = p.write_count();
        let streams = ld
            .writes
            .iter()
            .enumerate()
            .map(|(j, inst)| edit_streams(inst, p.stream_len, seed, j))
            .collect();
        Self {
            plan: Plan {
                w,
                ld,
                refs,
                streams,
            },
            book: Book {
                next_read: 0,
                next_write: 0,
                applied: vec![0; wc],
                write_failed: vec![false; wc],
                last: vec![None; wc],
                batches: vec![Vec::new(); wc],
                wrong: 0,
            },
        }
    }

    /// Runs one timed window of the workload's traffic.  A closed-loop
    /// window runs on past `seconds` until it has `min_reads` reads, for at
    /// most twice its length.
    pub fn window(
        &mut self,
        seconds: f64,
        min_reads: usize,
        mut tr: Option<&mut Tracer>,
    ) -> Window {
        let server = &self.plan.ld.server;
        let traffic = self.plan.w.params().traffic;
        let schedule = match traffic {
            Traffic::Open {
                reads_per_s,
                writes_per_s,
            } => fixed_rate(reads_per_s, writes_per_s, (seconds * 1e9) as u64),
            Traffic::Closed { .. } => Vec::new(),
        };
        let before = server.stats();
        let allocs = crate::allocations();
        let start = Instant::now();
        let cap = if tr.is_some() { 1 << 14 } else { 0 };
        let mut win = Window {
            log: Vec::with_capacity(1 << 14),
            elapsed_s: 0.0,
            allocs: 0,
            stats: (before, before),
            submit_ns: Vec::with_capacity(cap),
            queue_lens: Vec::with_capacity(cap),
            bytes_copied: 0.0,
        };
        match traffic {
            Traffic::Closed { writes_per_read } => self.closed(
                &mut win,
                start,
                seconds,
                min_reads,
                writes_per_read,
                &mut tr,
            ),
            Traffic::Open { .. } => self.open(&mut win, start, &schedule, &mut tr),
        }
        win.elapsed_s = start.elapsed().as_secs_f64();
        win.allocs = crate::allocations() - allocs;
        win.stats.1 = self.plan.ld.server.stats();
        win
    }

    fn closed(
        &mut self,
        win: &mut Window,
        start: Instant,
        seconds: f64,
        min_reads: usize,
        writes_per_read: usize,
        tr: &mut Option<&mut Tracer>,
    ) {
        let Run { plan, book } = self;
        let server = &plan.ld.server;
        let ns = |t: Instant| t.duration_since(start).as_nanos() as u64;
        let deadline = start + Duration::from_secs_f64(seconds);
        let hard_stop = start + Duration::from_secs_f64(2.0 * seconds);
        let mut reads = 0;
        loop {
            let now = Instant::now();
            if now >= hard_stop || (now >= deadline && reads >= min_reads) {
                break;
            }
            let i = book.next_read;
            book.next_read += 1;
            let (t, mode, req) = plan.read_request(i);
            let queue = tr.is_some().then(|| server.queue_len());
            let t0 = Instant::now();
            let sub = server.submit(req);
            let t1 = Instant::now();
            let r = sub.and_then(Ticket::wait);
            let t2 = Instant::now();
            let ok = book.check_read(plan, t, mode, &r);
            if ok {
                win.bytes_copied += plan.read_bytes(t);
            }
            reads += 1;
            win.log.push(OpLog {
                kind: Kind::Read,
                due_ns: ns(t0),
                submit_ns: ns(t0),
                done_ns: ns(t2),
                ok,
            });
            if let Some(tr) = tr.as_deref_mut() {
                trace_op(tr, win, queue, t0, t1, t2, i);
            }
            for _ in 0..writes_per_read {
                let k = book.next_write;
                book.next_write += 1;
                let (j, req) = plan.write_request(k);
                let queue = tr.is_some().then(|| server.queue_len());
                let t0 = Instant::now();
                let sub = server.submit_delta(req);
                let t1 = Instant::now();
                let r = sub.and_then(DeltaTicket::wait);
                let t2 = Instant::now();
                let ok = book.accept_write(j, r, true, &mut win.bytes_copied);
                win.log.push(OpLog {
                    kind: Kind::Write,
                    due_ns: ns(t0),
                    submit_ns: ns(t0),
                    done_ns: ns(t2),
                    ok,
                });
                if let Some(tr) = tr.as_deref_mut() {
                    trace_op(tr, win, queue, t0, t1, t2, WRITE_ID_BASE + k);
                }
            }
        }
    }

    fn open(
        &mut self,
        win: &mut Window,
        start: Instant,
        schedule: &[(u64, Kind)],
        tr: &mut Option<&mut Tracer>,
    ) {
        let Run { plan, book } = self;
        let plan: &Plan = plan;
        let traced = tr.is_some();
        let (i0, k0) = (book.next_read, book.next_write);
        let (tx, rx) = mpsc::channel::<Sent>();
        std::thread::scope(|s| {
            let generator = s.spawn(move || {
                let server = &plan.ld.server;
                let ns = |t: Instant| t.duration_since(start).as_nanos() as u64;
                let (mut i, mut k) = (0u64, 0u64);
                for &(due, kind) in schedule {
                    let at = start + Duration::from_nanos(due);
                    let now = Instant::now();
                    if at > now {
                        std::thread::sleep(at - now);
                    }
                    let queue = traced.then(|| server.queue_len());
                    let t0 = Instant::now();
                    let (op, pending) = if kind == Kind::Read {
                        let (t, mode, req) = plan.read_request(i0 + i);
                        i += 1;
                        (i0 + i - 1, Pending::Read(t, mode, server.submit(req)))
                    } else {
                        let (j, req) = plan.write_request(k0 + k);
                        k += 1;
                        (
                            WRITE_ID_BASE + k0 + k - 1,
                            Pending::Write(j, server.submit_delta(req)),
                        )
                    };
                    let t1 = Instant::now();
                    let sent = Sent {
                        op,
                        due_ns: due,
                        submit_ns: ns(t0),
                        submit_end_ns: ns(t1),
                        queue,
                        pending,
                        done_ns: None,
                    };
                    if tx.send(sent).is_err() {
                        break;
                    }
                }
                (i, k)
            });
            collect(plan, book, win, start, rx, tr);
            let (i, k) = generator.join().expect("the load generator does not panic");
            book.next_read = i0 + i;
            book.next_write = k0 + k;
        });
    }
}

fn trace_op(
    tr: &mut Tracer,
    win: &mut Window,
    queue: Option<usize>,
    t0: Instant,
    t1: Instant,
    t2: Instant,
    op: u64,
) {
    let root = tr.record("request", t0, t2, NO_PARENT, op);
    tr.record("submit", t0, t1, root, op);
    tr.record("wait", t1, t2, root, op);
    win.submit_ns.push((t1 - t0).as_nanos() as u64);
    win.queue_lens.extend(queue.map(|q| q as f64));
}

enum Pending {
    Read(usize, SolveMode, Result<Ticket, ServeError>),
    Write(usize, Result<DeltaTicket, ServeError>),
}

/// A submitted operation on its way from the generator to the collector.
struct Sent {
    op: u64,
    due_ns: u64,
    submit_ns: u64,
    submit_end_ns: u64,
    queue: Option<usize>,
    pending: Pending,
    /// Set when an earlier answer showed this edit was answered in the same
    /// coalesced round.
    done_ns: Option<u64>,
}

/// Waits for every answer in submission order.  One worker answers in
/// queue order, with one exception: edits coalesced into a round are all
/// answered when the round's first edit is.  The round size comes back
/// with that answer, so the edits that rode along are stamped with its
/// completion time rather than when the collector got to them.
fn collect(
    plan: &Plan,
    book: &mut Book,
    win: &mut Window,
    start: Instant,
    rx: mpsc::Receiver<Sent>,
    tr: &mut Option<&mut Tracer>,
) {
    let ns = |t: Instant| t.duration_since(start).as_nanos() as u64;
    let mut outstanding: VecDeque<Sent> = VecDeque::with_capacity(1024);
    loop {
        if outstanding.is_empty() {
            match rx.recv() {
                Ok(s) => outstanding.push_back(s),
                Err(_) => break,
            }
        }
        let s = outstanding.pop_front().expect("refilled above");
        let (kind, ok, done_ns) = match s.pending {
            Pending::Read(t, mode, sub) => {
                let r = sub.and_then(Ticket::wait);
                let done = ns(Instant::now());
                let ok = book.check_read(plan, t, mode, &r);
                if ok {
                    win.bytes_copied += plan.read_bytes(t);
                }
                (Kind::Read, ok, done)
            }
            Pending::Write(j, sub) => {
                let r = sub.and_then(DeltaTicket::wait);
                let done = s.done_ns.unwrap_or_else(|| ns(Instant::now()));
                let first = s.done_ns.is_none();
                if let (true, Ok(resp)) = (first, &r) {
                    mark_round(
                        &mut outstanding,
                        &rx,
                        j,
                        resp.coalesced.saturating_sub(1),
                        done,
                    );
                }
                (
                    Kind::Write,
                    book.accept_write(j, r, first, &mut win.bytes_copied),
                    done,
                )
            }
        };
        win.log.push(OpLog {
            kind,
            due_ns: s.due_ns,
            submit_ns: s.submit_ns,
            done_ns,
            ok,
        });
        if let Some(tr) = tr.as_deref_mut() {
            let at = |x: u64| start + Duration::from_nanos(x);
            let root = tr.record(
                "request",
                at(s.submit_ns),
                at(done_ns.max(s.submit_end_ns)),
                NO_PARENT,
                s.op,
            );
            tr.record("submit", at(s.submit_ns), at(s.submit_end_ns), root, s.op);
            win.submit_ns.push(s.submit_end_ns - s.submit_ns);
            win.queue_lens.extend(s.queue.map(|q| q as f64));
        }
    }
}

/// Stamps the next `count` unanswered edits of instance `j` with `done`.
fn mark_round(
    outstanding: &mut VecDeque<Sent>,
    rx: &mpsc::Receiver<Sent>,
    j: usize,
    mut count: usize,
    done: u64,
) {
    let mut pos = 0;
    while count > 0 {
        if pos == outstanding.len() {
            match rx.recv() {
                Ok(s) => outstanding.push_back(s),
                Err(_) => return,
            }
        }
        let s = &mut outstanding[pos];
        if matches!(s.pending, Pending::Write(jj, _) if jj == j) && s.done_ns.is_none() {
            s.done_ns = Some(done);
            count -= 1;
        }
        pos += 1;
    }
}
