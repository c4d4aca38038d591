//! The characterization daemon: intake, admission, coalescing, execution.
//!
//! Thread model (no async runtime, no new dependencies):
//!
//! - one **accept** thread (the caller of [`Daemon::run`]) takes Unix-socket
//!   connections and hands each to a detached **connection** thread;
//! - connection threads parse request lines, run admission control under
//!   the registry lock, and subscribe the connection to a `Job`;
//! - a fixed pool of **worker** threads (the `max_pipelines` knob) drains
//!   the bounded job queue and executes characterizations/pipelines.
//!
//! Robustness contract:
//!
//! - **Coalescing.** Jobs are keyed by the same cache keys the batch flow
//!   uses (`corner/<lib_name>/<cache_key>`, `signoff/<pipeline_key>`), so
//!   two clients asking for the same work share one in-flight job. Every
//!   event for a job is serialized once and the identical line goes to all
//!   subscribers — byte-identical artifacts by construction.
//! - **Backpressure.** The queue is bounded; an admission that would
//!   exceed it is shed with a structured `overloaded{retry_after_ms}`
//!   event instead of queueing into unbounded latency. Requests carrying
//!   a deadline the EWMA service-time estimate says cannot be met are
//!   shed at admission, before they waste a worker.
//! - **Cancellation.** A client disconnect detaches its subscriptions;
//!   a job with no subscribers left is cancelled cooperatively via the
//!   supervisor's [`CancelToken`] — stage checkpoints committed before
//!   the cancellation point stay on disk.
//! - **Crash safety.** The daemon holds no state the checkpoint stores
//!   don't: `kill -9` mid-job loses nothing but the in-memory queue, and
//!   a restarted daemon serves the same request from stage/cell
//!   checkpoints with zero re-simulation. Startup sweeps the tmp-file
//!   orphans such a kill leaves behind.

use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use cryo_cells::{cache, topology};
use cryo_core::corners::Corner;
use cryo_core::supervise::{
    spawn_counted, validate_env, watch, CancelToken, EventSink, RunHooks, Watch,
};
use cryo_core::{CoreError, CryoFlow, FlowConfig, Stage, Supervisor, SupervisorConfig};
use cryo_spice::work::{self, Work};
use serde::{Serialize, Value};

use crate::proto::{self, Request};
use crate::{Result, ServeError};

/// Daemon configuration. Environment knobs (`CRYO_SERVE_*`) override the
/// corresponding fields at [`Daemon::bind`] time.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Unix-socket path to listen on.
    pub socket: PathBuf,
    /// The flow every job runs against (cache dir, grids, policies).
    pub flow: FlowConfig,
    /// Admission queue bound: jobs waiting for a worker beyond the ones
    /// already running. Exceeding it sheds with `overloaded`.
    pub queue_depth: usize,
    /// Worker-pool size: concurrently executing pipelines.
    pub max_pipelines: usize,
    /// Budgets/policies for signoff jobs (per-request deadlines clamp the
    /// overall and stage budgets further).
    pub supervisor: SupervisorConfig,
}

impl ServeConfig {
    /// A config with the default queue bound (8) and a single pipeline.
    #[must_use]
    pub fn new(socket: impl Into<PathBuf>, flow: FlowConfig) -> Self {
        ServeConfig {
            socket: socket.into(),
            flow,
            queue_depth: 8,
            max_pipelines: 1,
            supervisor: SupervisorConfig::default(),
        }
    }
}

/// Counter snapshot returned by `stats` requests and [`Daemon::run`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests admitted (including coalesced ones).
    pub accepted: u64,
    /// Admitted requests that attached to an in-flight job.
    pub coalesced: u64,
    /// Jobs actually executed by a worker.
    pub jobs_run: u64,
    /// Requests shed with `overloaded`.
    pub overloaded: u64,
    /// Jobs cancelled after their last subscriber disconnected.
    pub cancelled: u64,
    /// DC operating-point solves across all jobs.
    pub dc_solves: u64,
    /// Transient analyses across all jobs.
    pub tran_solves: u64,
    /// STA arc evaluations across all jobs.
    pub arc_evals: u64,
    /// Stale atomic-write tmp files swept at daemon startup.
    pub stale_tmp_reaped: u64,
}

#[derive(Default)]
struct Counters {
    accepted: AtomicU64,
    coalesced: AtomicU64,
    jobs_run: AtomicU64,
    overloaded: AtomicU64,
    cancelled: AtomicU64,
    dc_solves: AtomicU64,
    tran_solves: AtomicU64,
    arc_evals: AtomicU64,
    stale_tmp_reaped: AtomicU64,
    /// EWMA of job wall time, milliseconds (0 = no sample yet). Feeds the
    /// deadline-aware shed estimate and `retry_after_ms`.
    ewma_job_ms: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> ServeStats {
        let ld = |a: &AtomicU64| a.load(Ordering::SeqCst);
        ServeStats {
            accepted: ld(&self.accepted),
            coalesced: ld(&self.coalesced),
            jobs_run: ld(&self.jobs_run),
            overloaded: ld(&self.overloaded),
            cancelled: ld(&self.cancelled),
            dc_solves: ld(&self.dc_solves),
            tran_solves: ld(&self.tran_solves),
            arc_evals: ld(&self.arc_evals),
            stale_tmp_reaped: ld(&self.stale_tmp_reaped),
        }
    }
}

/// What a job computes.
#[derive(Debug, Clone)]
enum JobKind {
    Corner(Corner),
    Signoff { halt_after: Option<Stage> },
}

/// One subscriber: a request id plus the connection's shared write half
/// (the mutex serializes job broadcasts against connection-thread acks so
/// lines never interleave).
struct Subscriber {
    req: String,
    out: Arc<Mutex<UnixStream>>,
}

/// One admitted unit of work, shared between its subscribers.
struct Job {
    key: String,
    /// Request id of the originating (first) subscriber — the fault
    /// context `serve:<req>` is scoped to it.
    req: String,
    kind: JobKind,
    /// The originating request's deadline (late joiners ride along on the
    /// first requester's budget).
    deadline_ms: Option<u64>,
    cancel: CancelToken,
    subs: Mutex<Vec<Subscriber>>,
}

impl Job {
    /// Serialize `event` once and write the identical line to every live
    /// subscriber.
    fn broadcast(&self, event: &Value) {
        self.send(&to_line(event));
    }

    /// Write the identical `line` to every live subscriber; dead ones are
    /// dropped.
    fn send(&self, line: &str) {
        let mut subs = self.subs.lock().expect("subs lock");
        subs.retain(|s| write_line(&s.out, line).is_ok());
    }
}

fn write_line(out: &Arc<Mutex<UnixStream>>, line: &str) -> std::io::Result<()> {
    let mut stream = out.lock().expect("write lock");
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")
}

#[derive(Default)]
struct Registry {
    /// Every queued or running job, by key — the coalescing index.
    jobs: HashMap<String, Arc<Job>>,
    /// Jobs waiting for a worker (bounded by `queue_depth`).
    queue: VecDeque<Arc<Job>>,
}

struct Shared {
    cfg: ServeConfig,
    registry: Mutex<Registry>,
    work_ready: Condvar,
    stats: Counters,
    shutdown: AtomicBool,
    req_seq: AtomicU64,
}

impl Shared {
    fn next_req(&self) -> String {
        format!("r{:04}", self.req_seq.fetch_add(1, Ordering::SeqCst))
    }

    /// Remove one subscription after a client disconnect; a job left with
    /// no subscribers is cancelled cooperatively.
    fn detach(&self, key: &str, req: &str) {
        let registry = self.registry.lock().expect("registry lock");
        if let Some(job) = registry.jobs.get(key) {
            let mut subs = job.subs.lock().expect("subs lock");
            subs.retain(|s| s.req != req);
            if subs.is_empty() && !job.cancel.is_cancelled() {
                job.cancel.cancel();
                self.stats.cancelled.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    /// Service-time estimate for a request admitted behind `queued` jobs,
    /// milliseconds; 0 when no job has completed yet (no basis to shed).
    fn estimate_ms(&self, queued: usize) -> u64 {
        let ewma = self.stats.ewma_job_ms.load(Ordering::SeqCst);
        if ewma == 0 {
            return 0;
        }
        let waves = (queued as u64) / (self.cfg.max_pipelines.max(1) as u64) + 1;
        ewma.saturating_mul(waves)
    }

    fn retry_after_ms(&self, queued: usize) -> u64 {
        let base = match self.stats.ewma_job_ms.load(Ordering::SeqCst) {
            0 => 1000,
            ms => ms,
        };
        let est = base.saturating_mul(queued as u64 + 1) / (self.cfg.max_pipelines.max(1) as u64);
        est.clamp(100, 600_000)
    }
}

/// The daemon. [`Daemon::bind`] validates the environment, claims the
/// socket, and sweeps crash residue; [`Daemon::run`] serves until a
/// `shutdown` request arrives.
pub struct Daemon {
    shared: Arc<Shared>,
    listener: UnixListener,
}

impl Daemon {
    /// Bind the daemon: strict env validation (the `CRYO_SERVE_*` knobs
    /// override `cfg`), stale-socket removal, stale tmp-file sweep of the
    /// cache and checkpoint directories.
    ///
    /// # Errors
    ///
    /// [`ServeError::Core`] on a rejected environment knob,
    /// [`ServeError::Io`] when the socket cannot be claimed.
    pub fn bind(mut cfg: ServeConfig) -> Result<Daemon> {
        let env = validate_env().map_err(ServeError::Core)?;
        if let Some(socket) = env.serve_socket {
            cfg.socket = PathBuf::from(socket);
        }
        if let Some(depth) = env.serve_queue {
            cfg.queue_depth = depth;
        }
        if let Some(pipelines) = env.serve_pipelines {
            cfg.max_pipelines = pipelines;
        }

        // Crash residue: a previous daemon killed -9 leaves its socket
        // file and any in-flight atomic-write tmp siblings behind. The
        // socket is ours to reclaim; the tmp orphans are swept with the
        // same threshold the checkpoint store uses.
        if cfg.socket.exists() {
            std::fs::remove_file(&cfg.socket).map_err(ServeError::Io)?;
        }
        if let Some(parent) = cfg.socket.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(ServeError::Io)?;
            }
        }
        let reap_age = cache::effective_reap_age();
        let mut reaped = cache::reap_stale_tmp(&cfg.flow.cache_dir, reap_age);
        let ckpt_root = cfg.flow.cache_dir.join("checkpoints");
        for entry in std::fs::read_dir(&ckpt_root)
            .into_iter()
            .flatten()
            .flatten()
        {
            if entry.file_type().is_ok_and(|t| t.is_dir()) {
                reaped += cache::reap_stale_tmp(&entry.path(), reap_age);
            }
        }

        let listener = UnixListener::bind(&cfg.socket).map_err(ServeError::Io)?;
        let shared = Arc::new(Shared {
            cfg,
            registry: Mutex::new(Registry::default()),
            work_ready: Condvar::new(),
            stats: Counters::default(),
            shutdown: AtomicBool::new(false),
            req_seq: AtomicU64::new(1),
        });
        shared
            .stats
            .stale_tmp_reaped
            .store(reaped as u64, Ordering::SeqCst);
        Ok(Daemon { shared, listener })
    }

    /// The bound socket path.
    #[must_use]
    pub fn socket(&self) -> &Path {
        &self.shared.cfg.socket
    }

    /// Serve until a `shutdown` request: spawn the worker pool, accept
    /// connections, drain, and return the final counter snapshot.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on accept-loop failures.
    pub fn run(self) -> Result<ServeStats> {
        let workers: Vec<_> = (0..self.shared.cfg.max_pipelines)
            .map(|i| {
                let shared = Arc::clone(&self.shared);
                thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn serve worker")
            })
            .collect();

        for stream in self.listener.incoming() {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = stream.map_err(ServeError::Io)?;
            let shared = Arc::clone(&self.shared);
            // Connection threads are detached: they exit on client EOF,
            // and the daemon's lifetime is governed by the accept loop.
            let _ = thread::Builder::new()
                .name("serve-conn".into())
                .spawn(move || handle_connection(&shared, stream));
        }

        self.shared.work_ready.notify_all();
        for w in workers {
            let _ = w.join();
        }
        // Jobs still queued at shutdown never ran: tell their subscribers
        // rather than leaving them waiting on a dead socket.
        let leftovers: Vec<Arc<Job>> = {
            let mut registry = self.shared.registry.lock().expect("registry lock");
            registry.queue.clear();
            registry.jobs.drain().map(|(_, j)| j).collect()
        };
        for job in leftovers {
            job.broadcast(&proto::ev_error(
                "shutdown",
                "daemon stopped before this job ran",
            ));
        }
        let _ = std::fs::remove_file(&self.shared.cfg.socket);
        Ok(self.shared.stats.snapshot())
    }
}

/// The job key a corner request coalesces on: the corner's canonical
/// library name plus the exact characterization cache key the batch flow
/// would use — two requests share a job precisely when the batch flow
/// would share a cache entry.
fn corner_job_key(flow: &CryoFlow, corner: &Corner) -> std::result::Result<String, CoreError> {
    let char_cfg = flow.corner_char_cfg(corner);
    let (nfet, pfet) = flow.corner_cards(corner);
    let tag = cache::cell_set_tag(&topology::standard_cell_set());
    let key = cache::cache_key(&nfet, &pfet, &char_cfg, &tag)?;
    Ok(format!("corner/{}/{key}", corner.lib_name()))
}

/// Longest request line the daemon reads, in bytes without the newline.
/// Real requests are under 200 bytes; a longer line is answered with
/// `bad_request` and skipped without ever being held whole.
const MAX_REQUEST_LINE: usize = 64 * 1024;

/// Read the next request line: `None` at end of input, `Some(Err(reason))`
/// for a line the daemon refuses. An over-long line is consumed up to its
/// newline but never buffered beyond [`MAX_REQUEST_LINE`].
fn read_request_line(
    reader: &mut impl std::io::BufRead,
) -> std::io::Result<Option<std::result::Result<String, String>>> {
    let mut buf = Vec::new();
    let mut too_long = false;
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            // End of input: a last line without a newline still counts.
            if buf.is_empty() && !too_long {
                return Ok(None);
            }
            break;
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.unwrap_or(chunk.len());
        too_long |= buf.len() + take > MAX_REQUEST_LINE;
        if too_long {
            buf.clear();
        } else {
            buf.extend_from_slice(&chunk[..take]);
        }
        reader.consume(take + usize::from(newline.is_some()));
        if newline.is_some() {
            break;
        }
    }
    if too_long {
        return Ok(Some(Err(format!(
            "request line exceeds {MAX_REQUEST_LINE} bytes"
        ))));
    }
    Ok(Some(
        String::from_utf8(buf).map_err(|_| "request line is not UTF-8".to_string()),
    ))
}

fn handle_connection(shared: &Arc<Shared>, stream: UnixStream) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let out = Arc::new(Mutex::new(write_half));
    let mut reader = std::io::BufReader::new(stream);
    // (job key, request id) pairs this connection subscribed to, so a
    // disconnect can detach them (and cancel jobs nobody wants anymore).
    let mut subscribed: Vec<(String, String)> = Vec::new();
    loop {
        let request = match read_request_line(&mut reader) {
            Ok(None) | Err(_) => break,
            Ok(Some(Ok(line))) if line.trim().is_empty() => continue,
            Ok(Some(line)) => line.and_then(|line| proto::parse_request(&line)),
        };
        match request {
            Err(reason) => {
                if write_line(&out, &to_line(&proto::ev_error("bad_request", &reason))).is_err() {
                    break;
                }
            }
            Ok(Request::Stats) => {
                let stats = shared.stats.snapshot();
                let (jobs, queued) = {
                    let registry = shared.registry.lock().expect("registry lock");
                    (registry.jobs.len(), registry.queue.len())
                };
                if write_line(&out, &to_line(&stats_event(&stats, jobs, queued))).is_err() {
                    break;
                }
            }
            Ok(Request::Shutdown) => {
                shared.shutdown.store(true, Ordering::SeqCst);
                shared.work_ready.notify_all();
                let _ = write_line(&out, &to_line(&proto::ev_shutdown()));
                // Unblock the accept loop so it observes the flag.
                let _ = UnixStream::connect(&shared.cfg.socket);
                break;
            }
            Ok(request) => admit(shared, &out, request, &mut subscribed),
        }
    }
    for (key, req) in subscribed {
        shared.detach(&key, &req);
    }
}

fn to_line(v: &Value) -> String {
    serde_json::to_string(v).expect("events serialize")
}

fn stats_event(s: &ServeStats, jobs: usize, queued: usize) -> Value {
    let mut fields = vec![("event".to_string(), Value::String("stats".to_string()))];
    for (name, value) in [
        ("accepted", s.accepted),
        ("coalesced", s.coalesced),
        ("jobs_run", s.jobs_run),
        ("overloaded", s.overloaded),
        ("cancelled", s.cancelled),
        ("dc_solves", s.dc_solves),
        ("tran_solves", s.tran_solves),
        ("arc_evals", s.arc_evals),
        ("stale_tmp_reaped", s.stale_tmp_reaped),
        ("jobs_inflight", jobs as u64),
        ("queued", queued as u64),
    ] {
        fields.push((name.to_string(), (value as f64).to_value()));
    }
    Value::Object(fields)
}

/// Admission control: coalesce onto an in-flight job, or shed when the
/// queue is full / the deadline is unmeetable, or enqueue a fresh job.
fn admit(
    shared: &Arc<Shared>,
    out: &Arc<Mutex<UnixStream>>,
    request: Request,
    subscribed: &mut Vec<(String, String)>,
) {
    let req = shared.next_req();
    let (key, kind, deadline_ms) = match request {
        Request::Corner {
            corner,
            deadline_ms,
        } => {
            let flow = CryoFlow::new(shared.cfg.flow.clone());
            match corner_job_key(&flow, &corner) {
                Ok(key) => (key, JobKind::Corner(corner), deadline_ms),
                Err(e) => {
                    let _ = write_line(
                        out,
                        &to_line(&proto::ev_error(proto::error_kind(&e), &e.to_string())),
                    );
                    return;
                }
            }
        }
        Request::Signoff {
            deadline_ms,
            halt_after,
        } => {
            let sup = Supervisor::new(
                CryoFlow::new(shared.cfg.flow.clone()),
                shared.cfg.supervisor.clone(),
            );
            match sup.pipeline_key() {
                // `halt_after` participates in the key: a crash-drill
                // request halting at sta300 must not coalesce with (and
                // truncate) a client's full signoff.
                Ok(key) => (
                    format!("signoff/{key}/{}", halt_after.map_or("full", Stage::name)),
                    JobKind::Signoff { halt_after },
                    deadline_ms,
                ),
                Err(e) => {
                    let _ = write_line(
                        out,
                        &to_line(&proto::ev_error(proto::error_kind(&e), &e.to_string())),
                    );
                    return;
                }
            }
        }
        Request::Stats | Request::Shutdown => unreachable!("handled by the caller"),
    };

    let mut registry = shared.registry.lock().expect("registry lock");
    if let Some(job) = registry.jobs.get(&key) {
        if job.cancel.is_cancelled() {
            // A cancelled husk nobody wants: evict it so this request gets
            // a fresh job instead of subscribing to a corpse.
            registry.queue.retain(|j| j.key != key);
            registry.jobs.remove(&key);
        } else {
            job.subs.lock().expect("subs lock").push(Subscriber {
                req: req.clone(),
                out: Arc::clone(out),
            });
            shared.stats.accepted.fetch_add(1, Ordering::SeqCst);
            shared.stats.coalesced.fetch_add(1, Ordering::SeqCst);
            let depth = registry.queue.len();
            let ack = proto::ev_accepted(&req, &key, true, depth);
            subscribed.push((key, req));
            drop(registry);
            let _ = write_line(out, &to_line(&ack));
            return;
        }
    }

    let queued = registry.queue.len();
    if queued >= shared.cfg.queue_depth {
        shared.stats.overloaded.fetch_add(1, Ordering::SeqCst);
        let retry = shared.retry_after_ms(queued);
        drop(registry);
        let _ = write_line(
            out,
            &to_line(&proto::ev_overloaded(retry, queued, "queue full")),
        );
        return;
    }
    if let Some(deadline) = deadline_ms {
        let estimate = shared.estimate_ms(queued);
        if estimate > deadline {
            shared.stats.overloaded.fetch_add(1, Ordering::SeqCst);
            let retry = shared.retry_after_ms(queued);
            drop(registry);
            let _ = write_line(
                out,
                &to_line(&proto::ev_overloaded(
                    retry,
                    queued,
                    &format!("deadline unmeetable: estimated {estimate} ms service time"),
                )),
            );
            return;
        }
    }

    let job = Arc::new(Job {
        key: key.clone(),
        req: req.clone(),
        kind,
        deadline_ms,
        cancel: CancelToken::new(),
        subs: Mutex::new(vec![Subscriber {
            req: req.clone(),
            out: Arc::clone(out),
        }]),
    });
    registry.jobs.insert(key.clone(), Arc::clone(&job));
    registry.queue.push_back(job);
    shared.stats.accepted.fetch_add(1, Ordering::SeqCst);
    let depth = registry.queue.len();
    let ack = proto::ev_accepted(&req, &key, false, depth);
    subscribed.push((key, req));
    drop(registry);
    shared.work_ready.notify_one();
    let _ = write_line(out, &to_line(&ack));
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut registry = shared.registry.lock().expect("registry lock");
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(job) = registry.queue.pop_front() {
                    break job;
                }
                registry = shared
                    .work_ready
                    .wait(registry)
                    .expect("registry lock poisoned");
            }
        };
        if job.cancel.is_cancelled() {
            // Abandoned while queued: zero work spent on it.
            shared
                .registry
                .lock()
                .expect("registry lock")
                .jobs
                .remove(&job.key);
            continue;
        }
        run_job(shared, &job);
    }
}

fn run_job(shared: &Arc<Shared>, job: &Arc<Job>) {
    let started = Instant::now();
    shared.stats.jobs_run.fetch_add(1, Ordering::SeqCst);
    let result = execute(shared, job);
    // Deregister BEFORE broadcasting: admission attaches subscribers only
    // while the job is in the registry, so everyone attached is guaranteed
    // to receive this broadcast, and nobody can attach after it.
    shared
        .registry
        .lock()
        .expect("registry lock")
        .jobs
        .remove(&job.key);
    #[allow(clippy::cast_possible_truncation)]
    let wall_ms = started.elapsed().as_millis() as u64;
    match result {
        Ok((artifact, spent)) => {
            let (dc, tran, arc_evals) = (spent.dc, spent.tran, spent.arc_evals);
            shared.stats.dc_solves.fetch_add(dc, Ordering::SeqCst);
            shared.stats.tran_solves.fetch_add(tran, Ordering::SeqCst);
            shared
                .stats
                .arc_evals
                .fetch_add(arc_evals, Ordering::SeqCst);
            let prev = shared.stats.ewma_job_ms.load(Ordering::SeqCst);
            let next = if prev == 0 {
                wall_ms.max(1)
            } else {
                (prev * 3 + wall_ms.max(1)) / 4
            };
            shared.stats.ewma_job_ms.store(next, Ordering::SeqCst);
            job.send(&proto::done_line(
                &job.req, &job.key, &artifact, dc, tran, arc_evals, wall_ms,
            ));
        }
        Err(e) if e.is_no_space() => {
            // Persistent ENOSPC that survived the pipeline's shed-and-
            // continue degradation (even opening the store failed in a way
            // that lost work): structured overload, not a crash and not an
            // opaque error. The client backs off and retries once an
            // operator has freed disk; the daemon keeps serving.
            shared.stats.overloaded.fetch_add(1, Ordering::SeqCst);
            let queued = shared.registry.lock().expect("registry lock").queue.len();
            let retry = shared.retry_after_ms(queued);
            job.broadcast(&proto::ev_overloaded(
                retry,
                queued,
                &format!("storage full: {e}"),
            ));
        }
        Err(e) => {
            job.broadcast(&proto::ev_error(proto::error_kind(&e), &e.to_string()));
        }
    }
}

type JobOutput = (String, Work);

/// Execute one job on this worker thread, returning the artifact, serialized
/// once, plus the work it spent (zero on a fully resumed request — that's
/// the crash-safety proof).
fn execute(shared: &Arc<Shared>, job: &Arc<Job>) -> std::result::Result<JobOutput, CoreError> {
    // Drain this worker's ledger so the output covers exactly this job:
    // the corner worker and the supervisor's stage workers both fold their
    // work onto this thread.
    let _ = work::take();
    let artifact = match &job.kind {
        JobKind::Corner(corner) => {
            // The characterization engine has no internal cancel points,
            // so it runs on a detachable thread under the same 25 ms poll
            // contract as supervisor stages: on cancel the worker is
            // detached (its per-cell checkpoints still commit as it
            // finishes) and this worker moves on. The thread gets the shared
            // state, not a flow-config copy: a larger thread closure moved
            // the warm path's peak RSS into its high heap-layout mode.
            let (shared, corner) = (Arc::clone(shared), *corner);
            let rx = spawn_counted("serve-corner".into(), move || {
                CryoFlow::new(shared.cfg.flow.clone()).corner_library_with_report(&corner)
            });
            let (lib, report) = match watch(&rx, Some(&job.cancel), None) {
                Watch::Done((out, _)) => out?,
                Watch::Cancelled => {
                    return Err(CoreError::Cancelled {
                        stage: format!("corner:{}", corner.name()),
                    })
                }
                Watch::Timeout => unreachable!("corner jobs wait without a deadline"),
                Watch::Disconnected => panic!("corner worker panicked"),
            };
            // The `{"lib":…,"report":…}` object, written field by field so
            // no value tree is built or cloned twice.
            format!(
                "{{\"lib\":{},\"report\":{}}}",
                serde_json::to_string(&lib).expect("libraries serialize"),
                serde_json::to_string(&report).expect("reports serialize"),
            )
        }
        JobKind::Signoff { halt_after } => {
            let mut sup_cfg = shared.cfg.supervisor.clone();
            sup_cfg.halt_after = *halt_after;
            if let Some(deadline) = job.deadline_ms {
                // Deadline propagation: the client's budget clamps both
                // the overall and the per-stage budget, so an unmeetable
                // request fails structurally (`stage_timeout`) instead of
                // holding a worker past its deadline.
                let deadline = Duration::from_millis(deadline);
                sup_cfg.overall_budget = sup_cfg.overall_budget.min(deadline);
                sup_cfg.stage_budget = sup_cfg.stage_budget.min(deadline);
            }
            let events_job = Arc::clone(job);
            let hooks = RunHooks {
                cancel: Some(job.cancel.clone()),
                events: Some(EventSink::new(move |e| {
                    events_job.broadcast(&proto::ev_pipeline(e));
                })),
                context: Some(format!("serve:{}", job.req)),
            };
            let sup =
                Supervisor::new(CryoFlow::new(shared.cfg.flow.clone()), sup_cfg).with_hooks(hooks);
            serde_json::to_string(&sup.run()?).expect("reports serialize")
        }
    };
    Ok((artifact, work::take()))
}
