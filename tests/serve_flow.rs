//! The characterization service contract: request coalescing with
//! byte-identical artifacts, bounded-queue load shedding, cooperative
//! cancellation of abandoned work, and crash-safe daemon restart with
//! zero re-simulation.

use std::path::PathBuf;
use std::thread;

use cryo_soc::core::supervise::{CancelToken, RunHooks, Stage, Supervisor, SupervisorConfig};
use cryo_soc::core::{CoreError, CryoFlow, FlowConfig};
use cryo_soc::serve::{event_kind, Client, Daemon, ServeConfig, ServeStats};
use serde::Value;

/// A unique scratch cache directory, wiped before use.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cryo_serve_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cryo-serve-{tag}-{}.sock", std::process::id()))
}

/// In-process daemon on a scratch socket. `max_pipelines: 0` is a valid
/// degenerate config for admission-only tests: nothing ever executes.
fn daemon_at(dir: &PathBuf, tag: &str, queue_depth: usize, max_pipelines: usize) -> Daemon {
    let mut cfg = ServeConfig::new(socket_path(tag), FlowConfig::fast(dir));
    cfg.queue_depth = queue_depth;
    cfg.max_pipelines = max_pipelines;
    Daemon::bind(cfg).expect("bind daemon")
}

fn spawn(daemon: Daemon) -> (PathBuf, thread::JoinHandle<ServeStats>) {
    let socket = daemon.socket().to_path_buf();
    let handle = thread::spawn(move || daemon.run().expect("daemon run"));
    (socket, handle)
}

fn shut_down(socket: &std::path::Path, handle: thread::JoinHandle<ServeStats>) -> ServeStats {
    let mut c = Client::connect(socket).expect("connect for shutdown");
    c.send_raw(r#"{"cmd":"shutdown"}"#).expect("send shutdown");
    let _ = c.next_line();
    handle.join().expect("daemon thread")
}

#[test]
fn concurrent_duplicates_coalesce_into_one_byte_identical_job() {
    let dir = scratch("coalesce");
    let (socket, handle) = spawn(daemon_at(&dir, "coalesce", 8, 1));

    // Three clients ask for the same corner concurrently. The daemon must
    // execute exactly one characterization and every subscriber must get
    // the exact same bytes back — coalescing keyed on the cache key, one
    // serialization broadcast to all.
    let corner = r#"{"cmd":"corner","temp":300,"vdd":0.7,"process":"tt"}"#;
    let clients: Vec<_> = (0..3)
        .map(|_| {
            let socket = socket.clone();
            thread::spawn(move || {
                let mut c = Client::connect(&socket).expect("connect");
                c.send_raw(corner).expect("send");
                let ack = c.next_event().expect("ack");
                assert_eq!(event_kind(&ack), "accepted", "{ack:?}");
                let (line, _) = c.wait_terminal().expect("terminal");
                line
            })
        })
        .collect();
    let lines: Vec<String> = clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .collect();
    let stats = shut_down(&socket, handle);

    for line in &lines[1..] {
        assert_eq!(line, &lines[0], "coalesced subscribers diverged");
    }
    let done: Value = serde_json::parse(&lines[0]).expect("done parses");
    assert_eq!(event_kind(&done), "done");
    assert!(
        done.get("digest").as_str().is_some(),
        "done carries a digest"
    );
    assert!(
        done.get("tran_solves").as_f64().unwrap_or(0.0) > 0.0,
        "the one executed job characterized for real"
    );
    // Sim counters prove exactly one characterization happened.
    assert_eq!(stats.jobs_run, 1, "{stats:?}");
    assert_eq!(stats.coalesced, 2, "{stats:?}");
    assert_eq!(stats.accepted, 3, "{stats:?}");
}

#[test]
fn full_queue_sheds_with_structured_overload() {
    let dir = scratch("overload");
    // Zero workers: admitted jobs stay queued, so the shed decision is
    // deterministic — depth 1 means the second distinct job overflows.
    let (socket, handle) = spawn(daemon_at(&dir, "overload", 1, 0));

    let mut first = Client::connect(&socket).expect("connect");
    first
        .send_raw(r#"{"cmd":"corner","temp":300,"vdd":0.7}"#)
        .expect("send");
    let ack = first.next_event().expect("ack");
    assert_eq!(event_kind(&ack), "accepted", "{ack:?}");

    let mut second = Client::connect(&socket).expect("connect");
    second
        .send_raw(r#"{"cmd":"corner","temp":310,"vdd":0.7}"#)
        .expect("send");
    let shed = second.next_event().expect("shed event");
    assert_eq!(event_kind(&shed), "overloaded", "{shed:?}");
    let retry = shed
        .get("retry_after_ms")
        .as_f64()
        .expect("structured retry_after_ms");
    assert!(
        (100.0..=600_000.0).contains(&retry),
        "retry_after_ms outside its clamp: {retry}"
    );
    assert!(shed.get("reason").as_str().is_some());

    let stats = shut_down(&socket, handle);
    assert_eq!(stats.overloaded, 1, "{stats:?}");
    assert_eq!(stats.jobs_run, 0, "nothing should have executed: {stats:?}");
}

#[test]
fn disconnect_cancels_a_job_nobody_is_waiting_for() {
    let dir = scratch("cancel");
    let (socket, handle) = spawn(daemon_at(&dir, "cancel", 8, 0));

    {
        let mut c = Client::connect(&socket).expect("connect");
        c.send_raw(r#"{"cmd":"corner","temp":300,"vdd":0.7}"#)
            .expect("send");
        let ack = c.next_event().expect("ack");
        assert_eq!(event_kind(&ack), "accepted", "{ack:?}");
        // Dropping the client closes the socket: the daemon must notice
        // and cancel the now-subscriberless job.
    }

    // A second subscriber keeps its job alive across the first one's exit.
    let mut keep = Client::connect(&socket).expect("connect");
    keep.send_raw(r#"{"cmd":"corner","temp":310,"vdd":0.7}"#)
        .expect("send");
    let _ = keep.next_event().expect("ack");
    {
        let mut also = Client::connect(&socket).expect("connect");
        also.send_raw(r#"{"cmd":"corner","temp":310,"vdd":0.7}"#)
            .expect("send");
        let ack = also.next_event().expect("ack");
        assert_eq!(
            ack.get("coalesced").as_str(),
            None,
            "coalesced is a bool, not a string"
        );
        assert!(matches!(ack.get("coalesced"), Value::Bool(true)), "{ack:?}");
    }

    // Poll stats until the disconnects are processed (connection threads
    // race the assertions otherwise).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let cancelled = loop {
        let mut c = Client::connect(&socket).expect("connect");
        c.send_raw(r#"{"cmd":"stats"}"#).expect("send stats");
        let stats = c.next_event().expect("stats");
        let cancelled = stats.get("cancelled").as_f64().unwrap_or(-1.0);
        if cancelled >= 1.0 || std::time::Instant::now() > deadline {
            break cancelled;
        }
        thread::sleep(std::time::Duration::from_millis(25));
    };
    // Exactly one job lost all subscribers; the coalesced one still has
    // `keep` attached and must stay live.
    assert!(
        (cancelled - 1.0).abs() < f64::EPSILON,
        "cancelled = {cancelled}"
    );
    let stats = shut_down(&socket, handle);
    assert_eq!(stats.cancelled, 1, "{stats:?}");
}

#[test]
fn cancellation_is_structured_and_keeps_committed_checkpoints() {
    let dir = scratch("cancel_sup");
    let flow = CryoFlow::new(FlowConfig::fast(&dir));

    // Commit the calibrate checkpoint, then run again with a pre-fired
    // cancel token: the run must fail with the structured Cancelled error
    // while the committed checkpoint survives for the next run to resume.
    let warm = Supervisor::new(
        flow.clone(),
        SupervisorConfig {
            halt_after: Some(Stage::Calibrate),
            ..SupervisorConfig::default()
        },
    );
    let rep = warm.run().expect("calibrate run");
    assert!(!rep.stages[0].from_checkpoint);

    let cancel = CancelToken::new();
    cancel.cancel();
    let cancelled = Supervisor::new(
        flow.clone(),
        SupervisorConfig {
            halt_after: Some(Stage::Charlib300),
            ..SupervisorConfig::default()
        },
    )
    .with_hooks(RunHooks {
        cancel: Some(cancel),
        ..RunHooks::default()
    });
    match cancelled.run() {
        Err(CoreError::Cancelled { stage }) => {
            // The cancel point sits at stage entry, ahead of even the
            // checkpoint probe: an abandoned request spends nothing.
            assert_eq!(stage, "calibrate");
        }
        other => panic!("expected structured cancellation, got {other:?}"),
    }

    // The checkpoint committed before the cancellation is still there.
    let resumed = Supervisor::new(
        flow,
        SupervisorConfig {
            halt_after: Some(Stage::Calibrate),
            ..SupervisorConfig::default()
        },
    );
    let rep = resumed.run().expect("resume after cancel");
    assert!(
        rep.stages[0].from_checkpoint,
        "cancellation must not destroy committed checkpoints"
    );
}

#[test]
fn restarted_daemon_replays_from_checkpoints_with_zero_resimulation() {
    let dir = scratch("restart");

    // First daemon: checkpoint the pipeline through sta300, then stop —
    // the protocol-level stand-in for dying mid-run (the CI drill does
    // the real kill -9 against a separate process; in-process the state
    // on disk is identical because the daemon holds no private state).
    let (socket, handle) = spawn(daemon_at(&dir, "restart1", 8, 1));
    let mut c = Client::connect(&socket).expect("connect");
    c.send_raw(r#"{"cmd":"signoff","halt_after":"sta300"}"#)
        .expect("send");
    let (line, _) = c.wait_terminal().expect("terminal");
    let done: Value = serde_json::parse(&line).expect("done parses");
    assert_eq!(event_kind(&done), "done", "{line}");
    let first = shut_down(&socket, handle);
    assert!(first.tran_solves > 0, "first run characterized: {first:?}");

    // Second daemon over the same store: a full signoff must replay every
    // checkpointed stage with zero simulator work.
    let (socket, handle) = spawn(daemon_at(&dir, "restart2", 8, 1));
    let mut c = Client::connect(&socket).expect("connect");
    c.send_raw(r#"{"cmd":"signoff"}"#).expect("send");
    let ack = c.next_event().expect("ack");
    assert_eq!(event_kind(&ack), "accepted", "{ack:?}");
    let (line, interim) = c.wait_terminal().expect("terminal");
    let done: Value = serde_json::parse(&line).expect("done parses");
    assert_eq!(event_kind(&done), "done", "{line}");

    // The daemon streamed stage progress, and the resumed stages say so.
    let resumed_stages: Vec<&Value> = interim
        .iter()
        .filter(|e| event_kind(e) == "stage")
        .filter(|e| matches!(e.get("from_checkpoint"), Value::Bool(true)))
        .collect();
    assert!(
        resumed_stages.len() >= 4,
        "calibrate..sta300 must resume from checkpoints: {} resumed",
        resumed_stages.len()
    );

    // Zero re-simulation, proven by the folded counters in the done event:
    // every SPICE-bearing stage (charlib300/charlib10) was checkpointed.
    assert_eq!(done.get("dc_solves").as_f64(), Some(0.0), "{line}");
    assert_eq!(done.get("tran_solves").as_f64(), Some(0.0), "{line}");

    let second = shut_down(&socket, handle);
    assert_eq!(second.tran_solves, 0, "restart re-simulated: {second:?}");
    assert_eq!(second.jobs_run, 1, "{second:?}");
}

#[test]
fn hostile_request_lines_are_refused_and_the_daemon_keeps_serving() {
    let dir = scratch("hostile");
    // A one-point grid keeps the cold corner that warms the cache cheap.
    let mut flow = FlowConfig::fast(&dir);
    flow.char_300k.slews = vec![20e-12];
    flow.char_300k.loads_x1 = vec![3.2e-15];
    let daemon = Daemon::bind(ServeConfig::new(socket_path("hostile"), flow)).expect("bind");
    let (socket, handle) = spawn(daemon);

    let corner = r#"{"cmd":"corner","temp":300,"vdd":0.7,"process":"tt"}"#;
    let mut cold = Client::connect(&socket).expect("connect");
    cold.send_raw(corner).expect("send");
    let (line, _) = cold.wait_terminal().expect("cold terminal");
    let cold: Value = serde_json::parse(&line).expect("cold done parses");
    assert_eq!(event_kind(&cold), "done", "{line}");

    // Over-long and over-deep lines get structured refusals, and the same
    // connection is still served afterwards.
    let mut hostile = Client::connect(&socket).expect("connect");
    let over_long = format!(r#"{{"cmd":"stats","pad":"{}"}}"#, "x".repeat(1 << 20));
    for (line, needle) in [
        ("[".repeat(100_000), "exceeds 65536 bytes"),
        (over_long, "exceeds 65536 bytes"),
        ("[".repeat(10_000), "nesting too deep"),
    ] {
        hostile.send_raw(&line).expect("send hostile line");
        let refused = hostile.next_event().expect("refusal");
        assert_eq!(
            refused.get("kind").as_str(),
            Some("bad_request"),
            "{refused:?}"
        );
        let message = refused.get("message").as_str().unwrap_or("");
        assert!(message.contains(needle), "{message}");
    }
    hostile.send_raw(r#"{"cmd":"stats"}"#).expect("send stats");
    let stats = hostile.next_event().expect("stats");
    assert_eq!(event_kind(&stats), "stats", "{stats:?}");

    // A second client's warm request is served from the cache: no SPICE,
    // the cold request's library.
    let mut warm = Client::connect(&socket).expect("connect");
    warm.send_raw(corner).expect("send");
    let (line, _) = warm.wait_terminal().expect("warm terminal");
    let warm: Value = serde_json::parse(&line).expect("warm done parses");
    assert_eq!(event_kind(&warm), "done", "{line}");
    assert_eq!(warm.get("dc_solves").as_f64(), Some(0.0));
    assert_eq!(warm.get("tran_solves").as_f64(), Some(0.0));
    assert_eq!(
        warm.get("artifact").get("lib"),
        cold.get("artifact").get("lib")
    );

    let stats = shut_down(&socket, handle);
    assert_eq!(stats.jobs_run, 2, "{stats:?}");
}
