//! Daemon driver and client for characterization-as-a-service, plus the
//! CI drills that prove the service contract end to end.
//!
//! Subcommands:
//!
//! - `serve [--fast] [--socket <path>] [--queue <n>] [--pipelines <n>]` —
//!   run the daemon in the foreground until a `shutdown` request.
//! - `request (--corner T,V[,P] | --signoff) [--halt-after <stage>]
//!   [--deadline-ms <n>] [--expect-resumed-through <stage>]
//!   [--socket <path>]` — send one request, stream interim events to
//!   stderr, print the terminal event line to stdout. Exit code 0 on
//!   `done`, 3 on `overloaded`, 1 on `error`. With
//!   `--expect-resumed-through`, additionally assert every pipeline stage
//!   up to and including `<stage>` was served from its checkpoint with
//!   zero simulator/arc work (the crash-recovery proof).
//! - `stats` / `shutdown [--socket <path>]` — counter snapshot / drain.
//! - `drill coalesce` — 3 concurrent clients, same corner: assert one
//!   executed job and byte-identical `done` lines for all three.
//! - `drill overload` — queue depth 1, one worker, 3 distinct jobs:
//!   assert a structured `overloaded{retry_after_ms}` shed.

use std::path::PathBuf;

use cryo_bench::{arg_value, die, stage_by_name};
use cryo_core::supervise::{PipelineReport, Stage};
use cryo_core::FlowConfig;
use cryo_serve::{event_kind, Client, Daemon, ServeConfig};
use serde::{Deserialize, Serialize, Value};

fn socket_path() -> PathBuf {
    arg_value("--socket")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("data/cryo-serve.sock"))
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn serve_config(fast: bool, socket: PathBuf) -> ServeConfig {
    let flow = if fast {
        FlowConfig::fast("data")
    } else {
        FlowConfig::full("data")
    };
    let mut cfg = ServeConfig::new(socket, flow);
    if let Some(q) = arg_value("--queue") {
        cfg.queue_depth = q
            .parse()
            .unwrap_or_else(|_| die("--queue wants an integer"));
    }
    if let Some(p) = arg_value("--pipelines") {
        cfg.max_pipelines = p
            .parse()
            .unwrap_or_else(|_| die("--pipelines wants an integer"));
    }
    cfg
}

fn serve(fast: bool) {
    let cfg = serve_config(fast, socket_path());
    let daemon = Daemon::bind(cfg).unwrap_or_else(|e| die(&format!("cannot bind daemon: {e}")));
    eprintln!("cryo-serve listening on {}", daemon.socket().display());
    match daemon.run() {
        Ok(stats) => eprintln!(
            "cryo-serve drained: {} accepted ({} coalesced), {} run, {} shed, {} cancelled, \
             {} dc / {} tran / {} arc evals, {} stale tmp reaped",
            stats.accepted,
            stats.coalesced,
            stats.jobs_run,
            stats.overloaded,
            stats.cancelled,
            stats.dc_solves,
            stats.tran_solves,
            stats.arc_evals,
            stats.stale_tmp_reaped,
        ),
        Err(e) => die(&format!("daemon failed: {e}")),
    }
}

/// `--corner "300,0.7[,tt]"` → the request object.
fn corner_request(spec: &str, deadline_ms: Option<f64>) -> Value {
    let parts: Vec<&str> = spec.split(',').collect();
    if !(parts.len() == 2 || parts.len() == 3) {
        die("--corner wants T,V[,P] (e.g. 300,0.7,tt)");
    }
    let temp: f64 = parts[0]
        .trim()
        .parse()
        .unwrap_or_else(|_| die("--corner temperature is not a number"));
    let vdd: f64 = parts[1]
        .trim()
        .parse()
        .unwrap_or_else(|_| die("--corner vdd is not a number"));
    let mut fields = vec![
        ("cmd", Value::String("corner".to_string())),
        ("temp", temp.to_value()),
        ("vdd", vdd.to_value()),
    ];
    if let Some(p) = parts.get(2) {
        fields.push(("process", Value::String(p.trim().to_string())));
    }
    if let Some(ms) = deadline_ms {
        fields.push(("deadline_ms", ms.to_value()));
    }
    obj(fields)
}

/// Assert the pipeline artifact shows every stage through `through` was
/// loaded from its checkpoint with zero re-simulation.
fn check_resumed_through(terminal: &Value, through: Stage) {
    let report = PipelineReport::from_value(terminal.get("artifact"))
        .unwrap_or_else(|e| die(&format!("done event has no pipeline artifact: {e}")));
    let pos = |s: Stage| {
        Stage::ALL
            .iter()
            .position(|x| *x == s)
            .unwrap_or(usize::MAX)
    };
    for record in &report.stages {
        if pos(record.stage) > pos(through) {
            continue;
        }
        if !record.from_checkpoint {
            die(&format!(
                "stage {} was recomputed, expected checkpoint resume",
                record.stage.name()
            ));
        }
        if record.dc_solves + record.tran_solves + record.arc_evals != 0 {
            die(&format!(
                "stage {} resumed but spent {} dc / {} tran / {} arc evals",
                record.stage.name(),
                record.dc_solves,
                record.tran_solves,
                record.arc_evals
            ));
        }
    }
    eprintln!(
        "resume check OK: stages through {} replayed from checkpoints with zero re-simulation",
        through.name()
    );
}

fn request() {
    let deadline_ms = arg_value("--deadline-ms").map(|v| {
        v.parse::<f64>()
            .unwrap_or_else(|_| die("--deadline-ms wants a number"))
    });
    let req = if let Some(spec) = arg_value("--corner") {
        corner_request(&spec, deadline_ms)
    } else if std::env::args().any(|a| a == "--signoff") {
        let mut fields = vec![("cmd", Value::String("signoff".to_string()))];
        if let Some(stage) = arg_value("--halt-after") {
            stage_by_name(&stage); // validate locally for a better error
            fields.push(("halt_after", Value::String(stage)));
        }
        if let Some(ms) = deadline_ms {
            fields.push(("deadline_ms", ms.to_value()));
        }
        obj(fields)
    } else {
        die("request wants --corner T,V[,P] or --signoff");
    };
    let expect_resumed = arg_value("--expect-resumed-through").map(|n| stage_by_name(&n));

    let mut client =
        Client::connect(&socket_path()).unwrap_or_else(|e| die(&format!("cannot connect: {e}")));
    client
        .send(&req)
        .unwrap_or_else(|e| die(&format!("cannot send request: {e}")));
    let (terminal_line, interim) = client
        .wait_terminal()
        .unwrap_or_else(|e| die(&format!("connection lost: {e}")));
    for event in &interim {
        eprintln!(
            "{}",
            serde_json::to_string(event).expect("events serialize")
        );
    }
    println!("{terminal_line}");
    let terminal: Value = serde_json::from_str(&terminal_line).expect("terminal event parses");
    match event_kind(&terminal) {
        "done" => {
            if let Some(through) = expect_resumed {
                check_resumed_through(&terminal, through);
            }
        }
        "overloaded" => std::process::exit(3),
        _ => std::process::exit(1),
    }
}

fn one_shot(cmd: &str) {
    let mut client =
        Client::connect(&socket_path()).unwrap_or_else(|e| die(&format!("cannot connect: {e}")));
    client
        .send(&obj(vec![("cmd", Value::String(cmd.to_string()))]))
        .unwrap_or_else(|e| die(&format!("cannot send request: {e}")));
    let event = client
        .next_line()
        .unwrap_or_else(|e| die(&format!("connection lost: {e}")));
    println!("{event}");
}

/// In-process daemon on a scratch socket for the drills; the `CRYO_SERVE_*`
/// knobs are cleared so the drill's explicit configuration wins.
fn scratch_daemon(
    queue_depth: usize,
    max_pipelines: usize,
) -> (PathBuf, std::thread::JoinHandle<cryo_serve::ServeStats>) {
    for var in [
        "CRYO_SERVE_SOCKET",
        "CRYO_SERVE_QUEUE",
        "CRYO_SERVE_PIPELINES",
    ] {
        std::env::remove_var(var);
    }
    let socket = std::env::temp_dir().join(format!("cryo-serve-drill-{}.sock", std::process::id()));
    let mut cfg = serve_config(true, socket.clone());
    // Private cache: drill results must not depend on whatever a
    // previous batch run left under data/.
    let scratch = std::env::temp_dir().join(format!("cryo-serve-drill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    cfg.flow = FlowConfig::fast(&scratch);
    cfg.queue_depth = queue_depth;
    cfg.max_pipelines = max_pipelines;
    let daemon = Daemon::bind(cfg).unwrap_or_else(|e| die(&format!("cannot bind daemon: {e}")));
    let handle = std::thread::spawn(move || daemon.run().expect("daemon run"));
    (socket, handle)
}

fn shutdown_scratch(
    socket: &std::path::Path,
    handle: std::thread::JoinHandle<cryo_serve::ServeStats>,
) -> cryo_serve::ServeStats {
    let mut c = Client::connect(socket).expect("connect for shutdown");
    c.send(&obj(vec![("cmd", Value::String("shutdown".to_string()))]))
        .expect("send shutdown");
    let _ = c.next_line();
    handle.join().expect("daemon thread")
}

fn drill_coalesce() {
    let (socket, handle) = scratch_daemon(8, 1);
    let corner = r#"{"cmd":"corner","temp":300,"vdd":0.7,"process":"tt"}"#;
    let clients: Vec<_> = (0..3)
        .map(|i| {
            let socket = socket.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&socket).expect("connect");
                c.send_raw(corner).expect("send");
                let ack = c.next_event().expect("ack");
                assert_eq!(event_kind(&ack), "accepted", "client {i}: {ack:?}");
                let (line, _) = c.wait_terminal().expect("terminal");
                line
            })
        })
        .collect();
    let lines: Vec<String> = clients
        .into_iter()
        .map(|c| c.join().expect("client"))
        .collect();
    let stats = shutdown_scratch(&socket, handle);
    for line in &lines[1..] {
        assert_eq!(line, &lines[0], "coalesced subscribers got different bytes");
    }
    let done: Value = serde_json::from_str(&lines[0]).expect("done parses");
    assert_eq!(event_kind(&done), "done", "{}", lines[0]);
    assert_eq!(
        stats.jobs_run, 1,
        "expected one executed job, got {stats:?}"
    );
    assert_eq!(
        stats.coalesced, 2,
        "expected two coalesced joins, got {stats:?}"
    );
    println!(
        "drill coalesce PASS: 3 clients, 1 executed job, byte-identical done lines \
         ({} bytes, digest {})",
        lines[0].len(),
        done.get("digest").as_str().unwrap_or("?")
    );
}

fn drill_overload() {
    let (socket, handle) = scratch_daemon(1, 1);
    // Three distinct corners through a depth-1 queue and one worker: the
    // first occupies the worker, the second the queue slot, so at least
    // one of the rest must shed with a structured overload.
    let mut clients = Vec::new();
    for temp in [300.0_f64, 310.0, 320.0] {
        let mut c = Client::connect(&socket).expect("connect");
        c.send(&obj(vec![
            ("cmd", Value::String("corner".to_string())),
            ("temp", temp.to_value()),
            ("vdd", 0.7.to_value()),
        ]))
        .expect("send");
        clients.push(c);
    }
    let mut sheds = 0;
    let mut completions = 0;
    for mut c in clients {
        let (line, _) = c.wait_terminal().expect("terminal");
        let event: Value = serde_json::from_str(&line).expect("event parses");
        match event_kind(&event) {
            "overloaded" => {
                let retry = event
                    .get("retry_after_ms")
                    .as_f64()
                    .expect("retry_after_ms");
                assert!(retry >= 100.0, "retry_after_ms below floor: {line}");
                sheds += 1;
            }
            "done" => completions += 1,
            other => panic!("unexpected terminal event {other}: {line}"),
        }
    }
    let stats = shutdown_scratch(&socket, handle);
    assert!(sheds >= 1, "no request was shed: {stats:?}");
    assert_eq!(sheds + completions, 3);
    assert_eq!(stats.overloaded as usize, sheds, "{stats:?}");
    println!(
        "drill overload PASS: {sheds} structured shed(s) with retry_after_ms, \
         {completions} completion(s) through the depth-1 queue"
    );
}

fn main() {
    let fast = std::env::args().any(|a| a == "--fast");
    let sub = std::env::args().nth(1).unwrap_or_default();
    match sub.as_str() {
        "serve" => serve(fast),
        "request" => request(),
        "stats" => one_shot("stats"),
        "shutdown" => one_shot("shutdown"),
        "drill" => match std::env::args().nth(2).as_deref() {
            Some("coalesce") => drill_coalesce(),
            Some("overload") => drill_overload(),
            other => die(&format!(
                "unknown drill {other:?} (expected coalesce or overload)"
            )),
        },
        other => die(&format!(
            "unknown subcommand {other:?} (expected serve, request, stats, shutdown, drill)"
        )),
    }
}
