//! End-to-end test of the TCP front-end: a real `std::net` listener on
//! an ephemeral localhost port, a client speaking the line-delimited
//! JSON protocol, and a graceful drain shutting the server down.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use cadmc_serve::{tcp, Response, Server, ServerConfig};

fn send_line(stream: &mut TcpStream, line: &str) -> Response {
    let mut msg = line.to_string();
    msg.push('\n');
    stream.write_all(msg.as_bytes()).expect("write");
    stream.flush().expect("flush");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read");
    serde_json::from_str(&reply).expect("decodable response")
}

#[test]
fn tcp_session_lifecycle_ping_submit_drain() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = listener.local_addr().expect("addr");
    let server = Arc::new(Server::new(ServerConfig::default()));
    let server_thread = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || tcp::serve(&server, listener))
    };

    let mut conn = TcpStream::connect(addr).expect("connect");

    // Liveness.
    assert_eq!(send_line(&mut conn, "\"Ping\""), Response::Pong);

    // A malformed line is answered, not dropped.
    assert!(matches!(
        send_line(&mut conn, "{nope}"),
        Response::Error { .. }
    ));

    // A bad submit gets a typed rejection.
    let bad = r#"{"Submit":{"tenant":"t0","model":"tiny","ir":"","min_accuracy":0.0,"device":"toaster","scenario":"4G indoor static","requests":2,"seed":3,"faults":""}}"#;
    match send_line(&mut conn, bad) {
        Response::Rejected { reason, .. } => assert_eq!(reason, "rejected:bad-request"),
        other => panic!("expected Rejected, got {other:?}"),
    }

    // A well-formed submit runs to a terminal outcome.
    let ok = r#"{"Submit":{"tenant":"t0","model":"tiny","ir":"","min_accuracy":0.0,"device":"phone","scenario":"4G indoor static","requests":2,"seed":3,"faults":""}}"#;
    match send_line(&mut conn, ok) {
        Response::Done {
            outcome, requests, ..
        } => {
            assert_eq!(requests, 2);
            assert!(matches!(
                outcome.as_str(),
                "ok" | "retried" | "degraded" | "failed"
            ));
        }
        other => panic!("expected Done, got {other:?}"),
    }

    // Drain: acknowledged, then the server refuses new work and exits.
    match send_line(&mut conn, "\"Drain\"") {
        Response::Draining { .. } => {}
        other => panic!("expected Draining, got {other:?}"),
    }
    server_thread
        .join()
        .expect("server thread")
        .expect("listener io");

    let stats = server.live_stats();
    assert_eq!(stats.admitted, 1);
    assert!(server.is_draining());
}

#[test]
fn submits_after_drain_are_shed() {
    let server = Server::new(ServerConfig::default());
    server.begin_drain();
    let spec = cadmc_serve::SessionSpec {
        tenant: "late".to_string(),
        model: cadmc_serve::ModelSource::Zoo("tiny".to_string()),
        min_accuracy: 0.0,
        device: cadmc_latency::Platform::Phone,
        scenario: cadmc_netsim::Scenario::FourGIndoorStatic,
        requests: 1,
        seed: 1,
        faults: cadmc_netsim::FaultSchedule::none(),
    };
    match server.submit(spec, 0.0) {
        Err(reason) => assert_eq!(reason.label(), "shed:draining"),
        Ok(_) => panic!("draining server admitted a session"),
    }
}

/// A 100,000-deep `[[[…]]]` line (about 200 KB) used to recurse the JSON
/// parser until the stack overflowed and the process aborted. The
/// nesting cap makes it an ordinary malformed line: `parse_request`
/// returns `Err`, the TCP loop answers with `Response::Error`, and the
/// connection keeps serving.
#[test]
fn over_deep_json_line_is_an_error_reply_not_an_abort() {
    let line = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
    let err = cadmc_serve::protocol::parse_request(&line).expect_err("over-deep line");
    assert!(err.contains("recursion limit"), "{err}");

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = listener.local_addr().expect("addr");
    let server = Arc::new(Server::new(ServerConfig::default()));
    let server_thread = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || tcp::serve(&server, listener))
    };
    let mut conn = TcpStream::connect(addr).expect("connect");
    assert!(matches!(send_line(&mut conn, &line), Response::Error { .. }));
    assert_eq!(send_line(&mut conn, "\"Ping\""), Response::Pong);
    assert!(matches!(
        send_line(&mut conn, "\"Drain\""),
        Response::Draining { .. }
    ));
    server_thread
        .join()
        .expect("server thread")
        .expect("listener io");
}
