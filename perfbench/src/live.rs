//! `serve_live`: the real TCP front-end (`serve::tcp::serve` on
//! 127.0.0.1:0) driven by two closed-loop connections. The tree cache is
//! warmed during set-up and admission sits above the offered load, so a
//! session's time goes into the protocol, admission, the cache-hit path
//! and the executor's per-request Alg. 2 walk; no search runs.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use cadmc_core::EvalEnv;
use cadmc_netsim::Scenario;
use cadmc_serve::protocol::{encode_response, parse_request, submit_to_spec};
use cadmc_serve::{Request, Response, Server, ServerConfig, SessionSpec};

use crate::common::{mean, percentile, secs, stage_table, Mix, Outcome, RunOpts, Stage};

/// Closed-loop client connections (the host's core count).
const CLIENTS: usize = 2;
const MODELS: [&str; 5] = ["vgg11", "alexnet", "mobilenet", "squeezenet", "tiny"];
const DEVICES: [&str; 2] = ["phone", "tx2"];
/// Light sessions per tree-cache key (every model × device × scenario).
const LIGHT_PER_KEY: usize = 2;
const LIGHT_REQUESTS: (u64, u64) = (50, 200);
/// One heavy session per (model, device) pair, each pair under its own
/// fixed scenario: heavy sessions give the tail real executor work
/// instead of scheduler noise, and the fixed mix keeps every seed's tail
/// comparable.
const HEAVY_REQUESTS: u64 = 2_000;
/// Tail percentile: heavy sessions are 1/15 of the mix and a run serves
/// thousands of sessions, so well over ten samples lie beyond it.
const TAIL_PCT: f64 = 99.0;
const SETUPS: usize = 3;
/// Alternations of untraced and traced windows in the traced run.
const CHUNKS: usize = 4;
/// How far the traced stage sum may stray from the untraced round trip.
const RECONCILE_TOLERANCE: f64 = 0.15;

/// One session as a client sends it: the spec's fields and its line.
#[derive(Debug, Clone)]
struct Session {
    tenant: String,
    model: &'static str,
    device: &'static str,
    scenario: &'static str,
    requests: u64,
    seed: u64,
}

impl Session {
    /// The `Submit` line a client sends, newline included.
    fn line(&self) -> String {
        let request = Request::Submit {
            tenant: self.tenant.clone(),
            model: self.model.to_string(),
            ir: String::new(),
            min_accuracy: 0.0,
            device: self.device.to_string(),
            scenario: self.scenario.to_string(),
            requests: self.requests,
            seed: self.seed,
            faults: String::new(),
        };
        let mut line = serde_json::to_string(&request).expect("requests encode");
        line.push('\n');
        line
    }

    fn spec(&self) -> SessionSpec {
        submit_to_spec(
            &self.tenant,
            self.model,
            "",
            0.0,
            self.device,
            self.scenario,
            self.requests,
            self.seed,
            "",
        )
        .expect("generated sessions name known devices and scenarios")
    }
}

/// The seeded session mix: `LIGHT_PER_KEY` light sessions on every key
/// plus one heavy session per (model, device) pair, shuffled. The key set
/// and the model mix are the same for every seed; the seed picks the
/// order, request counts and session seeds. Returns the mix and one
/// warm-up session per key.
fn sessions(seed: u64, short: bool) -> (Vec<Session>, Vec<Session>) {
    let mut mix = Mix(seed);
    let (models, scenarios) = if short {
        (&MODELS[3..], 2)
    } else {
        (&MODELS[..], Scenario::ALL.len())
    };
    let session = |model, device, scenario: Scenario, requests, seed| Session {
        tenant: String::new(),
        model,
        device,
        scenario: scenario.name(),
        requests,
        seed,
    };
    let (mut list, mut warm) = (Vec::new(), Vec::new());
    for &model in models {
        for device in DEVICES {
            for &scenario in &Scenario::ALL[..scenarios] {
                warm.push(session(model, device, scenario, 1, 0));
                for _ in 0..LIGHT_PER_KEY {
                    let span = (LIGHT_REQUESTS.1 - LIGHT_REQUESTS.0 + 1) as usize;
                    let requests = LIGHT_REQUESTS.0 + mix.below(span) as u64;
                    list.push(session(
                        model,
                        device,
                        scenario,
                        requests,
                        mix.next() % 1_000_000,
                    ));
                }
            }
            let scenario = Scenario::ALL[warm.len() / scenarios % scenarios];
            list.push(session(
                model,
                device,
                scenario,
                HEAVY_REQUESTS,
                mix.next() % 1_000_000,
            ));
        }
    }
    mix.shuffle(&mut list);
    for (i, s) in list.iter_mut().enumerate() {
        s.tenant = format!("tenant-{}", i % 4);
    }
    (list, warm)
}

/// Admission above the offered load and nothing that can trip on
/// wall-clock timing: any shed is a failure. The server keeps its default
/// seed: it is the deployment, and the workload seed only shapes the
/// sessions sent to it.
fn config(keys: usize, metrics: bool) -> ServerConfig {
    ServerConfig {
        slots: CLIENTS,
        queue_capacity: 4 * CLIENTS,
        rate_per_sec: 1e9,
        burst: 1 << 30,
        tenant_quota: 1 << 30,
        breaker_threshold: u32::MAX,
        breaker_cooldown_ms: 0.0,
        tree_cache_capacity: keys,
        metrics_enabled: metrics,
        slo_p99_ms: 1e12,
        slo_breaker_hook: false,
        ..ServerConfig::default()
    }
}

/// A running TCP front-end.
struct Live {
    server: Arc<Server>,
    addr: SocketAddr,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Live {
    fn start(cfg: ServerConfig) -> Live {
        let server = Arc::new(Server::new(cfg));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let addr = listener.local_addr().expect("bound address");
        let s = Arc::clone(&server);
        let thread = std::thread::spawn(move || cadmc_serve::tcp::serve(&s, listener));
        Live {
            server,
            addr,
            thread,
        }
    }

    /// Drains the server and joins its accept thread.
    fn stop(self) {
        let mut c = Client::connect(self.addr);
        let reply = c.round_trip("\"Drain\"\n");
        assert!(reply.contains("Draining"), "drain acknowledged: {reply}");
        drop(c);
        self.thread
            .join()
            .expect("serve thread panicked")
            .expect("serve accept loop failed");
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: String,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let writer = TcpStream::connect(addr).expect("connect to the front-end");
        writer.set_nodelay(true).expect("set TCP_NODELAY");
        let reader = BufReader::new(writer.try_clone().expect("clone the stream"));
        Client {
            reader,
            writer,
            buf: String::new(),
        }
    }

    fn round_trip(&mut self, line: &str) -> String {
        self.writer
            .write_all(line.as_bytes())
            .expect("send a request line");
        self.buf.clear();
        self.reader
            .read_line(&mut self.buf)
            .expect("read a response line");
        self.buf.trim_end().to_string()
    }
}

/// Set-up: session mix, server start, a tree-cache warm-up over every
/// key through the front-end, and the expected reply of every session
/// from in-process `Server::submit` on the warm server.
fn setup(opts: &RunOpts) -> (Bench, f64) {
    let t = Instant::now();
    let (list, warm) = sessions(opts.seed, opts.short);
    let live = Live::start(config(warm.len(), true));
    let mut c = Client::connect(live.addr);
    for w in &warm {
        let reply = c.round_trip(&w.line());
        assert!(
            reply.starts_with("{\"Done\""),
            "warm-up session served: {reply}"
        );
    }
    let expected = list
        .iter()
        .map(|s| expected_done(&live.server, s))
        .collect();
    let bench = Bench {
        live,
        list,
        expected,
        keys: warm.len(),
    };
    (bench, secs(t))
}

/// One closed-loop window: `CLIENTS` connections each send sessions
/// back to back until `seconds` pass, checking each reply against the
/// expected bytes after its round trip is timed. Returns (session index,
/// round trip ms, reply as expected) per session, and the window length.
fn closed_loop(
    addr: SocketAddr,
    list: &[Session],
    expected: &[String],
    seconds: f64,
) -> (Vec<(usize, f64, bool)>, f64) {
    let lines: Vec<String> = list.iter().map(Session::line).collect();
    let start = Instant::now();
    let per_client: Vec<Vec<(usize, f64, bool)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|k| {
                let lines = &lines;
                scope.spawn(move || {
                    let mut c = Client::connect(addr);
                    let mut done = Vec::with_capacity(1 << 16);
                    let mut j = k * lines.len() / CLIENTS;
                    while secs(start) < seconds {
                        let i = j % lines.len();
                        let t = Instant::now();
                        let reply = c.round_trip(&lines[i]);
                        let ms = secs(t) * 1e3;
                        done.push((i, ms, without_session(&reply) == Some(expected[i].as_str())));
                        j += 1;
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let measured = secs(start);
    (per_client.into_iter().flatten().collect(), measured)
}

/// What a session must produce: the `Done` reply bytes after the session
/// id, and the outcome's mean latency and accuracy.
#[derive(Debug)]
struct Expected {
    reply: String,
    latency_ms: f64,
    accuracy: f64,
}

/// A started front-end with its session mix and expected outcomes.
struct Bench {
    live: Live,
    list: Vec<Session>,
    expected: Vec<Expected>,
    keys: usize,
}

/// The expected outcome of `s`, from in-process `Server::submit`.
fn expected_done(server: &Server, s: &Session) -> Expected {
    let done = server
        .submit(s.spec(), 0.0)
        .expect("admission is above the offered load");
    let line = encode_response(&done_response(&done));
    let r = &done.outcome.report;
    Expected {
        reply: without_session(&line).expect("a Done reply").to_string(),
        latency_ms: r.mean_latency_ms(),
        accuracy: r.mean_accuracy(),
    }
}

/// The bytes of a `Done` reply after its server-assigned session id.
fn without_session(reply: &str) -> Option<&str> {
    let rest = reply.strip_prefix("{\"Done\":{\"session\":")?;
    Some(rest.trim_start_matches(|c: char| c.is_ascii_digit()))
}

pub fn run(opts: &RunOpts) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut last: Option<Bench> = None;
    for _ in 0..if opts.short { 1 } else { SETUPS } {
        if let Some(prev) = last.take() {
            prev.live.stop();
        }
        let (bench, s) = setup(opts);
        last = Some(bench);
        setup_s.push(s);
    }
    let bench = last.expect("at least one set-up");
    if opts.trace {
        traced(opts, &bench, &mut out);
        bench.live.stop();
        out.samples("setup_s", "s", setup_s);
        return out;
    }
    let Bench {
        live,
        list,
        expected,
        keys,
    } = bench;

    let mut want: Vec<String> = expected.iter().map(|e| e.reply.clone()).collect();
    if opts.corrupt {
        want[0].push(' ');
    }
    let (done, measured) = closed_loop(live.addr, &list, &want, opts.seconds);
    // Every reply equals the in-process outcome of the same spec, and
    // nothing was shed.
    for &(i, _, ok) in &done {
        out.check(ok, || {
            format!("session {i}: reply differs from the in-process outcome")
        });
    }
    let stats = live.server.live_stats();
    out.check(stats.shed == 0, || format!("{} sessions shed", stats.shed));
    live.stop();

    // Quality guards over the whole (seeded) session list.
    let lat: Vec<f64> = expected.iter().map(|e| e.latency_ms).collect();
    let acc: Vec<f64> = expected.iter().map(|e| e.accuracy).collect();
    let reward: Vec<f64> = list
        .iter()
        .zip(&expected)
        .map(|(s, e)| {
            EvalEnv::for_edge(s.spec().device)
                .reward
                .reward(e.accuracy, e.latency_ms)
        })
        .collect();
    let latencies: Vec<f64> = done.iter().map(|d| d.1).collect();
    out.lines.push(format!(
        "sessions: {} over {CLIENTS} closed-loop connections, {} distinct, {keys} cache keys",
        done.len(),
        list.len()
    ));
    out.end_to_end(
        &setup_s,
        &latencies,
        TAIL_PCT,
        measured,
        mean(&reward),
        mean(&lat),
        mean(&acc),
    );
    out
}

fn traced(opts: &RunOpts, bench: &Bench, out: &mut Outcome) {
    let Bench {
        live,
        list,
        expected,
        keys,
    } = bench;
    let server = &live.server;
    let cache_before = (server.tree_cache().hits(), server.tree_cache().misses());

    // Untraced: the closed loop over TCP for half the budget; traced: the
    // server's blocking path in process for a quarter, under the same
    // concurrency. The two alternate in chunks so that a change in host
    // speed during the run hits both alike.
    let want: Vec<String> = expected.iter().map(|e| e.reply.clone()).collect();
    let lines: Vec<String> = list.iter().map(Session::line).collect();
    let pings = if opts.short { 50 } else { 500 };
    let (mut rtts, mut ping_us, mut st) = (Vec::new(), Vec::new(), StageSamples::default());
    for _ in 0..CHUNKS {
        let (done, _) = closed_loop(live.addr, list, &want, opts.seconds / 2.0 / CHUNKS as f64);
        for &(i, ms, ok) in &done {
            out.check(ok, || {
                format!("session {i}: reply differs from the in-process outcome")
            });
            rtts.push(ms);
        }
        ping_us.extend(ping_round_trips(live.addr, pings));
        st.merge(stage_window(
            server,
            list,
            &lines,
            opts.seconds / 4.0 / CHUNKS as f64,
        ));
    }
    let rtt_ms = mean(&rtts);
    let hits = (server.tree_cache().hits() - cache_before.0) as f64;
    let misses = (server.tree_cache().misses() - cache_before.1) as f64;
    let stats = server.live_stats();
    out.check(stats.shed == 0, || format!("{} sessions shed", stats.shed));

    // Session fixed cost and per-request executor cost from `submit` at
    // two request counts, one session per cache key.
    let (r1, r2) = (1u64, 65u64);
    let mut seen = std::collections::BTreeSet::new();
    let per_key: Vec<&Session> = list
        .iter()
        .filter(|s| seen.insert((s.model, s.device, s.scenario)))
        .collect();
    let reps = if opts.short { 2 } else { 20 };
    let (mut t_r1, mut t_r2) = (0.0, 0.0);
    for _ in 0..reps {
        for s in &per_key {
            for (r, acc) in [(r1, &mut t_r1), (r2, &mut t_r2)] {
                let sp = Session {
                    requests: r,
                    ..(*s).clone()
                }
                .spec();
                let t = Instant::now();
                std::hint::black_box(server.submit(sp, 0.0).expect("admitted"));
                *acc += secs(t) * 1e6;
            }
        }
    }
    let n = (reps * per_key.len()) as f64;
    let request_us = (t_r2 - t_r1) / n / (r2 - r1) as f64;
    let fixed_us = t_r1 / n - request_us * r1 as f64;

    // Observability cost: the same submits on a server with metrics off.
    let off = Server::new(config(*keys, false));
    for s in &per_key {
        let _ = off.submit(
            Session {
                requests: 1,
                ..(*s).clone()
            }
            .spec(),
            0.0,
        );
    }
    let (mut on_s, mut off_s) = (0.0, 0.0);
    for s in list.iter().take(if opts.short { 8 } else { 120 }) {
        for (srv, acc) in [(&**server, &mut on_s), (&off, &mut off_s)] {
            let t = Instant::now();
            std::hint::black_box(srv.submit(s.spec(), 0.0).expect("admitted"));
            *acc += secs(t);
        }
    }

    let (parse_us, spec_us, submit_us, encode_us) = (
        mean(&st.parse),
        mean(&st.spec),
        mean(&st.submit),
        mean(&st.encode),
    );
    let ping = mean(&ping_us);
    let in_process_us = parse_us + spec_us + submit_us + encode_us;
    let residual_us = rtt_ms * 1e3 - in_process_us;
    let table = [
        Stage {
            name: "protocol.parse_us",
            ms_per_op: parse_us / 1e3,
            moves: "latency_ms_p50",
        },
        Stage {
            name: "protocol.spec_us",
            ms_per_op: spec_us / 1e3,
            moves: "latency_ms_p50",
        },
        Stage {
            name: "server.submit_us",
            ms_per_op: submit_us / 1e3,
            moves: "latency_ms_p50, throughput_per_s",
        },
        Stage {
            name: "protocol.encode_us",
            ms_per_op: encode_us / 1e3,
            moves: "latency_ms_p50",
        },
        Stage {
            name: "tcp.ping_us",
            ms_per_op: ping / 1e3,
            moves: "latency_ms_tail",
        },
    ];
    out.lines.push(stage_table(
        "serve_live (ms per session round trip)",
        &table,
        rtt_ms,
    ));
    out.lines.push(format!(
        "server.submit_us splits into session.fixed_us {fixed_us:.2} + requests x executor.request_us {request_us:.3} \
         (mean {:.1} requests/session)",
        mean(&list.iter().map(|s| s.requests as f64).collect::<Vec<_>>())
    ));
    let unaccounted = out.reconcile(
        opts,
        in_process_us + ping,
        rtt_ms * 1e3,
        RECONCILE_TOLERANCE,
    );
    out.lines.push(format!(
        "serve_live traced: {} TCP sessions (p50 {:.3} ms), {} in-process sessions; tolerance {:.0}%",
        rtts.len(),
        percentile(&rtts, 50.0),
        st.parse.len(),
        RECONCILE_TOLERANCE * 100.0
    ));
    out.metric("protocol.parse_us", parse_us, "us");
    out.metric("protocol.spec_us", spec_us, "us");
    out.metric("protocol.encode_us", encode_us, "us");
    out.metric("server.submit_us", submit_us, "us");
    out.metric("session.fixed_us", fixed_us, "us");
    out.metric("executor.request_us", request_us, "us");
    out.metric("tcp.ping_us", ping, "us");
    out.metric("tcp.residual_us", residual_us, "us");
    out.metric(
        "tree_cache.hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
    );
    out.metric("admission.shed", stats.shed as f64, "count");
    out.metric(
        "admission.waiting_watermark",
        stats.waiting_watermark as f64,
        "count",
    );
    out.metric(
        "telemetry.overhead_pct",
        100.0 * (on_s - off_s) / off_s,
        "%",
    );
    out.metric("trace.untraced_ms", rtt_ms, "ms");
    out.metric(
        "trace.overhead_pct",
        100.0 * (st.traced_s - st.untraced_s) / st.untraced_s,
        "%",
    );
    out.metric("trace.unaccounted_pct", 100.0 * unaccounted, "%");
    out.check(hits > 0.0 && misses == 0.0, || {
        format!("tree cache: {hits} hits, {misses} misses")
    });
}

fn done_response(done: &cadmc_serve::server::LiveCompletion) -> Response {
    let r = &done.outcome.report;
    Response::Done {
        session: done.session,
        outcome: done.outcome.label.to_string(),
        requests: r.latencies_ms.len() as u64,
        mean_latency_ms: r.mean_latency_ms(),
        mean_accuracy: r.mean_accuracy(),
        p95_latency_ms: r.p95_latency_ms(),
    }
}

/// Mean microseconds of `n` Ping round trips on each of `CLIENTS`
/// concurrent connections: the TCP and thread hand-off cost without any
/// session work.
fn ping_round_trips(addr: SocketAddr, n: usize) -> Vec<f64> {
    std::thread::scope(|scope| {
        let hs: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut c = Client::connect(addr);
                    let t = Instant::now();
                    for _ in 0..n {
                        let reply = c.round_trip("\"Ping\"\n");
                        assert_eq!(reply, "\"Pong\"");
                    }
                    secs(t) * 1e6 / n as f64
                })
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("ping thread panicked"))
            .collect()
    })
}

/// The server's blocking path in process on `CLIENTS` threads for
/// `seconds` (and at least one pass over the session list).
fn stage_window(server: &Server, list: &[Session], lines: &[String], seconds: f64) -> StageSamples {
    let start = Instant::now();
    let per_thread: Vec<StageSamples> = std::thread::scope(|scope| {
        let hs: Vec<_> = (0..CLIENTS)
            .map(|k| {
                scope.spawn(move || {
                    let mut st = StageSamples::default();
                    let mut j = k * list.len() / CLIENTS;
                    while st.parse.len() < list.len() / CLIENTS || secs(start) < seconds {
                        let i = j % list.len();
                        st.record(server, &lines[i], &list[i]);
                        j += 1;
                    }
                    st
                })
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("stage thread panicked"))
            .collect()
    });
    let mut st = StageSamples::default();
    for t in per_thread {
        st.merge(t);
    }
    st
}

/// Per-stage microseconds of in-process sessions, plus the same path
/// timed whole (for the tracing overhead).
#[derive(Debug, Default)]
struct StageSamples {
    parse: Vec<f64>,
    spec: Vec<f64>,
    submit: Vec<f64>,
    encode: Vec<f64>,
    traced_s: f64,
    untraced_s: f64,
}

impl StageSamples {
    fn merge(&mut self, other: StageSamples) {
        self.parse.extend(other.parse);
        self.spec.extend(other.spec);
        self.submit.extend(other.submit);
        self.encode.extend(other.encode);
        self.traced_s += other.traced_s;
        self.untraced_s += other.untraced_s;
    }

    fn record(&mut self, server: &Server, line: &str, s: &Session) {
        let t = Instant::now();
        let req = parse_request(line).expect("generated lines parse");
        let t1 = Instant::now();
        let sp = s.spec();
        let t2 = Instant::now();
        let done = server.submit(sp, 0.0).expect("admitted");
        let t3 = Instant::now();
        let enc = encode_response(&done_response(&done));
        let t4 = Instant::now();
        std::hint::black_box((req, enc));
        self.parse.push((t1 - t).as_secs_f64() * 1e6);
        self.spec.push((t2 - t1).as_secs_f64() * 1e6);
        self.submit.push((t3 - t2).as_secs_f64() * 1e6);
        self.encode.push((t4 - t3).as_secs_f64() * 1e6);
        self.traced_s += (t4 - t).as_secs_f64();

        let t = Instant::now();
        let req = parse_request(line).expect("generated lines parse");
        let done = server.submit(s.spec(), 0.0).expect("admitted");
        std::hint::black_box((req, encode_response(&done_response(&done))));
        self.untraced_s += secs(t);
    }
}
