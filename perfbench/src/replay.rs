//! `serve_replay`: cold `cadmc serve`-style chaos replays. Each replay is
//! a fresh `Server` running `run_schedule(workers = 1)` over a seeded
//! arrival schedule at about twice service capacity, mixing zoo and
//! inline-IR sessions with fault presets, with more distinct cache keys
//! than the tree cache holds. Time goes into short quick-config tree
//! searches sharing one memo pool, IR checking, cache misses and
//! evictions, the executor's retry/degrade path and virtual-time
//! admission.

use std::time::Instant;

use cadmc_core::executor::{execute, ExecConfig, Mode, Policy};
use cadmc_core::memo::MemoPool;
use cadmc_core::search::{Controllers, SearchConfig};
use cadmc_core::tree::ModelTree;
use cadmc_core::tree_cache::TreeCache;
use cadmc_core::{EvalEnv, NetworkContext};
use cadmc_ir::{check_source, emit_with, CheckedModel, ModelContextKey};
use cadmc_latency::Platform;
use cadmc_netsim::{FaultSchedule, Scenario};
use cadmc_nn::zoo;
use cadmc_serve::server::Decision;
use cadmc_serve::{Arrival, ModelSource, ScheduleReport, Server, ServerConfig, SessionSpec};

use crate::common::{
    fan_out, mean, median, secs, stage_table, timed, Mix, Outcome, RunOpts, Stage,
};

/// Schedules a run cycles through.
const SCHEDULES: usize = 24;
/// Rounds per schedule; each round requests every key once.
const ROUNDS: usize = 3;
/// Immediate repeats per round (each one a cache hit).
const REPEATS: usize = 2;
/// Arrival rate as a multiple of the server's service capacity.
const OVERLOAD: f64 = 2.0;
/// Requests per session: enough that a session's timeline reaches the
/// canned fault windows (5–8 s at the default think time).
const REQUESTS: (usize, usize) = (12, 20);
const PRESETS: [&str; 5] = ["none", "outage", "collapse", "rtt-spike", "stale-estimate"];
const TENANTS: usize = 3;
/// Tail percentile: a run replays a few hundred schedules, so well over
/// ten samples lie beyond it.
const TAIL_PCT: f64 = 90.0;
const SETUPS: usize = 3;
/// Cold replays in each set-up, so that program work dominates it.
const WARM_UP_REPLAYS: usize = 3;
/// How far the traced stage sum may stray from the untraced replay.
const RECONCILE_TOLERANCE: f64 = 0.10;
/// Levels every served context uses (the server's discretization).
const CONTEXT_LEVELS: usize = 2;

/// The fixed key set: four zoo and four inline-IR models, each on its own
/// device and scenario. Eight keys against the default four-tree cache.
fn keys() -> Vec<(ModelSource, Platform, Scenario)> {
    let ir = |spec, blocks| ModelSource::Ir(emit_with(&spec, Some(blocks), None));
    let zoo = |name: &str| ModelSource::Zoo(name.to_string());
    vec![
        (zoo("tiny"), Platform::Phone, Scenario::FourGIndoorStatic),
        (zoo("alexnet"), Platform::Phone, Scenario::WifiWeakIndoor),
        (zoo("mobilenet"), Platform::Tx2, Scenario::FourGWeakIndoor),
        (
            zoo("squeezenet"),
            Platform::Phone,
            Scenario::WifiOutdoorSlow,
        ),
        (
            ir(zoo::tiny_cnn(), 2),
            Platform::Tx2,
            Scenario::WifiWeakIndoor,
        ),
        (
            ir(zoo::alexnet_cifar(), 3),
            Platform::Phone,
            Scenario::FourGIndoorStatic,
        ),
        (
            ir(zoo::mobilenet_cifar(), 2),
            Platform::Phone,
            Scenario::WifiWeakOutdoor,
        ),
        (
            ir(zoo::vgg11_cifar(), 3),
            Platform::Tx2,
            Scenario::FourGOutdoorQuick,
        ),
    ]
}

/// The deployment: the server's defaults (admission capacity, cache
/// size, episodes, seed).
fn config() -> ServerConfig {
    ServerConfig::default()
}

/// One seeded schedule: `ROUNDS` rounds over every key with `REPEATS`
/// immediate repeats per round, arriving evenly at `OVERLOAD` × service
/// capacity, fault presets in a fixed rotation. Each round shuffles the two halves of the previous round's
/// order within themselves, so at least half the keys (no fewer than the
/// cache's capacity) separate two rounds' requests of one key: every
/// key's first request in a round misses and every repeat hits, for any
/// seed. The seed picks the orders, repeat positions, request counts and
/// session seeds.
fn schedule(
    mix: &mut Mix,
    keys: &[(ModelSource, Platform, Scenario)],
    cfg: &ServerConfig,
) -> Vec<Arrival> {
    let half = keys.len() / 2;
    assert!(
        half >= cfg.tree_cache_capacity,
        "halves must outnumber the cache slots"
    );
    let mut round: Vec<usize> = (0..keys.len()).collect();
    mix.shuffle(&mut round);
    let mut order = Vec::new();
    for _ in 0..ROUNDS {
        let (a, b) = round.split_at_mut(half);
        mix.shuffle(a);
        mix.shuffle(b);
        let mut repeat = vec![false; keys.len()];
        for r in repeat.iter_mut().take(REPEATS) {
            *r = true;
        }
        mix.shuffle(&mut repeat);
        for (&k, rep) in round.iter().zip(repeat) {
            order.push(k);
            if rep {
                order.push(k);
            }
        }
    }
    // Service capacity: `slots` sessions at a time, each holding its slot
    // for about `requests × think time` of virtual time.
    let session_ms = (REQUESTS.0 + REQUESTS.1) as f64 / 2.0 * cfg.think_time_ms;
    let interval_ms = session_ms / (cfg.slots.max(1) as f64 * OVERLOAD);
    order
        .into_iter()
        .enumerate()
        .map(|(i, k)| {
            let (model, device, scenario) = &keys[k];
            let preset = PRESETS[i % PRESETS.len()];
            Arrival {
                at_ms: i as f64 * interval_ms,
                spec: SessionSpec {
                    tenant: format!("tenant-{}", i % TENANTS),
                    model: model.clone(),
                    min_accuracy: 0.0,
                    device: *device,
                    scenario: *scenario,
                    requests: REQUESTS.0 + mix.below(REQUESTS.1 - REQUESTS.0 + 1),
                    seed: mix.next() % 1_000_000,
                    faults: FaultSchedule::from_preset(preset).expect("known preset"),
                },
            }
        })
        .collect()
}

fn schedules(seed: u64, short: bool) -> Vec<Vec<Arrival>> {
    let keys = keys();
    let cfg = config();
    let mut mix = Mix(seed);
    (0..if short { 2 } else { SCHEDULES })
        .map(|_| schedule(&mut mix, &keys, &cfg))
        .collect()
}

/// A cold replay: a fresh server (empty memo pool and tree cache).
fn cold_replay(arrivals: &[Arrival]) -> (Server, ScheduleReport) {
    let server = Server::new(config());
    let report = server.run_schedule(arrivals, 1, None);
    (server, report)
}

/// The replay's output checks: every arrival decided, every admitted
/// session terminal, and the log equal to the schedule's first replay.
fn checks_pass(arrivals: &[Arrival], report: &ScheduleReport, expected_log: Option<&str>) -> bool {
    let accounted =
        report.admitted + report.shed == arrivals.len() && report.records.len() == arrivals.len();
    let terminal = report
        .records
        .iter()
        .enumerate()
        .all(|(i, r)| match &r.decision {
            Decision::Admitted { outcome, .. } => {
                ["ok", "retried", "degraded", "failed"].contains(&outcome.as_str())
                    && report.outcomes.get(i).is_some_and(Option::is_some)
            }
            Decision::Rejected { .. } => true,
        });
    let repeats = expected_log.is_none_or(|log| report.log() == log);
    accounted && terminal && repeats
}

fn setup(opts: &RunOpts) -> (Vec<Vec<Arrival>>, f64) {
    let t = Instant::now();
    let scheds = schedules(opts.seed, opts.short);
    for arrivals in scheds.iter().take(WARM_UP_REPLAYS) {
        let _ = cold_replay(arrivals);
    }
    (scheds, secs(t))
}

pub fn run(opts: &RunOpts) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut scheds = Vec::new();
    for _ in 0..if opts.short { 1 } else { SETUPS } {
        let (s, t) = setup(opts);
        scheds = s;
        setup_s.push(t);
    }
    if opts.trace {
        traced(opts, &scheds, &mut out);
        out.samples("setup_s", "s", setup_s);
        return out;
    }

    let mut latencies = Vec::new();
    let mut logs: Vec<String> = Vec::new();
    let mut firsts: Vec<ScheduleReport> = Vec::new();
    let start = Instant::now();
    let mut round = 0;
    while round < 2 || secs(start) < opts.seconds {
        let done = fan_out(scheds.len(), |m| timed(|| cold_replay(&scheds[m]).1));
        for (m, (arrivals, (report, ms))) in scheds.iter().zip(done).enumerate() {
            latencies.push(ms);
            let ok = checks_pass(arrivals, &report, logs.get(m).map(String::as_str));
            out.check(ok, || {
                format!("schedule {m} round {round}: replay checks failed")
            });
            if round == 0 {
                let mut log = report.log();
                if opts.corrupt && m == 0 {
                    log.push('\n');
                }
                logs.push(log);
                firsts.push(report);
            }
        }
        round += 1;
    }
    let measured = secs(start);

    // Quality guards over the admitted sessions of each schedule's first
    // replay: medians, since a few sessions caught in a fault window have
    // per-session means far above the rest.
    let (mut lat, mut acc, mut reward) = (Vec::new(), Vec::new(), Vec::new());
    for (arrivals, report) in scheds.iter().zip(&firsts) {
        for (a, r) in arrivals.iter().zip(&report.records) {
            if let Decision::Admitted {
                mean_latency_ms,
                mean_accuracy,
                ..
            } = r.decision
            {
                lat.push(mean_latency_ms);
                acc.push(mean_accuracy);
                reward.push(
                    EvalEnv::for_edge(a.spec.device)
                        .reward
                        .reward(mean_accuracy, mean_latency_ms),
                );
            }
        }
    }
    let admitted: usize = firsts.iter().map(|r| r.admitted).sum();
    let arrivals: usize = scheds.iter().map(Vec::len).sum();
    out.lines.push(format!(
        "replays: {round} rounds over {} schedules; {admitted} of {arrivals} arrivals admitted per round",
        scheds.len()
    ));
    out.end_to_end(
        &setup_s,
        &latencies,
        TAIL_PCT,
        measured,
        median(&reward),
        median(&lat),
        median(&acc),
    );
    out
}

/// The server's resolution of a session, rebuilt from public parts:
/// the checked model and the search/execution halves of its context.
struct Resolved {
    model: CheckedModel,
    key: (u64, u64),
    search_ctx: NetworkContext,
    exec_trace: cadmc_netsim::BandwidthTrace,
}

fn resolve(spec: &SessionSpec, cfg: &ServerConfig, ir_us: &mut Vec<f64>) -> Resolved {
    let model = match &spec.model {
        ModelSource::Zoo(name) => CheckedModel::from_spec(match name.as_str() {
            "tiny" => zoo::tiny_cnn(),
            "alexnet" => zoo::alexnet_cifar(),
            "mobilenet" => zoo::mobilenet_cifar(),
            "squeezenet" => zoo::squeezenet_cifar(),
            other => panic!("zoo model {other} is not in the key set"),
        }),
        ModelSource::Ir(src) => {
            let (checked, ms) = timed(|| check_source(src));
            ir_us.push(ms * 1e3);
            checked.model.expect("emitted IR checks clean")
        }
    };
    let descriptor = format!("{:?}|{}", spec.device, spec.scenario.name());
    let key = ModelContextKey::new(&model, &descriptor).pair();
    let (search_ctx, exec_trace) =
        NetworkContext::from_scenario(spec.scenario, CONTEXT_LEVELS, cfg.seed).train_test_split();
    Resolved {
        model,
        key,
        search_ctx,
        exec_trace,
    }
}

/// The server's per-key tree search: `ir::entry::tree_search` with its
/// quick configuration.
fn quick_search(r: &Resolved, device: Platform, cfg: &ServerConfig, memo: &MemoPool) -> ModelTree {
    let scfg = SearchConfig {
        episodes: cfg.episodes.max(1),
        feature_actions: cfg.feature_actions,
        ..SearchConfig::quick(cfg.seed)
    };
    let mut controllers = Controllers::new(&scfg);
    let env = EvalEnv::for_edge(device);
    cadmc_ir::entry::tree_search(
        &mut controllers,
        &r.model,
        &env,
        Some(r.search_ctx.levels()),
        Some(r.model.blocks().unwrap_or(2)),
        &scfg,
        memo,
        false,
        Some(r.search_ctx.trace()),
    )
    .expect("key-set models search")
    .tree
}

fn traced(opts: &RunOpts, scheds: &[Vec<Arrival>], out: &mut Outcome) {
    let cfg = config();
    // Warm servers: each one's cache holds every key of its schedule,
    // filled by one replay before timing.
    let warm_cfg = ServerConfig {
        tree_cache_capacity: 64,
        ..config()
    };
    let servers: Vec<Server> = scheds
        .iter()
        .map(|a| {
            let s = Server::new(warm_cfg.clone());
            let _ = s.run_schedule(a, 1, None);
            s
        })
        .collect();

    // Each schedule in turn: an untraced cold replay; the same replay's
    // searches rebuilt in arrival order against a tree cache of the
    // server's capacity, one timer per search (IR checks and the
    // executor timed alongside); and a warm replay (resolution, cache
    // hits, precompute and the virtual replay; no search). Interleaving
    // keeps a change in host speed out of the reconciliation.
    let (mut cold_ms, mut warm_ms, mut rebuilt_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut misses, mut hits, mut evictions, mut admitted) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut memo_hits, mut memo_lookups) = (0.0, 0.0);
    let (mut ir_us, mut search_ms, mut exec_us_per_request) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let mut round = 0;
    while round < 1 || secs(start) < opts.seconds {
        let done = fan_out(scheds.len(), |m| {
            let arrivals = &scheds[m];
            let ((server, report), cold) = timed(|| cold_replay(arrivals));
            let rebuilt = rebuild(arrivals, &cfg);
            let (warm_report, warm) = timed(|| servers[m].run_schedule(arrivals, 1, None));
            let ok =
                checks_pass(arrivals, &report, None) && checks_pass(arrivals, &warm_report, None);
            let cache = server.tree_cache();
            let counts = [
                cache.misses(),
                cache.hits(),
                cache.evictions(),
                report.admitted,
            ];
            let memo = (server.memo().hits(), server.memo().misses());
            (cold, rebuilt, warm, ok, counts, memo)
        });
        for (m, (cold, rebuilt, warm, ok, counts, memo)) in done.into_iter().enumerate() {
            out.check(ok, || {
                format!("schedule {m}: cold or warm replay checks failed")
            });
            out.check(rebuilt.searches == counts[0], || {
                format!(
                    "schedule {m}: rebuilt {} searches, the server ran {}",
                    rebuilt.searches, counts[0]
                )
            });
            cold_ms.push(cold);
            warm_ms.push(warm);
            rebuilt_ms.push(rebuilt.ms);
            ir_us.extend(rebuilt.ir_us);
            search_ms.extend(rebuilt.search_ms);
            exec_us_per_request.extend(rebuilt.exec_us_per_request);
            misses.push(counts[0] as f64);
            hits.push(counts[1] as f64);
            evictions.push(counts[2] as f64);
            admitted.push(counts[3] as f64);
            memo_hits += memo.0 as f64;
            memo_lookups += (memo.0 + memo.1) as f64;
        }
        round += 1;
    }
    let searches_per_replay = search_ms.len() as f64 / cold_ms.len() as f64;

    let cold = mean(&cold_ms);
    let quick = mean(&search_ms);
    let per_replay_searches = searches_per_replay;
    let warm = mean(&warm_ms);
    let ir_per_replay = mean(&ir_us) * ir_us.len() as f64 / cold_ms.len() as f64 / 1e3;
    let table = [
        Stage {
            name: "tree_search.quick_ms x searches",
            ms_per_op: quick * per_replay_searches,
            moves: "latency_ms_p50, throughput_per_s",
        },
        Stage {
            name: "serve.replay_warm_ms",
            ms_per_op: warm,
            moves: "latency_ms_tail",
        },
    ];
    out.lines.push(stage_table(
        "serve_replay (ms per cold replay)",
        &table,
        cold,
    ));
    out.lines.push(format!(
        "serve.replay_warm_ms includes ir.check_us x IR arrivals = {ir_per_replay:.3} ms per replay; \
         {per_replay_searches:.1} searches of {quick:.3} ms per replay"
    ));
    let stage_sum = quick * per_replay_searches + warm;
    let unaccounted = out.reconcile(opts, stage_sum, cold, RECONCILE_TOLERANCE);
    out.lines.push(format!(
        "serve_replay traced: {} cold, rebuilt ({:.3} ms each) and warm replays; tolerance {:.0}%",
        cold_ms.len(),
        mean(&rebuilt_ms),
        RECONCILE_TOLERANCE * 100.0
    ));
    let (h, mi) = (mean(&hits), mean(&misses));
    out.metric("ir.check_us", mean(&ir_us), "us");
    out.metric("tree_search.quick_ms", quick, "ms");
    out.metric("serve.searches_per_admitted", mi / mean(&admitted), "ratio");
    out.metric("tree_cache.hit_ratio", h / (h + mi).max(1.0), "ratio");
    out.metric("tree_cache.evictions", mean(&evictions), "count");
    out.metric("memo.hit_ratio", memo_hits / memo_lookups.max(1.0), "ratio");
    out.metric("serve.replay_warm_ms", warm, "ms");
    out.metric("executor.request_us", mean(&exec_us_per_request), "us");
    out.metric("trace.untraced_ms", cold, "ms");
    out.metric("trace.overhead_pct", 100.0 * (stage_sum - cold) / cold, "%");
    out.metric("trace.unaccounted_pct", 100.0 * unaccounted, "%");
}

/// What rebuilding one replay's searches measured.
#[derive(Debug, Default)]
struct Rebuilt {
    searches: usize,
    ms: f64,
    ir_us: Vec<f64>,
    search_ms: Vec<f64>,
    exec_us_per_request: Vec<f64>,
}

/// Rebuilds one replay's searches in arrival order against a tree cache
/// of the server's capacity and a fresh memo pool, timing each search;
/// IR checks are timed inside resolution and each session's executor run
/// per request, with its faults as `run_session` applies them.
fn rebuild(arrivals: &[Arrival], cfg: &ServerConfig) -> Rebuilt {
    let t = Instant::now();
    let mut r = Rebuilt::default();
    let cache = TreeCache::new(cfg.tree_cache_capacity);
    let memo = MemoPool::new();
    for (i, a) in arrivals.iter().enumerate() {
        let resolved = resolve(&a.spec, cfg, &mut r.ir_us);
        let tree = cache.get_or_insert_with(resolved.key, || {
            let (tree, ms) = timed(|| quick_search(&resolved, a.spec.device, cfg, &memo));
            r.search_ms.push(ms);
            tree
        });
        let mut ec = ExecConfig::new(a.spec.requests.max(1), Mode::Emulation, a.spec.seed);
        ec.think_time_ms = cfg.think_time_ms;
        ec.deadline_ms = cfg.deadline_ms;
        ec.max_retries = cfg.max_retries;
        ec.backoff_ms = cfg.backoff_ms;
        ec.faults = a.spec.faults.for_session(i as u64);
        let env = EvalEnv::for_edge(a.spec.device);
        let (report, ms) = timed(|| {
            execute(
                &env,
                tree.base(),
                &Policy::Tree(&tree),
                &resolved.exec_trace,
                &ec,
            )
        });
        r.exec_us_per_request
            .push(ms * 1e3 / report.latencies_ms.len() as f64);
    }
    r.searches = r.search_ms.len();
    r.ms = secs(t) * 1e3;
    r
}
