//! `offline_plan`: the offline phase of the paper (Alg. 1 branch search,
//! Alg. 3 tree search, surgery baseline) over the 14 rows of Tables 3–5,
//! as `cadmc search` runs it: 40 episodes, serial rollouts, a fresh memo
//! pool per scene.

use std::sync::Arc;
use std::time::Instant;

use cadmc_core::branch::{optimal_branch, sample_candidate};
use cadmc_core::executor::{execute, ExecConfig, Policy};
use cadmc_core::experiments::{
    paper_workloads, train_scene, TrainedScene, Workload, K_LEVELS, N_BLOCKS,
};
use cadmc_core::memo::MemoPool;
use cadmc_core::parallel::Parallelism;
use cadmc_core::search::{Controllers, SearchConfig};
use cadmc_core::tree::ModelTree;
use cadmc_core::tree_search::{rigid_tree, tree_search};
use cadmc_core::{surgery, Candidate, EvalEnv, NetworkContext};
use cadmc_latency::Mbps;
use rand::SeedableRng;

use crate::common::{
    fan_out, mean, median, secs, stage_table, timed, Mix, Outcome, RunOpts, Stage,
};

/// Episodes per search, as `cadmc search` defaults.
const EPISODES: usize = 40;
/// Seed of the scenes' bandwidth traces (training and held-out). The
/// traces stand for the paper's recorded traces and stay fixed; the
/// benchmark seed drives the searches.
const SCENE_SEED: u64 = 7;
/// Requests of the held-out emulation behind the quality guards.
const GUARD_REQUESTS: usize = 200;
/// Tail percentile: the slow VGG11 rows. A 30 s run times about twenty
/// passes of 14 scenes (never fewer than ten), so well over ten samples
/// lie beyond it.
const TAIL_PCT: f64 = 90.0;
/// Every this many passes, one repeats an earlier pass's search seed (the
/// byte-identity check); the others take fresh seeds. A seed's policy
/// decides how many layers each episode compresses on the edge, and so
/// the episode's cost: averaging over many seeds keeps one seed's search
/// luck out of the figures.
const REPEAT_EVERY: usize = 4;
/// Fresh-seed passes whose scenes feed the quality guards.
const GUARD_PASSES: usize = 8;
/// Set-ups per run; the median is reported.
const SETUPS: usize = 3;
/// How far the stage sum may stray from the untraced latency (share).
const RECONCILE_TOLERANCE: f64 = 0.05;

fn config(seed: u64) -> SearchConfig {
    SearchConfig {
        episodes: EPISODES,
        seed,
        parallelism: Parallelism::serial(),
        ..SearchConfig::default()
    }
}

/// The `n`-th fresh search seed of a run, mixed over all 64 bits: the
/// searches derive their RNG streams as `seed ^ episode`, so seeds that
/// differ only in low bits would share most of their streams.
fn search_seed(opts: &RunOpts, n: usize) -> u64 {
    Mix(opts.seed.wrapping_mul(1 << 20).wrapping_add(n as u64)).next()
}

fn rows(opts: &RunOpts) -> Vec<Workload> {
    let all = paper_workloads();
    if opts.short {
        // One VGG11 row and one AlexNet row.
        vec![all[0].clone(), all[all.len() - 1].clone()]
    } else {
        all
    }
}

/// The bit pattern two runs of one scene must reproduce exactly.
fn fingerprint(s: &TrainedScene) -> [u64; 3] {
    [
        s.surgery.evaluation.reward.to_bits(),
        s.branch_reward.to_bits(),
        s.tree.best_branch_reward.to_bits(),
    ]
}

/// Executes a tree on the scene's held-out trace (Table 4 emulation):
/// `(latency ms, accuracy)`.
fn executed(
    env: &EvalEnv,
    w: &Workload,
    tree: &ModelTree,
    trace: &cadmc_netsim::BandwidthTrace,
    seed: u64,
) -> (f64, f64) {
    let cfg = ExecConfig::emulation(GUARD_REQUESTS, seed);
    let e = execute(env, &w.model, &Policy::Tree(tree), trace, &cfg).evaluation(&env.reward);
    (e.latency_ms, e.accuracy)
}

/// Set-up: zoo build and workload rows, plus a warm-up scene of each
/// model so the allocator and caches are in their steady state before
/// timing. The warm-up search seed is fixed, so set-up does the same work
/// for every benchmark seed.
fn setup(opts: &RunOpts) -> (Vec<Workload>, f64) {
    let t = Instant::now();
    let rows = rows(opts);
    for warm in [&rows[0], &rows[rows.len() - 1]] {
        let _ = train_scene(warm, &config(SCENE_SEED), SCENE_SEED).expect("paper rows are valid");
    }
    (rows, secs(t))
}

pub fn run(opts: &RunOpts) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut rows = Vec::new();
    for _ in 0..if opts.short { 1 } else { SETUPS } {
        let (r, s) = setup(opts);
        rows = r;
        setup_s.push(s);
    }
    if opts.trace {
        traced(opts, &rows, &mut out);
        out.samples("setup_s", "s", setup_s);
        return out;
    }
    // Pass p with p % REPEAT_EVERY == REPEAT_EVERY - 1 reruns pass
    // p + 1 - REPEAT_EVERY, seed and all, and must reproduce its rewards
    // bit for bit; every other pass takes a fresh search seed. Passes run
    // the rows on two workers.
    let guard_passes = if opts.short { 1 } else { GUARD_PASSES };
    let mut latencies = Vec::new();
    let mut guards: Vec<(f64, f64, f64)> = Vec::new();
    let mut seeds: Vec<u64> = Vec::new();
    let mut fingerprints: Vec<Vec<[u64; 3]>> = Vec::new();
    let start = Instant::now();
    let (mut pass, mut fresh) = (0, 0);
    while fresh < guard_passes || pass < REPEAT_EVERY || secs(start) < opts.seconds {
        let repeat_of = (pass % REPEAT_EVERY == REPEAT_EVERY - 1).then(|| pass + 1 - REPEAT_EVERY);
        let (seed, guard) = match repeat_of {
            Some(q) => (seeds[q], false),
            None => {
                fresh += 1;
                (search_seed(opts, fresh - 1), fresh <= guard_passes)
            }
        };
        let cfg = config(seed);
        let mut fps = Vec::with_capacity(rows.len());
        let scenes = fan_out(rows.len(), |i| {
            timed(|| train_scene(&rows[i], &cfg, SCENE_SEED))
        });
        for (i, (w, (scene, ms))) in rows.iter().zip(scenes).enumerate() {
            latencies.push(ms);
            let scene = scene.expect("paper rows are valid");
            let fp = fingerprint(&scene);
            let ordered = scene.surgery.evaluation.reward <= scene.branch_reward;
            let repeats = repeat_of.is_none_or(|q| fingerprints[q][i] == fp);
            out.check(ordered && repeats, || {
                format!(
                    "{} pass {pass}: surgery <= branch {ordered}, rewards equal to pass {repeat_of:?} {repeats}",
                    w.label()
                )
            });
            if guard {
                // Quality guards, outside the op's timer: the tree's
                // best-branch reward and its executed latency/accuracy on
                // the held-out trace.
                let (lat, acc) = executed(
                    &scene.env,
                    w,
                    &scene.tree.tree,
                    &scene.test_trace,
                    SCENE_SEED,
                );
                guards.push((scene.tree.best_branch_reward, lat, acc));
            }
            fps.push(fp);
        }
        if pass == 0 && opts.corrupt {
            fps[0][2] ^= 1;
        }
        seeds.push(seed);
        fingerprints.push(fps);
        pass += 1;
    }
    let measured = secs(start);
    out.lines.push(format!(
        "passes: {pass} over {} scenes, {fresh} search seeds (guards over the first {guard_passes})",
        rows.len()
    ));
    out.end_to_end(
        &setup_s,
        &latencies,
        TAIL_PCT,
        measured,
        mean(&guards.iter().map(|g| g.0).collect::<Vec<_>>()),
        mean(&guards.iter().map(|g| g.1).collect::<Vec<_>>()),
        mean(&guards.iter().map(|g| g.2).collect::<Vec<_>>()),
    );
    out
}

/// Per-stage milliseconds of one scene, in `train_scene`'s order.
#[derive(Debug, Default, Clone, Copy)]
struct StageMs {
    context: f64,
    surgery: f64,
    branch: f64,
    rerank: f64,
    tree: f64,
    total: f64,
}

/// What the staged replica produces, for comparison with `train_scene`.
struct Staged {
    fingerprint: [u64; 3],
    guard: (f64, f64),
    controllers: Controllers,
    memo: MemoPool,
    env: EvalEnv,
    median: f64,
}

/// `train_scene` replayed through its public stages with a timer around
/// each one.
fn staged(w: &Workload, cfg: &SearchConfig, seed: u64, ms: &mut StageMs) -> Staged {
    let t_all = Instant::now();
    let t = Instant::now();
    let env = EvalEnv::for_edge(w.device);
    let ctx = NetworkContext::from_scenario(w.scenario, K_LEVELS, seed);
    let memo = MemoPool::new();
    let median = Mbps(ctx.median_bandwidth());
    let test_trace = w.scenario.trace(seed ^ 0x5eed_cafe);
    ms.context = secs(t) * 1e3;

    let t = Instant::now();
    let surgery = surgery::plan(&w.model, &env, median);
    ms.surgery = secs(t) * 1e3;

    let t = Instant::now();
    let mut controllers = Controllers::new(cfg);
    let outcome = optimal_branch(&mut controllers, &w.model, &env, median, cfg, &memo)
        .expect("paper rows are valid");
    ms.branch = secs(t) * 1e3;

    let t = Instant::now();
    let exec_cfg = ExecConfig::emulation(300, cfg.seed);
    let executed_static = |c: &Candidate| {
        execute(&env, &w.model, &Policy::Static(c), ctx.trace(), &exec_cfg)
            .evaluation(&env.reward)
            .reward
    };
    let all_edge = Candidate::base_all_edge(&w.model);
    let mut pool: Vec<&Candidate> = vec![&surgery.candidate, &all_edge];
    let tail = outcome.improvers.len().saturating_sub(5);
    pool.extend(outcome.improvers[tail..].iter().map(|(c, _)| c));
    let branch = pool
        .into_iter()
        .max_by(|a, b| executed_static(a).total_cmp(&executed_static(b)))
        .expect("pool contains surgery")
        .clone();
    let branch_reward = outcome.best_eval.reward.max(surgery.evaluation.reward);
    ms.rerank = secs(t) * 1e3;

    let t = Instant::now();
    let mut tree = tree_search(
        &mut controllers,
        &w.model,
        &env,
        ctx.levels(),
        N_BLOCKS,
        cfg,
        &memo,
        true,
        Some(ctx.trace()),
    )
    .expect("paper rows are valid");
    let rigid = rigid_tree(
        &Arc::new(w.model.clone()),
        &env,
        ctx.levels(),
        N_BLOCKS,
        &branch,
        &memo,
    );
    ms.tree = secs(t) * 1e3;

    let t = Instant::now();
    let run_tree = |t: &ModelTree| {
        execute(&env, &w.model, &Policy::Tree(t), ctx.trace(), &exec_cfg)
            .evaluation(&env.reward)
            .reward
    };
    if run_tree(&rigid) > run_tree(&tree.tree) {
        tree.tree = rigid;
    }
    ms.rerank += secs(t) * 1e3;
    ms.total = secs(t_all) * 1e3;

    let fingerprint = [
        surgery.evaluation.reward.to_bits(),
        branch_reward.to_bits(),
        tree.best_branch_reward.to_bits(),
    ];
    let guard = executed(&env, w, &tree.tree, &test_trace, seed);
    Staged {
        fingerprint,
        guard,
        controllers,
        memo,
        env,
        median: median.0,
    }
}

fn traced(opts: &RunOpts, rows: &[Workload], out: &mut Outcome) {
    let cfg = config(search_seed(opts, 0));
    let mut untraced = Vec::new();
    let mut stages: Vec<StageMs> = Vec::new();
    let (mut lookups, mut hit_ratio, mut entries) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<Staged> = None;
    let start = Instant::now();
    let mut pass = 0;
    while pass < 1 || secs(start) < opts.seconds {
        // Each row untraced, then staged, on the same worker, so a worker
        // sees the same host speed for both.
        let done = fan_out(rows.len(), |i| {
            let (scene, ms) = timed(|| train_scene(&rows[i], &cfg, SCENE_SEED));
            let mut st = StageMs::default();
            let s = staged(&rows[i], &cfg, SCENE_SEED, &mut st);
            (scene.expect("paper rows are valid"), ms, st, s)
        });
        for (i, (w, (scene, ms, st, s))) in rows.iter().zip(done).enumerate() {
            untraced.push(ms);
            stages.push(st);
            let mut want = fingerprint(&scene);
            if opts.corrupt && i == 0 {
                want[2] ^= 1;
            }
            let guard = executed(
                &scene.env,
                w,
                &scene.tree.tree,
                &scene.test_trace,
                SCENE_SEED,
            );
            let same = s.fingerprint == want
                && s.guard.0.to_bits() == guard.0.to_bits()
                && s.guard.1.to_bits() == guard.1.to_bits();
            out.check(same, || {
                format!("{}: staged replica differs from train_scene", w.label())
            });
            let (h, m) = (s.memo.hits() as f64, s.memo.misses() as f64);
            lookups.push(h + m);
            hit_ratio.push(h / (h + m).max(1.0));
            entries.push(s.memo.len() as f64);
            if pass == 0 && i == 0 {
                first = Some(s);
            }
        }
        pass += 1;
    }

    let avg = |f: fn(&StageMs) -> f64| mean(&stages.iter().map(f).collect::<Vec<_>>());
    let untraced_ms = mean(&untraced);
    let table = [
        Stage {
            name: "netsim.context_ms",
            ms_per_op: avg(|s| s.context),
            moves: "latency_ms_p50 (small share)",
        },
        Stage {
            name: "surgery.plan_ms",
            ms_per_op: avg(|s| s.surgery),
            moves: "latency_ms_p50 (small share)",
        },
        Stage {
            name: "branch.search_ms",
            ms_per_op: avg(|s| s.branch),
            moves: "latency_ms_p50, throughput_per_s",
        },
        Stage {
            name: "executor.rerank_ms",
            ms_per_op: avg(|s| s.rerank),
            moves: "latency_ms_p50 (small share)",
        },
        Stage {
            name: "tree_search.search_ms",
            ms_per_op: avg(|s| s.tree),
            moves: "latency_ms_tail, throughput_per_s",
        },
    ];
    let stage_sum: f64 = table.iter().map(|s| s.ms_per_op).sum();
    let traced_ms = avg(|s| s.total);
    out.lines.push(stage_table(
        "offline_plan (ms per scene)",
        &table,
        untraced_ms,
    ));
    let unaccounted = out.reconcile(opts, stage_sum, untraced_ms, RECONCILE_TOLERANCE);
    for s in &table {
        out.metric(s.name, s.ms_per_op, "ms");
    }
    out.metric(
        "branch.episode_us",
        avg(|s| s.branch) * 1e3 / EPISODES as f64,
        "us",
    );
    out.metric(
        "tree_search.episode_us",
        avg(|s| s.tree) * 1e3 / EPISODES as f64,
        "us",
    );
    out.metric("memo.lookups", mean(&lookups), "count");
    out.metric("memo.hit_ratio", mean(&hit_ratio), "ratio");
    out.metric("memo.entries", mean(&entries), "count");

    // Micro-timings on candidates drawn from the first scene's trained
    // controllers, memo pool and environment.
    let s = first.expect("at least one staged scene");
    let base = &rows[0].model;
    let mut rng = rand::rngs::StdRng::seed_from_u64(opts.seed);
    let n = if opts.short { 32 } else { 256 };
    let t = Instant::now();
    let cands: Vec<Candidate> = (0..n)
        .map(|_| {
            sample_candidate(
                &s.controllers,
                base,
                s.median,
                &mut rng,
                0.0,
                cfg.explore_epsilon,
            )
            .1
        })
        .collect();
    out.metric("controller.sample_us", secs(t) * 1e6 / n as f64, "us");
    let t = Instant::now();
    let evals: f64 = cands
        .iter()
        .map(|c| s.env.evaluate(base, c, Mbps(s.median)).reward)
        .sum();
    out.metric("env.evaluate_us", secs(t) * 1e6 / n as f64, "us");
    std::hint::black_box(evals);
    let keys: Vec<u64> = cands.iter().map(|c| MemoPool::key(c, s.median)).collect();
    let reps = 200;
    let t = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(s.memo.probe_many(std::hint::black_box(&keys)));
    }
    out.metric("memo.probe_ns", secs(t) * 1e9 / (reps * n) as f64, "ns");

    out.metric("trace.untraced_ms", untraced_ms, "ms");
    out.metric(
        "trace.overhead_pct",
        100.0 * (traced_ms - untraced_ms) / untraced_ms,
        "%",
    );
    out.metric("trace.unaccounted_pct", 100.0 * unaccounted, "%");
    out.lines.push(format!(
        "offline_plan traced: {pass} passes; untraced {untraced_ms:.3} ms/scene (median {:.3}), \
         staged {traced_ms:.3} ms/scene; tolerance {:.0}%",
        median(&untraced),
        RECONCILE_TOLERANCE * 100.0
    ));
}
