//! Benchmark of the cadmc workspace over three workloads:
//!
//! - `offline_plan`: Alg. 1/Alg. 3 search over the Tables 3–5 rows;
//! - `serve_live`: the TCP front-end under two closed-loop connections
//!   with a warm tree cache;
//! - `serve_replay`: cold virtual-time chaos replays mixing zoo and
//!   inline-IR sessions with fault presets.
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics, timed around calls into each module's public functions.
//! The last line of stdout is the JSON result; the line before it is a
//! JSON report with the host fingerprint and every per-rep sample.
//! See `perfbench/README.md`.

mod common;
mod live;
mod offline;
mod replay;

use std::fmt::Write as _;

use common::{json_num, json_str, median, Outcome, RunOpts};

/// Every per-layer metric, in print order, with its unit. A workload
/// reports 0 for a layer it does not exercise.
const PER_LAYER: &[(&str, &str)] = &[
    ("netsim.context_ms", "ms"),
    ("surgery.plan_ms", "ms"),
    ("branch.search_ms", "ms"),
    ("branch.episode_us", "us"),
    ("executor.rerank_ms", "ms"),
    ("tree_search.search_ms", "ms"),
    ("tree_search.episode_us", "us"),
    ("memo.lookups", "count"),
    ("memo.hit_ratio", "ratio"),
    ("memo.entries", "count"),
    ("controller.sample_us", "us"),
    ("env.evaluate_us", "us"),
    ("memo.probe_ns", "ns"),
    ("protocol.parse_us", "us"),
    ("protocol.spec_us", "us"),
    ("protocol.encode_us", "us"),
    ("server.submit_us", "us"),
    ("session.fixed_us", "us"),
    ("executor.request_us", "us"),
    ("tcp.ping_us", "us"),
    ("tcp.residual_us", "us"),
    ("tree_cache.hit_ratio", "ratio"),
    ("tree_cache.evictions", "count"),
    ("admission.shed", "count"),
    ("admission.waiting_watermark", "count"),
    ("telemetry.overhead_pct", "%"),
    ("ir.check_us", "us"),
    ("tree_search.quick_ms", "ms"),
    ("serve.searches_per_admitted", "ratio"),
    ("serve.replay_warm_ms", "ms"),
    ("trace.untraced_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.unaccounted_pct", "%"),
];

const WORKLOADS: &[&str] = &["offline_plan", "serve_live", "serve_replay"];

struct Args {
    workload: String,
    opts: RunOpts,
    rustc: String,
    revision: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut opts = RunOpts {
        seed: 1,
        seconds: 10.0,
        trace: false,
        short: false,
        corrupt: false,
    };
    let (mut rustc, mut revision) = ("unknown".to_string(), "unknown".to_string());
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => opts.trace = value()? == "1",
            "--rustc" => rustc = value()?,
            "--revision" => revision = value()?,
            "--short" => opts.short = true,
            "--corrupt" => opts.corrupt = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} ({})",
            WORKLOADS.join("|")
        ));
    }
    Ok(Args {
        workload,
        opts,
        rustc,
        revision,
    })
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The report line: host fingerprint, every per-rep sample with its
/// median and range, and the metrics.
fn report(args: &Args, out: &Outcome) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let mut s = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{{\"nproc\":{nproc},\"cpu\":{},\"rustc\":{},\"revision\":{}}},\"samples\":{{",
        json_str(&args.workload),
        args.opts.seed,
        json_num(args.opts.seconds),
        args.opts.trace,
        json_str(&cpu_model()),
        json_str(&args.rustc),
        json_str(&args.revision),
    );
    for (i, smp) in out.samples.iter().enumerate() {
        let (lo, hi) = smp
            .values
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &v| {
                (l.min(v), h.max(v))
            });
        let values: Vec<String> = smp.values.iter().map(|&v| json_num(v)).collect();
        let _ = write!(
            s,
            "{}{}:{{\"unit\":{},\"n\":{},\"median\":{},\"min\":{},\"max\":{},\"values\":[{}]}}",
            if i > 0 { "," } else { "" },
            json_str(smp.name),
            json_str(smp.unit),
            smp.values.len(),
            json_num(median(&smp.values)),
            json_num(lo),
            json_num(hi),
            values.join(",")
        );
    }
    s.push_str("}}");
    s
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let mut out = match args.workload.as_str() {
        "offline_plan" => offline::run(&args.opts),
        "serve_live" => live::run(&args.opts),
        _ => replay::run(&args.opts),
    };
    if args.opts.trace {
        // Fixed key set: every per-layer metric, 0 where this workload
        // does not exercise the layer.
        let measured = std::mem::take(&mut out.metrics);
        for &(name, unit) in PER_LAYER {
            let value = measured
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            out.metric(name, value, unit);
        }
        if let Some(extra) = measured
            .iter()
            .find(|m| !PER_LAYER.iter().any(|p| p.0 == m.name))
        {
            eprintln!(
                "error: metric {} missing from the per-layer list",
                extra.name
            );
            std::process::exit(3);
        }
    }
    for line in &out.lines {
        println!("{line}");
    }
    for m in &out.metrics {
        println!("{:<30} {:>16} {}", m.name, json_num(m.value), m.unit);
    }
    println!("{}", report(&args, &out));
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    );
}
