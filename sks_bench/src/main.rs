//! `sks_bench` — the repository's benchmark: six engine workloads with
//! built-in correctness checks, a traced second run that attributes the
//! cost to layers, and a bottom-up pass of per-layer microbenchmarks.
//! See `README.md` beside this file for the workload sheet, the metric →
//! layer → end-to-end map and how to run and compare result sets.
//!
//! ```text
//! sks_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!           [--smoke] [--dir DIR] [--spans FILE] [--client-metrics]
//! sks_bench --smoke                  all workloads + layer pass at 1/100 scale
//! sks_bench layers [--smoke] [--dir DIR]
//! sks_bench suite --out FILE [--runs N] [--seconds S] [--dir DIR] [--smoke]
//! sks_bench compare A.json B.json
//! sks_bench manifest                 BENCHMARK.json, rendered from the tables
//! ```
//!
//! The first form is the one `BENCHMARK.json` names: its last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`.

mod compare;
mod gen;
mod hist;
mod json;
mod layers;
mod metrics;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use json::Json;
use metrics::Values;
use sks_core::ObsLevel;
use workloads::{RunOpts, RunResult, Spec, KIND_NAMES, RUN_SECONDS, SPECS};

/// Scratch databases go here unless `--dir` says otherwise: inside the
/// working directory, because the benchmark driver allows no writes
/// outside its checkout.
const DEFAULT_SCRATCH: &str = ".sks_bench_scratch";

#[derive(Debug, Clone)]
struct Args {
    command: Option<String>,
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    dir: PathBuf,
    spans: Option<PathBuf>,
    /// Adds the client-visible per-layer metrics to the `--trace 0` line;
    /// `suite` passes it so `compare` has their run-to-run spread.
    client_metrics: bool,
    out: Option<PathBuf>,
    runs: u64,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: None,
        positional: Vec::new(),
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        dir: PathBuf::from(DEFAULT_SCRATCH),
        spans: None,
        client_metrics: false,
        out: None,
        runs: 10,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                args.seconds = s;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--runs" => {
                args.runs = value("--runs")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if args.runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            "--smoke" => args.smoke = true,
            "--client-metrics" => args.client_metrics = true,
            "--dir" => args.dir = PathBuf::from(value("--dir")?),
            "--spans" => args.spans = Some(PathBuf::from(value("--spans")?)),
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            word if args.command.is_none() && args.workload.is_none() => {
                args.command = Some(word.to_string())
            }
            word => args.positional.push(word.to_string()),
        }
    }
    Ok(args)
}

/// Where this benchmark lives in the repository; `BENCHMARK.json`'s
/// `paths` and the manifest its `command` builds.
const BENCH_DIR: &str = "sks_bench";

/// `BENCHMARK.json`, rendered from the workload and metric tables so the
/// file and the binary cannot disagree (a unit test compares them).
fn manifest() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::from(*s)).collect());
    let metric = |d: &metrics::MetricDef| {
        Json::obj()
            .with("name", d.name)
            .with("unit", d.unit)
            .with("better", d.better.name())
    };
    let bounded = |d: &metrics::MetricDef| {
        metric(d).with("bound", d.bound.expect("end-to-end metrics carry a bound"))
    };
    let manifest_path = format!("{BENCH_DIR}/Cargo.toml");
    Json::obj()
        .with(
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--offline",
                "--manifest-path",
                &manifest_path,
                "--",
            ]),
        )
        .with("paths", strings(&[BENCH_DIR]))
        .with("run_seconds", RUN_SECONDS)
        .with(
            "workloads",
            Json::Arr(
                SPECS
                    .iter()
                    .map(|s| Json::obj().with("name", s.name).with("why", s.why))
                    .collect(),
            ),
        )
        .with(
            "end_to_end",
            Json::Arr(metrics::END_TO_END.iter().map(bounded).collect()),
        )
        .with(
            "per_layer",
            Json::Arr(metrics::PER_LAYER.iter().map(metric).collect()),
        )
}

fn metrics_json(values: &Values) -> Json {
    let mut out = Json::obj();
    for (name, value) in values {
        let def = metrics::def_of(name).expect("every emitted metric is in the tables");
        out = out.with(
            name,
            Json::obj().with("value", *value).with("unit", def.unit),
        );
    }
    out
}

/// The contract's result object (plus the smoke stamp when it applies).
fn result_line(attempted: u64, failed: u64, values: &Values, smoke: bool) -> Json {
    let mut line = Json::obj()
        .with("correct", failed == 0)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("metrics", metrics_json(values));
    if smoke {
        line = line.with("smoke", true);
    }
    line
}

fn report_failures(r: &RunResult) {
    for f in &r.tally.failures {
        eprintln!("sks_bench: FAILED OP: {f}");
    }
}

fn describe(spec: &Spec, label: &str, r: &RunResult) {
    eprintln!(
        "sks_bench: {} [{label}] n={} clients={} ops={} window={:.3}s ({:.0} ops/s) \
         setup={:.3}s (x{}) reopen={:.2}ms tail={} close={:.2}ms space_amp={:.3} \
         rss={:.1}MB attempted={} failed={}",
        spec.name,
        r.n,
        r.clients,
        r.ops,
        r.window_s,
        r.ops_per_s(),
        r.setup_s,
        r.setup_samples,
        r.reopen_ms,
        r.tail_records,
        r.close_ms,
        r.space_amp,
        r.peak_rss_mb,
        r.tally.attempted,
        r.tally.failed,
    );
    for (kind, h) in KIND_NAMES.iter().zip(&r.hists) {
        if h.count() > 0 {
            eprintln!(
                "sks_bench:   {kind}: n={} p50={:.2}us p99={:.2}us",
                h.count(),
                h.quantile_us(0.50),
                h.quantile_us(0.99)
            );
        }
    }
}

/// Spans as JSON lines, then the traced run's counter delta and stage
/// totals: what a later reader needs to recompute any per-layer figure.
fn write_spans(path: &Path, r: &RunResult) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in &r.spans {
        writeln!(
            out,
            "{{\"kind\":\"{}\",\"worker\":{},\"start_ns\":{},\"end_ns\":{}}}",
            KIND_NAMES[s.kind as usize],
            s.worker,
            s.start_ns,
            s.start_ns + s.dur_ns as u64
        )?;
    }
    let mut counters = Json::obj();
    for (name, value) in r.counters.fields() {
        counters = counters.with(name, value);
    }
    let mut stages = Json::obj();
    for (stage, (client, checkpoint)) in sks_storage::Stage::ALL
        .iter()
        .zip(r.client_stage_ns.iter().zip(&r.checkpoint_stage_ns))
    {
        stages = stages.with(
            stage.name(),
            Json::obj()
                .with("client_ns", *client)
                .with("checkpoint_ns", *checkpoint),
        );
    }
    let tail = Json::obj()
        .with("window_ops", r.ops)
        .with("counters", counters)
        .with("stages", stages);
    writeln!(out, "{}", tail.render())?;
    out.flush()
}

struct Outcome {
    attempted: u64,
    failed: u64,
    values: Values,
}

/// One workload as the driver runs it: untraced for the end-to-end
/// metrics; for the per-layer metrics untraced, then traced, then the
/// layer pass (the untraced leg is the base of `obs.trace_overhead_pct`).
/// `layer_pass` supplies the layer figures when the caller already has
/// them (the smoke run makes one pass for all six workloads).
fn run_workload(spec: &Spec, args: &Args, layer_pass: Option<&Values>) -> Result<Outcome, String> {
    let opts = RunOpts {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        dir: args.dir.clone(),
        level: ObsLevel::Counters,
        keep_spans: false,
    };
    let untraced = workloads::run(spec, &opts)?;
    describe(spec, "untraced", &untraced);
    report_failures(&untraced);
    if !args.trace {
        let mut values = metrics::end_to_end(&untraced);
        if args.client_metrics {
            values.extend(metrics::client_visible(&untraced));
        }
        return Ok(Outcome {
            attempted: untraced.tally.attempted,
            failed: untraced.tally.failed,
            values,
        });
    }
    let traced = workloads::run(
        spec,
        &RunOpts {
            level: ObsLevel::Histograms,
            keep_spans: true,
            ..opts
        },
    )?;
    describe(spec, "traced", &traced);
    report_failures(&traced);
    if let Some(path) = &args.spans {
        write_spans(path, &traced).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let mut values = metrics::traced(&untraced, &traced);
    match layer_pass {
        Some(shared) => values.extend(shared.iter().copied()),
        None => values.extend(layers::run(args.smoke, &args.dir)?),
    }
    Ok(Outcome {
        attempted: untraced.tally.attempted + traced.tally.attempted,
        failed: untraced.tally.failed + traced.tally.failed,
        values,
    })
}

fn exit_for(failed: u64) -> ExitCode {
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// `--smoke` with no workload: everything once at 1/100 scale, one
/// document, stamped so it can never pass for a result.
fn run_smoke(args: &Args) -> Result<(Json, u64), String> {
    let mut doc = Json::obj().with("smoke", true);
    let mut failed = 0;
    let layer_pass = layers::run(true, &args.dir)?;
    for spec in &SPECS {
        for trace in [false, true] {
            let outcome = run_workload(
                spec,
                &Args {
                    trace,
                    smoke: true,
                    ..args.clone()
                },
                Some(&layer_pass),
            )?;
            failed += outcome.failed;
            let key = format!("{}.trace{}", spec.name, trace as u8);
            doc = doc.with(
                &key,
                result_line(outcome.attempted, outcome.failed, &outcome.values, true),
            );
        }
    }
    Ok((doc, failed))
}

fn real_main() -> Result<ExitCode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    match (args.command.as_deref(), args.workload.as_deref()) {
        (Some("compare"), _) => {
            let [a, b] = args.positional.as_slice() else {
                return Err("compare takes two result files".into());
            };
            compare::run(Path::new(a), Path::new(b))
        }
        (Some("suite"), _) => {
            let out = args.out.clone().ok_or("suite needs --out FILE")?;
            compare::suite(&args, &out)
        }
        (Some("manifest"), _) => {
            print!("{}", manifest().render_pretty());
            Ok(ExitCode::SUCCESS)
        }
        (Some("layers"), _) => {
            let start = Instant::now();
            let values = layers::run(args.smoke, &args.dir)?;
            eprintln!(
                "sks_bench: layer pass took {:.1}s",
                start.elapsed().as_secs_f64()
            );
            println!(
                "{}",
                result_line(values.len() as u64, 0, &values, args.smoke).render()
            );
            Ok(ExitCode::SUCCESS)
        }
        (Some(other), _) => Err(format!("unknown command {other}")),
        (None, Some(name)) => {
            let spec = workloads::spec_named(name).ok_or_else(|| {
                let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
                format!("unknown workload {name}; one of {}", names.join(", "))
            })?;
            let outcome = run_workload(spec, &args, None)?;
            println!(
                "{}",
                result_line(
                    outcome.attempted,
                    outcome.failed,
                    &outcome.values,
                    args.smoke
                )
                .render()
            );
            Ok(exit_for(outcome.failed))
        }
        (None, None) if args.smoke => {
            let (doc, failed) = run_smoke(&args)?;
            println!("{}", doc.render());
            Ok(exit_for(failed))
        }
        (None, None) => Err(
            "nothing to do: pass --workload NAME, --smoke, or a command \
                             (layers, suite, compare, manifest)"
                .into(),
        ),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("sks_bench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` sits at the repository root, above this package.
    fn benchmark_json() -> Json {
        let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        loop {
            let candidate = dir.join("BENCHMARK.json");
            if candidate.exists() {
                let text = std::fs::read_to_string(&candidate).unwrap();
                return Json::parse(&text).unwrap();
            }
            assert!(dir.pop(), "no BENCHMARK.json above CARGO_MANIFEST_DIR");
        }
    }

    fn names_and_units(list: &Json) -> Vec<(String, String)> {
        list.as_arr()
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m.get("name").unwrap().as_str().unwrap().to_string(),
                    m.get("unit").unwrap().as_str().unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_is_the_rendered_manifest() {
        assert_eq!(
            benchmark_json(),
            manifest(),
            "regenerate with `sks_bench manifest > BENCHMARK.json`"
        );
    }

    /// The smoke run emits every metric `BENCHMARK.json` names, with its
    /// unit, on every workload, and no op fails.
    #[test]
    fn smoke_emits_every_metric_with_its_unit() {
        let doc = benchmark_json();
        let dir = std::env::temp_dir().join(format!("sks_bench_smoke_test_{}", std::process::id()));
        let args =
            parse_args(&["--smoke".into(), "--dir".into(), dir.display().to_string()]).unwrap();
        let start = Instant::now();
        let (out, failed) = run_smoke(&args).unwrap();
        assert_eq!(failed, 0);
        assert_eq!(out.get("smoke").and_then(Json::as_bool), Some(true));
        for spec in &SPECS {
            for (trace, list) in [(0, "end_to_end"), (1, "per_layer")] {
                let line = out.get(&format!("{}.trace{trace}", spec.name)).unwrap();
                assert_eq!(line.get("smoke").and_then(Json::as_bool), Some(true));
                assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
                let emitted: Vec<(String, String)> = line
                    .get("metrics")
                    .unwrap()
                    .fields()
                    .iter()
                    .map(|(k, v)| {
                        let value = v.get("value").unwrap().as_f64().unwrap();
                        // End-to-end metrics are never 0 on any workload
                        // (`peak_rss_mb` reads /proc, so only on Linux).
                        let may_be_zero =
                            trace == 1 || (k == "peak_rss_mb" && !cfg!(target_os = "linux"));
                        assert!(value.is_finite() && (value > 0.0 || may_be_zero), "{k}");
                        (
                            k.clone(),
                            v.get("unit").unwrap().as_str().unwrap().to_string(),
                        )
                    })
                    .collect();
                assert_eq!(
                    emitted,
                    names_and_units(doc.get(list).unwrap()),
                    "{}",
                    spec.name
                );
            }
        }
        // The scratch directory is removed on success.
        assert!(std::fs::read_dir(&dir).map_or(true, |mut d| d.next().is_none()));
        std::fs::remove_dir_all(&dir).ok();
        eprintln!("smoke took {:.1}s", start.elapsed().as_secs_f64());
    }

    #[test]
    fn arguments_parse_as_the_driver_passes_them() {
        let argv: Vec<String> = "--workload read_hot --seed 7 --seconds 5 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let args = parse_args(&argv).unwrap();
        assert_eq!(args.workload.as_deref(), Some("read_hot"));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 5.0, true));
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
        assert!(parse_args(&["--bogus".into()]).is_err());
    }
}
