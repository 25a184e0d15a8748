//! Result sets and their comparison. `suite` runs every workload the way
//! the benchmark driver does — one child process per run, a different
//! seed each time — and writes one result file; `compare` sets two such
//! files side by side and judges each bounded metric — the driver's
//! end-to-end list and the client-visible list — against its bound. The acceptance check of the benchmark itself (two sets of one
//! commit) and every later performance change use the same two commands.

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use crate::json::Json;
use crate::metrics::{client_defs, Better, MetricDef, END_TO_END, PER_LAYER};
use crate::stats::{quartiles, spread};
use crate::workloads::SPECS;
use crate::Args;

fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type of the mount that holds `dir` (longest mount-point
/// prefix in `/proc/mounts`).
fn filesystem_of(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    std::fs::read_to_string("/proc/mounts")
        .ok()
        .and_then(|mounts| {
            mounts
                .lines()
                .filter_map(|l| {
                    let mut f = l.split(' ');
                    let (_, point, fstype) = (f.next()?, f.next()?, f.next()?);
                    dir.starts_with(point)
                        .then(|| (point.len(), fstype.to_string()))
                })
                .max_by_key(|(len, _)| *len)
                .map(|(_, fstype)| fstype)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Runs this binary once as the driver would and parses its last line.
fn child_run(workload: &str, seed: u64, trace: bool, args: &Args) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--dir")
        .arg(&args.dir)
        .stderr(Stdio::inherit());
    if !trace {
        cmd.arg("--client-metrics");
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child, so no process outlives the suite.
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let line = Json::parse(last).map_err(|e| {
        format!(
            "{workload} seed {seed}: no result line ({e}); exit {}",
            out.status
        )
    })?;
    if !out.status.success() {
        eprintln!(
            "sks_bench: {workload} seed {seed} exited with {}",
            out.status
        );
    }
    Ok(line)
}

/// `attempted` or `failed` of a result line.
fn count(line: &Json, key: &str) -> u64 {
    line.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64
}

fn metric_value(line: &Json, name: &str) -> Option<f64> {
    line.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Every value of each of `defs` over the runs, with median, quartiles
/// and spread.
fn summarise<'a>(
    workload: &str,
    lines: &[Json],
    defs: impl Iterator<Item = &'a MetricDef>,
) -> Result<Json, String> {
    let mut out = Json::obj();
    for def in defs {
        let values: Vec<f64> = lines
            .iter()
            .filter_map(|l| metric_value(l, def.name))
            .collect();
        if values.len() != lines.len() {
            return Err(format!("{workload}: a run did not report {}", def.name));
        }
        let (q1, median, q3) = quartiles(&values);
        out = out.with(
            def.name,
            Json::obj()
                .with("unit", def.unit)
                .with("median", median)
                .with("q1", q1)
                .with("q3", q3)
                .with("spread", spread(&values))
                .with(
                    "values",
                    values.into_iter().map(Json::Num).collect::<Vec<_>>(),
                ),
        );
    }
    Ok(out)
}

/// `suite`: `--runs` untraced runs (seeds 1..) and one traced run (seed
/// 1) of every workload, written to `out` with the environment it ran in.
pub fn suite(args: &Args, out: &Path) -> Result<ExitCode, String> {
    let total = Instant::now();
    let mut workloads_doc = Json::obj();
    let mut any_failed = 0u64;
    for spec in &SPECS {
        let wall = Instant::now();
        let (mut attempted, mut failed) = (0u64, 0u64);
        let mut lines = Vec::new();
        for seed in 1..=args.runs {
            let line = child_run(spec.name, seed, false, args)?;
            attempted += count(&line, "attempted");
            failed += count(&line, "failed");
            lines.push(line);
        }
        let end_to_end = summarise(spec.name, &lines, END_TO_END.iter())?;
        let client = summarise(spec.name, &lines, client_defs())?;
        let traced = child_run(spec.name, 1, true, args)?;
        attempted += count(&traced, "attempted");
        failed += count(&traced, "failed");
        let mut per_layer = Json::obj();
        for def in PER_LAYER {
            let value = metric_value(&traced, def.name)
                .ok_or_else(|| format!("{}: traced run did not report {}", spec.name, def.name))?;
            per_layer = per_layer.with(
                def.name,
                Json::obj().with("unit", def.unit).with("value", value),
            );
        }
        any_failed += failed;
        workloads_doc = workloads_doc.with(
            spec.name,
            Json::obj()
                .with("wall_s", wall.elapsed().as_secs_f64())
                .with("attempted", attempted)
                .with("failed", failed)
                .with("end_to_end", end_to_end)
                .with("client", client)
                .with("per_layer", per_layer),
        );
        eprintln!(
            "sks_bench: suite: {} done in {:.0}s",
            spec.name,
            wall.elapsed().as_secs_f64()
        );
    }
    std::fs::create_dir_all(&args.dir).map_err(|e| format!("{}: {e}", args.dir.display()))?;
    let meta = Json::obj()
        .with("first_seed", 1u64)
        .with("runs", args.runs)
        .with("seconds", args.seconds)
        .with("commit", command_output("git", &["rev-parse", "HEAD"]))
        .with("rustc", command_output("rustc", &["-V"]))
        .with(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get()) as u64,
        )
        .with("scratch_dir", args.dir.display().to_string())
        .with("scratch_fs", filesystem_of(&args.dir))
        .with("total_wall_s", total.elapsed().as_secs_f64());
    let doc = Json::obj()
        .with("tool", "sks_bench")
        .with("smoke", args.smoke)
        .with("meta", meta)
        .with("workloads", workloads_doc);
    std::fs::write(out, doc.render_pretty()).map_err(|e| format!("{}: {e}", out.display()))?;
    std::fs::remove_dir(&args.dir).ok(); // only if the runs left it empty
    eprintln!(
        "sks_bench: suite wrote {} after {:.0}s",
        out.display(),
        total.elapsed().as_secs_f64()
    );
    Ok(if any_failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if doc.get("tool").and_then(Json::as_str) != Some("sks_bench") {
        return Err(format!(
            "{} is not an sks_bench result file",
            path.display()
        ));
    }
    if doc.get("smoke").and_then(Json::as_bool) != Some(false) {
        return Err(format!(
            "{} is a smoke run; smoke numbers are never compared",
            path.display()
        ));
    }
    Ok(doc)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// B against base A for one end-to-end metric: `unresolved` when either
/// side's run-to-run spread is wider than the bound, `worse` when B's
/// median is worse than A's by more than the bound.
pub fn judge(
    better: Better,
    bound: f64,
    (a_median, a_spread): (f64, f64),
    (b_median, b_spread): (f64, f64),
) -> Verdict {
    if a_spread > bound || b_spread > bound {
        return Verdict::Unresolved;
    }
    let worse_by = match better {
        Better::Lower => (b_median - a_median) / a_median,
        Better::Higher => (a_median - b_median) / a_median,
    };
    if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// One table of bounded metrics, B against base A; returns how many
/// rows are not `ok`. Rows that read 0 on both sides do not apply to
/// the workload and are left out.
fn bounded_table<'a>(a: &Json, b: &Json, defs: impl Iterator<Item = &'a MetricDef>) -> u64 {
    println!(
        "  {:<18} {:>14} {:>8} {:>14} {:>8} {:>8} {:>6}  verdict",
        "metric", "A median", "A iqr", "B median", "B iqr", "ratio", "bound"
    );
    let mut bad = 0;
    for def in defs {
        let side = |section: &Json| -> Option<(f64, f64)> {
            let m = section.get(def.name)?;
            Some((m.get("median")?.as_f64()?, m.get("spread")?.as_f64()?))
        };
        let (Some(sa), Some(sb)) = (side(a), side(b)) else {
            println!("  {:<18} missing", def.name);
            bad += 1;
            continue;
        };
        if sa.0 == 0.0 && sb.0 == 0.0 {
            continue;
        }
        let bound = def.bound.expect("bounded metrics carry a bound");
        let verdict = judge(def.better, bound, sa, sb);
        if verdict != Verdict::Ok {
            bad += 1;
        }
        println!(
            "  {:<18} {:>14.4} {:>7.1}% {:>14.4} {:>7.1}% {:>8.4} {:>5.0}%  {}",
            format!("{} [{}]", def.name, def.unit),
            sa.0,
            sa.1 * 100.0,
            sb.0,
            sb.1 * 100.0,
            sb.0 / sa.0,
            bound * 100.0,
            match verdict {
                Verdict::Ok => "ok",
                Verdict::Worse => "WORSE",
                Verdict::Unresolved => "UNRESOLVED (spread wider than the bound)",
            }
        );
    }
    bad
}

/// `compare A.json B.json`: A is the base. Exit code 1 if any metric is
/// `worse` or `unresolved`, or any exact metric differs.
pub fn run(a_path: &Path, b_path: &Path) -> Result<ExitCode, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    for (label, doc) in [("A", &a), ("B", &b)] {
        let meta = doc.get("meta");
        let field = |k: &str| {
            meta.and_then(|m| m.get(k))
                .map_or("?".to_string(), |v| match v {
                    Json::Str(s) => s.clone(),
                    other => other.render(),
                })
        };
        println!(
            "{label}: commit {} · {} · nproc {} · {} · {} runs × {}s · {:.0}s total",
            field("commit"),
            field("rustc"),
            field("nproc"),
            field("scratch_fs"),
            field("runs"),
            field("seconds"),
            meta.and_then(|m| m.get("total_wall_s"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        );
    }
    let mut bad = 0u64;
    for spec in &SPECS {
        let section = |doc: &Json, part: &str| -> Option<Json> {
            doc.get("workloads")?.get(spec.name)?.get(part).cloned()
        };
        let (Some(a_e2e), Some(b_e2e)) = (section(&a, "end_to_end"), section(&b, "end_to_end"))
        else {
            println!("\n{}: missing from one file, skipped", spec.name);
            bad += 1;
            continue;
        };
        println!(
            "\n{} — end to end, the driver's bounds (ratio = B ÷ A, base A)",
            spec.name
        );
        bad += bounded_table(&a_e2e, &b_e2e, END_TO_END.iter());
        if let (Some(a_client), Some(b_client)) = (section(&a, "client"), section(&b, "client")) {
            println!("{} — client-visible, the issue's bounds", spec.name);
            bad += bounded_table(&a_client, &b_client, client_defs());
        }
        let (Some(a_layers), Some(b_layers)) = (section(&a, "per_layer"), section(&b, "per_layer"))
        else {
            continue;
        };
        println!("{} — per layer (traced run, seed 1)", spec.name);
        for def in PER_LAYER {
            let value = |layers: &Json| layers.get(def.name)?.get("value")?.as_f64();
            let (Some(va), Some(vb)) = (value(&a_layers), value(&b_layers)) else {
                continue;
            };
            if va == 0.0 && vb == 0.0 {
                continue; // does not apply to this workload
            }
            // Counters repeat exactly only with one client and no timers.
            let exact = def.exact && spec.clients == 1;
            let note = if !exact {
                ""
            } else if va == vb {
                "exact"
            } else {
                bad += 1;
                "exact: DIFFERS"
            };
            let ratio = if va == 0.0 {
                "-".to_string()
            } else {
                format!("{:.4}", vb / va)
            };
            println!(
                "  {:<46} {:>16.4} {:>16.4} {:>8}  {}",
                format!("{} [{}]", def.name, def.unit),
                va,
                vb,
                ratio,
                note
            );
        }
    }
    println!(
        "\n{}",
        if bad == 0 {
            "compare: every bounded metric within its bound, every exact metric equal".to_string()
        } else {
            format!("compare: {bad} row(s) worse, unresolved, missing or differing")
        }
    );
    Ok(if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let j = |better, a, b| judge(better, 0.10, a, b);
        assert_eq!(j(Better::Lower, (100.0, 0.02), (105.0, 0.02)), Verdict::Ok);
        assert_eq!(
            j(Better::Lower, (100.0, 0.02), (111.0, 0.02)),
            Verdict::Worse
        );
        assert_eq!(j(Better::Lower, (100.0, 0.02), (50.0, 0.02)), Verdict::Ok);
        assert_eq!(
            j(Better::Higher, (100.0, 0.02), (89.0, 0.02)),
            Verdict::Worse
        );
        assert_eq!(j(Better::Higher, (100.0, 0.02), (200.0, 0.02)), Verdict::Ok);
        assert_eq!(
            j(Better::Lower, (100.0, 0.12), (100.0, 0.02)),
            Verdict::Unresolved
        );
    }

    #[test]
    fn exact_flags_are_only_on_per_layer_metrics() {
        assert!(END_TO_END.iter().all(|d| !d.exact));
        assert!(PER_LAYER.iter().any(|d| d.exact));
    }
}
