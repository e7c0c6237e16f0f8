//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload scan-fast|arrivals-paper|reproduce-b1 \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Each workload generates its inputs from
//! the seed, drives the program through its public API, checks every
//! output, and prints a report followed by one JSON line: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. The
//! exit code is 1 when any output check fails and 2 when the run could not
//! complete. See README.md for the workloads and metrics.

mod layers;
mod load;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::Report;
use workloads::Settings;

/// Output directory for checkpoints and trace files, relative to the
/// directory the benchmark runs in (the repository root).
const OUT_DIR: &str = ".perfbench_out";

struct Args {
    workload: String,
    settings: Settings,
}

fn value<'a>(args: &'a [String], flag: &str) -> Result<&'a str, String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("missing {flag} <value>"))
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let workload = value(args, "--workload")?.to_string();
    let seed = value(args, "--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = value(args, "--seconds")?
        .parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s > 0.0)
        .ok_or("--seconds must be a positive number")?;
    let trace = match value(args, "--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        settings: Settings {
            seed,
            seconds,
            trace,
            run_dir: Path::new(OUT_DIR).join(format!("run-{}", std::process::id())),
            traces: PathBuf::from(OUT_DIR),
        },
    })
}

/// The commit of the checkout when it is a git repository, read from
/// `.git` without running git.
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown (not a git checkout)".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

/// FNV-1a over every `.rs` and `Cargo.toml` file under `crates/` and
/// `perfbench/`, in sorted path order: identifies the measured source
/// when the checkout carries no git metadata.
fn source_fingerprint(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, files);
                }
            } else if path.extension().is_some_and(|e| e == "rs")
                || path.file_name().is_some_and(|n| n == "Cargo.toml")
            {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    walk(&root.join("perfbench"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for b in std::fs::read(f).unwrap_or_default() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x} over {} files", files.len())
}

fn stamp(args: &Args) -> Vec<(&'static str, String)> {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "(unset)".into());
    let (workers, threads) = workloads::server_sizing();
    let root = Path::new(".");
    vec![
        ("workload", args.workload.clone()),
        ("seed", args.settings.seed.to_string()),
        ("seconds", args.settings.seconds.to_string()),
        ("trace", u8::from(args.settings.trace).to_string()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        ("simd_active_level", simd::active_level().name().to_string()),
        ("VITAL_SIMD", env("VITAL_SIMD")),
        ("VITAL_THREADS", env("VITAL_THREADS")),
        (
            "compute_threads_training",
            workloads::TRAIN_THREADS.to_string(),
        ),
        (
            "compute_threads_offline_eval",
            parallel::num_threads().to_string(),
        ),
        (
            "compute_threads_per_query",
            workloads::SERVER_THREADS.to_string(),
        ),
        ("server_workers", workers.to_string()),
        ("server_threads_per_batch", threads.to_string()),
        ("git_commit", git_commit(root)),
        ("source_fnv", source_fingerprint(root)),
    ]
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload scan-fast|arrivals-paper|reproduce-b1 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.settings.run_dir) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        return ExitCode::from(2);
    }
    let mut report = Report::default();
    let run = match args.workload.as_str() {
        "scan-fast" => workloads::scan_fast(&args.settings, &mut report),
        "arrivals-paper" => workloads::arrivals_paper(&args.settings, &mut report),
        "reproduce-b1" => workloads::reproduce_b1(&args.settings, &mut report),
        other => Err(format!("unknown workload {other:?}")),
    };
    // Checkpoints are inputs of this run only; trace files stay.
    let _ = std::fs::remove_dir_all(&args.settings.run_dir);
    if let Err(e) = run {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        return ExitCode::from(2);
    }
    report.print(args.settings.trace, &stamp(&args));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: output check failed");
        ExitCode::from(1)
    }
}
