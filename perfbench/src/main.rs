//! The couplink benchmark: coupled steps per second, import latency,
//! buffering memory and set-up time on four workloads, plus a per-layer
//! ledger measured from outside the library.
//!
//! ```text
//! sh perfbench/run.sh \
//!     --workload <fabric_buddy|net_bulk|net_ctrl|net_durable|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` prints the per-layer metrics instead. The last
//! line of standard output is one JSON object (`correct`, `attempted`,
//! `failed`, `metrics`); the exit code is non-zero when any correctness
//! check failed. See `perfbench/README.md` for what each workload and
//! metric means.

mod fabric;
mod layers;
mod net;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use stats::RunResult;

/// Scratch directory for socket files and journals, relative to the
/// working directory so socket paths stay short wherever the checkout is.
const SCRATCH: &str = ".perfbench-tmp";

/// Command-line options of one benchmark run.
pub struct Opts {
    /// Workload seed: payload values, the slow rank, the time origin.
    pub seed: u64,
    /// Measuring time of the run, in seconds.
    pub seconds: f64,
    /// Measure the per-layer metrics instead of the end-to-end ones.
    pub trace: bool,
    /// Directory for socket files and journals.
    pub scratch: PathBuf,
}

/// Every workload, in the order `--workload all` runs them. Only the first
/// two are gated in `BENCHMARK.json`: the socket workloads with many
/// wake-ups per step swing too far with the host's load (see the README).
const WORKLOADS: [&str; 4] = ["fabric_buddy", "net_bulk", "net_ctrl", "net_durable"];

fn parse_bench_args(args: &[String]) -> Result<(String, Opts), String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{what} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")?.clone()),
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (want one of {WORKLOADS:?} or all)"
        ));
    }
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], got {seconds}"));
    }
    Ok((
        workload,
        Opts {
            seed,
            seconds,
            trace,
            scratch: PathBuf::from(SCRATCH),
        },
    ))
}

fn run_workload(name: &str, opts: &Opts) -> RunResult {
    match name {
        "fabric_buddy" => fabric::run(opts),
        "net_bulk" => net::run(&net::BULK, opts),
        "net_ctrl" => net::run(&net::CTRL, opts),
        "net_durable" => net::run(&net::DURABLE, opts),
        _ => unreachable!("workload names are validated at parse time"),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse_bench_args(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("couplink-perf: {e}");
            return ExitCode::from(2);
        }
    };
    // Socket sessions and journals live under the scratch directory; the
    // library places them under the temporary directory, so point it here
    // before any thread or child process starts.
    let _ = std::fs::remove_dir_all(&opts.scratch);
    if let Err(e) = std::fs::create_dir_all(&opts.scratch) {
        eprintln!("couplink-perf: creating {}: {e}", opts.scratch.display());
        return ExitCode::from(2);
    }
    std::env::set_var("TMPDIR", &opts.scratch);

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# couplink-perf workload={workload} seed={} seconds={} trace={} cores={cores}",
        opts.seed, opts.seconds, opts.trace as u8
    );
    let result = if workload == "all" {
        // Every workload in turn; the final line merges their metrics
        // under `<workload>.<metric>`.
        let mut all = RunResult::default();
        for name in WORKLOADS {
            let r = run_workload(name, &opts);
            r.print(name);
            for (m, v, u) in &r.metrics {
                all.metric(&format!("{name}.{m}"), *v, u);
            }
            all.attempted += r.attempted;
            all.failed += r.failed;
        }
        all
    } else {
        run_workload(&workload, &opts)
    };
    let _ = std::fs::remove_dir_all(&opts.scratch);
    result.print(&workload);
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
