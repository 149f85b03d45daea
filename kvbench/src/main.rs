//! The repository benchmark: three workloads against the public surfaces
//! of `kvd-server`, `kvd-core` and `kv-direct`.
//!
//! ```text
//! kvbench --workload <tcp-ycsb-b|sim-par2-ycsb-a|sim-seq-zipf-shift>
//!         --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it reports the per-layer metrics from spans recorded
//! around the calls into each layer, plus the tracing overhead and
//! coverage. Either way every output is checked against a model, and the
//! last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is 0
//! only when every check passed. See `NOTES.md` beside this package.

mod layers;
mod ops;
mod report;
mod sched;
mod sim;
mod stats;
mod tcp;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{result_json, END_TO_END, PER_LAYER};

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: u64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// CPUs this process may run on, read before any thread is pinned.
    pub nproc: usize,
}

const USAGE: &str = "usage: kvbench --workload <tcp-ycsb-b|sim-par2-ycsb-a|sim-seq-zipf-shift> \
                     --seed <n> --seconds <s> --trace <0|1>";

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let val = it.next().ok_or(format!("{flag} needs a value"))?;
            let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
            match flag.as_str() {
                "--workload" => workload = Some(val),
                "--seed" => seed = Some(num(&val)?),
                "--seconds" => seconds = Some(num(&val)?.max(1)),
                "--trace" => match val.as_str() {
                    "0" => trace = Some(false),
                    "1" => trace = Some(true),
                    _ => return Err(format!("--trace takes 0 or 1, got {val}")),
                },
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(10),
            trace: trace.unwrap_or(false),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        })
    }
}

/// Writes the traced run's spans and notes their per-layer summary. The
/// file goes under the build directory when cargo names one, so it stays
/// inside the checkout; each traced run replaces its workload's file,
/// which keeps the disk use bounded.
pub fn write_trace(tracer: &trace::Tracer, args: &Args, out: &mut report::Outcome) {
    let path = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("kvbench-traces")
        .join(format!("{}.tsv", args.workload));
    let title = format!("workload={} seed={}", args.workload, args.seed);
    if let Err(err) = tracer.write_tsv(&path, &title) {
        out.problems
            .push(format!("writing {}: {err}", path.display()));
    }
    out.note("trace.spans", tracer.spans().len(), "");
    out.notes.extend(tracer.summary_lines());
    out.note("trace.file", path.display(), "");
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = report::host_fingerprint(args.nproc);
    let outcome = match args.workload.as_str() {
        "tcp-ycsb-b" => tcp::run(&args),
        "sim-par2-ycsb-a" => sim::run(sim::EngineKind::Par2, &args),
        "sim-seq-zipf-shift" => sim::run(sim::EngineKind::Seq, &args),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    println!("workload = {}", args.workload);
    println!("seed = {}", args.seed);
    println!("trace = {}", u8::from(args.trace));
    for line in &host {
        println!("{line}");
    }
    for line in &outcome.notes {
        println!("{line}");
    }
    for p in &outcome.problems {
        println!("CHECK FAILED: {p}");
    }
    let (values, list) = if args.trace {
        (&outcome.layers, PER_LAYER)
    } else {
        (&outcome.e2e, END_TO_END)
    };
    for (name, unit) in list {
        println!("{name} = {} {unit}", values.get(name).unwrap_or(0.0));
    }
    println!(
        "attempted = {}  failed = {}  correct = {}",
        outcome.attempted,
        outcome.failed,
        outcome.correct()
    );
    println!("{}", result_json(&outcome, values, list));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_driver_command_line() {
        let a = Args::parse(
            [
                "--workload",
                "tcp-ycsb-b",
                "--seed",
                "3",
                "--seconds",
                "10",
                "--trace",
                "1",
            ]
            .map(String::from)
            .into_iter(),
        )
        .unwrap();
        assert_eq!(a.workload, "tcp-ycsb-b");
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10, true));
        assert!(Args::parse(["--trace", "2"].map(String::from).into_iter()).is_err());
    }
}
