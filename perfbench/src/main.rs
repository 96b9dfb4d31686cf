//! polyclip benchmark: three workloads, each checked against computations
//! made apart from the engine, with end-to-end metrics from an untraced run
//! and per-layer metrics from a traced one. See README.md.
//!
//! ```text
//! perfbench --workload <gis_overlay|crossing_pair|window_service>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--small] [--server-bin <path>] [--spans-dir <dir>]
//! ```
//!
//! The last line of standard output is the result record.

mod batch;
mod inputs;
mod integrate;
mod replay;
mod service;
mod trace;
mod util;

use std::path::PathBuf;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub small: bool,
    pub sizes: inputs::Sizes,
    pub server_bin: Option<PathBuf>,
    pub spans_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        small: false,
        sizes: inputs::FULL,
        server_bin: None,
        spans_dir: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => a.trace = value()? == "1",
            "--small" => {
                a.small = true;
                a.sizes = inputs::SMALL;
            }
            "--server-bin" => a.server_bin = Some(PathBuf::from(value()?)),
            "--spans-dir" => a.spans_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// The host record: pieces, threads, cores, revision, build profile and
/// compiler, on its own line before the result.
pub fn print_host(args: &Args, pieces: usize) {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    println!(
        "host: {{\"workload\": \"{}\", \"seed\": {}, \"pieces\": {pieces}, \"threads\": {cores}, \
         \"nproc\": {cores}, \"git_rev\": \"{}\", \"profile\": \"{}\", \"rustc\": \"{}\", \"small\": {}}}",
        args.workload,
        args.seed,
        env("PERFBENCH_GIT_REV"),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        env("PERFBENCH_RUSTC"),
        args.small
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "gis_overlay" => batch::gis_overlay(&args),
        "crossing_pair" => batch::crossing_pair(&args),
        "window_service" => service::window_service(&args),
        other => {
            eprintln!("error: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    println!("{}", outcome.render());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(workload: &str) -> Args {
        Args {
            workload: workload.into(),
            seed: 5,
            seconds: 0.05,
            trace: false,
            small: true,
            sizes: inputs::SMALL,
            server_bin: None,
            spans_dir: None,
        }
    }

    #[test]
    fn small_gis_overlay_passes_its_checks() {
        let out = batch::gis_overlay(&small("gis_overlay"));
        assert!(out.correct && out.failed == 0 && out.attempted >= 4);
        assert!(out
            .metrics
            .iter()
            .all(|m| m.value.is_finite() && m.value > 0.0));
    }

    #[test]
    fn small_crossing_pair_passes_its_checks_and_traces_every_layer() {
        let mut args = small("crossing_pair");
        args.trace = true;
        let out = batch::crossing_pair(&args);
        assert!(out.correct && out.failed == 0);
        assert_eq!(out.metrics.len(), trace::PER_LAYER.len());
        let get = |n: &str| out.metrics.iter().find(|m| m.name == n).unwrap().value;
        assert_eq!(get("core.engine.stage_groups_matched"), 3.0);
        assert_eq!(get("sweep.k"), 4.0 * 36.0);
    }
}
