//! The repository benchmark: four workloads over the SSR reproduction,
//! end-to-end metrics untraced and a per-layer split traced. See
//! `perfbench/README.md` for why each workload exists and which layer
//! metric should move which end-to-end metric.
//!
//! Prints a table on stderr and, as the last line of stdout, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod engine;
mod layers;
mod report;
mod route;
mod ssr;

use std::process::ExitCode;

use layers::LayerTally;
use report::{E2e, Report};
use ssr::Ssr;

const USAGE: &str = "\
usage: perfbench --workload NAME --seed N [--seconds S] [--trace 0|1]

  --workload  bootstrap | observed_chaos | routing | engine_powerlaw
  --seed      derives every input of the run (graphs, labels, corruption,
              queries); the same seed gives the same inputs
  --seconds   how long the run measures (default 10); a batch workload
              always completes its seed set at least once
  --trace     0: end-to-end metrics (default); 1: per-layer split
  --help      print this and exit
";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Ssr(Ssr),
    EnginePowerlaw,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "bootstrap" => Workload::Ssr(Ssr::Bootstrap),
            "observed_chaos" => Workload::Ssr(Ssr::ObservedChaos),
            "routing" => Workload::Ssr(Ssr::Routing),
            "engine_powerlaw" => Workload::EnginePowerlaw,
            _ => return None,
        })
    }
}

#[derive(Debug)]
struct Cli {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// Parses the command line; `Ok(None)` means `--help`. Unknown flags,
/// repeated flags, missing values and bad values are errors.
fn parse(args: &[String]) -> Result<Option<Cli>, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--help" || arg == "-h" {
            return Ok(None);
        }
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        let slot: &mut Option<String> = match flag {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            _ => return Err(format!("unknown argument {arg:?}")),
        };
        let value = match inline {
            Some(v) => v,
            None => it
                .next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))?,
        };
        if slot.replace(value).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = seed
        .ok_or("--seed is required")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = match seconds {
        None => 10.0,
        Some(s) => match s.parse::<f64>() {
            Ok(v) if v.is_finite() && v > 0.0 => v,
            _ => return Err(format!("--seconds: expected a positive number, got {s:?}")),
        },
    };
    let trace = match trace.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(t) => return Err(format!("--trace: expected 0 or 1, got {t:?}")),
    };
    Ok(Some(Cli {
        workload,
        seed,
        seconds,
        trace,
    }))
}

fn run(cli: &Cli) -> Report {
    let mut report = Report::default();
    let mut e = E2e::default();
    let mut t = LayerTally::default();
    let (seed, seconds) = (cli.seed, cli.seconds);
    match (cli.workload, cli.trace) {
        (Workload::Ssr(Ssr::Routing), false) => {
            ssr::run_routing(seed, seconds, &mut e, &mut report)
        }
        (Workload::Ssr(Ssr::Routing), true) => {
            ssr::trace_routing(seed, seconds, &mut e, &mut t, &mut report)
        }
        (Workload::Ssr(kind), false) => ssr::run_batch(kind, seed, seconds, &mut e, &mut report),
        (Workload::Ssr(kind), true) => ssr::trace_batch(kind, seed, &mut e, &mut t, &mut report),
        (Workload::EnginePowerlaw, traced) => {
            engine::run_workload(seed, seconds, traced, &mut e, &mut t, &mut report)
        }
    }
    if cli.trace {
        t.emit(&e, &mut report);
    } else {
        e.emit(&mut report);
    }
    report
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(Some(cli)) => cli,
        Ok(None) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&cli);
    eprintln!(
        "{:?} seed {} trace {}: attempted {}, failed {}",
        cli.workload, cli.seed, cli.trace, report.attempted, report.failed
    );
    eprint!("{}", report.table());
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let cli = parse(&args("--workload routing --seed 7 --seconds 12 --trace 1"))
            .unwrap()
            .unwrap();
        assert_eq!(cli.workload, Workload::Ssr(Ssr::Routing));
        assert_eq!((cli.seed, cli.seconds, cli.trace), (7, 12.0, true));
    }

    #[test]
    fn help_wins_over_everything_else() {
        assert!(parse(&args("--workload nope --help")).unwrap().is_none());
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload bootstrap --seed 1 --quick",
            "--workload bootstrap --seed 1 extra",
            "--workload bootstrap",
            "--workload nope --seed 1",
            "--workload bootstrap --seed 1 --seed 2",
            "--workload bootstrap --seed x",
            "--workload bootstrap --seed 1 --trace 2",
            "--workload bootstrap --seed 1 --seconds 0",
            "--workload bootstrap --seed",
        ] {
            assert!(parse(&args(bad)).is_err(), "accepted {bad:?}");
        }
    }
}
