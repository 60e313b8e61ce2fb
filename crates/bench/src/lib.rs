//! Shared helpers for the experiment binaries.
//!
//! Each binary under `src/bin/` regenerates one figure or table of the
//! reproduction (see DESIGN.md's experiment index). They share a minimal
//! command-line convention:
//!
//! * `--seeds K` — repetitions per sweep point (default per experiment),
//! * `--workers N` — sweep fan-out width (`0` = every hardware thread;
//!   default: cores minus one). Output bytes never depend on this — see
//!   docs/SWEEPS.md,
//! * `--matrix SPEC` — override the scenario × n × seed sweep dimensions
//!   (`scenario=a,b;n=50,100;seeds=4`; see
//!   [`ssr_workloads::Matrix::override_with`]),
//! * `--csv PATH` — additionally write the table as CSV,
//! * `--quick` — smaller sweep for smoke-testing,
//! * experiment-specific flags documented in each binary's header.
//!
//! Each binary declares the flags it reads as a [`Flag`] list and parses
//! with [`Args::parse`]: `--help`/`-h` prints the usage and exits 0 before
//! any work is done, and an undeclared flag exits 2, so a mistyped flag
//! (`--seed` for `--seeds`) never silently runs the defaults.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// One declared command-line flag of a binary.
#[derive(Clone, Copy, Debug)]
pub struct Flag {
    /// The name without its leading `--`.
    pub name: &'static str,
    /// Placeholder for the value the flag takes; `None` for a switch.
    pub value: Option<&'static str>,
    /// One line for the `--help` listing.
    pub help: &'static str,
}

impl Flag {
    /// A flag that takes no value.
    pub const fn switch(name: &'static str, help: &'static str) -> Flag {
        Flag {
            name,
            value: None,
            help,
        }
    }

    /// A flag followed by one value.
    pub const fn value(name: &'static str, value: &'static str, help: &'static str) -> Flag {
        Flag {
            name,
            value: Some(value),
            help,
        }
    }
}

/// `--quick`: the smaller smoke-test sweep.
pub const QUICK: Flag = Flag::switch("quick", "smaller sweep for smoke-testing");
/// `--seeds K`: repetitions per sweep point.
pub const SEEDS: Flag = Flag::value("seeds", "K", "repetitions per sweep point");
/// `--workers N`: sweep fan-out width.
pub const WORKERS: Flag = Flag::value(
    "workers",
    "N",
    "sweep fan-out width (0 = every hardware thread; default cores minus one)",
);
/// `--matrix SPEC`: sweep-dimension override.
pub const MATRIX: Flag = Flag::value(
    "matrix",
    "SPEC",
    "override the sweep, e.g. 'scenario=a,b;n=50,100;seeds=4'",
);
/// `--csv PATH`: also write the table as CSV.
pub const CSV: Flag = Flag::value("csv", "PATH", "also write the table as CSV");

/// Why a command line was not accepted.
#[derive(Debug, PartialEq, Eq)]
enum CliError {
    /// `--help` or `-h` was given.
    Help,
    /// An undeclared argument, or a value flag with no value.
    Invalid(String),
}

/// The `--help` text for a binary with the given flags.
fn usage(bin: &str, about: &str, flags: &[Flag]) -> String {
    let mut rows: Vec<(String, &str)> = flags
        .iter()
        .map(|f| match f.value {
            Some(v) => (format!("--{} {v}", f.name), f.help),
            None => (format!("--{}", f.name), f.help),
        })
        .collect();
    rows.push(("-h, --help".to_string(), "print this and exit"));
    let width = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let mut out = format!("{about}\n\nusage: {bin} [options]\n\noptions:\n");
    for (left, help) in rows {
        out.push_str(&format!("  {left:<width$}  {help}\n"));
    }
    out
}

/// Parsed command-line arguments (flag / key-value convention).
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Captures the process arguments and checks them against the
    /// binary's declared `flags`. On `--help`/`-h` prints the usage to
    /// stdout and exits 0; on an undeclared argument prints the error and
    /// the usage to stderr and exits 2. Either way nothing else runs.
    pub fn parse(bin: &str, about: &str, flags: &[Flag]) -> Args {
        let args = Args {
            raw: std::env::args().skip(1).collect(),
        };
        match args.check(flags) {
            Ok(()) => args,
            Err(CliError::Help) => {
                print!("{}", usage(bin, about, flags));
                std::process::exit(0)
            }
            Err(CliError::Invalid(msg)) => {
                eprint!("{bin}: {msg}\n\n{}", usage(bin, about, flags));
                std::process::exit(2)
            }
        }
    }

    /// Builds from an explicit list (tests).
    pub fn from(raw: &[&str]) -> Args {
        Args {
            raw: raw.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Checks every argument against `flags`: each must be a declared
    /// `--name`, and a value flag must be followed by its value.
    fn check(&self, flags: &[Flag]) -> Result<(), CliError> {
        if self.raw.iter().any(|a| a == "--help" || a == "-h") {
            return Err(CliError::Help);
        }
        let mut rest = self.raw.iter();
        while let Some(arg) = rest.next() {
            let flag = arg
                .strip_prefix("--")
                .and_then(|name| flags.iter().find(|f| f.name == name))
                .ok_or_else(|| CliError::Invalid(format!("unknown argument '{arg}'")))?;
            if flag.value.is_some() && rest.next().is_none() {
                return Err(CliError::Invalid(format!("{arg} needs a value")));
            }
        }
        Ok(())
    }

    /// `true` if `--name` is present.
    pub fn flag(&self, name: &str) -> bool {
        let want = format!("--{name}");
        self.raw.iter().any(|a| a == &want)
    }

    /// The value following `--name`, if present.
    pub fn opt(&self, name: &str) -> Option<&str> {
        let want = format!("--{name}");
        self.raw
            .iter()
            .position(|a| a == &want)
            .and_then(|i| self.raw.get(i + 1))
            .map(|s| s.as_str())
    }

    /// Parses the value following `--name`.
    ///
    /// # Panics
    /// Panics with a readable message when the value does not parse.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T
    where
        T::Err: std::fmt::Debug,
    {
        match self.opt(name) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|e| panic!("--{name} {v}: {e:?}")),
        }
    }

    /// CSV output path, if requested.
    pub fn csv(&self) -> Option<&str> {
        self.opt("csv")
    }

    /// Quick (smoke-test) mode.
    pub fn quick(&self) -> bool {
        self.flag("quick")
    }

    /// Sweep fan-out width: `--workers N`, where `0` means every hardware
    /// thread; defaults to cores minus one. Worker count affects wall
    /// time only — never output bytes (docs/SWEEPS.md).
    pub fn workers(&self) -> usize {
        match self.get("workers", ssr_workloads::default_workers()) {
            0 => ssr_workloads::orchestrator::max_workers(),
            k => k,
        }
    }
}

/// Resolves a binary's sweep matrix: the experiment's defaults overridden
/// by `--matrix SPEC`, with the *resolved* dimensions recorded in the
/// manifest config. The worker count is deliberately **not** recorded —
/// the manifest must stay byte-identical across `--workers`, and the
/// matrix (not the pool size) is what determines the bytes.
///
/// # Panics
/// Panics with a readable message when the spec does not parse or names an
/// unknown scenario.
pub fn resolve_matrix(
    args: &Args,
    man: &mut ssr_obs::Manifest,
    mut matrix: ssr_workloads::Matrix,
) -> ssr_workloads::Matrix {
    if let Some(spec) = args.opt("matrix") {
        if let Err(e) = matrix.override_with(spec) {
            panic!("--matrix {spec}: {e}");
        }
    }
    man.config("matrix", matrix.describe());
    matrix
}

/// Starts a run manifest for `exp`, pre-filled with the shared CLI
/// configuration (`--quick`, `--seeds`, `--csv`) so every binary records
/// the flags that shaped its sweep the same way.
pub fn manifest(args: &Args, exp: &str) -> ssr_obs::Manifest {
    let mut man = ssr_obs::Manifest::new(exp);
    man.config("quick", args.quick());
    if let Some(seeds) = args.opt("seeds") {
        man.config("seeds", seeds);
    }
    if let Some(csv) = args.csv() {
        man.config("csv", csv);
    }
    man
}

/// Copies a bootstrap convergence timeline (as recorded by the probe
/// subsystem) into a manifest, translating ring shapes to their stable
/// labels.
pub fn record_bootstrap_timeline(
    man: &mut ssr_obs::Manifest,
    timeline: &[ssr_core::ConvergencePoint],
) {
    for p in timeline {
        man.timeline_point(ssr_obs::TimelinePoint {
            tick: p.tick,
            shape: p.shape.label(),
            locally_consistent: p.locally_consistent as u64,
            nodes: p.nodes as u64,
            churn: p.succ_churn as u64,
        });
    }
}

/// Stamps the wall time and writes the manifest to its conventional
/// location (`results/<exp>.manifest.json`). A write failure is reported
/// but never aborts the experiment — manifests are provenance, not results.
pub fn emit_manifest(man: &mut ssr_obs::Manifest, started: std::time::Instant) {
    man.wall_ms(started.elapsed().as_millis() as u64);
    match man.write_default() {
        Ok(path) => println!("(manifest written to {})", path.display()),
        Err(e) => eprintln!("warning: manifest not written: {e}"),
    }
}

/// Formats a large count with thousands separators for readability.
pub fn fmt_count(x: u64) -> String {
    let s = x.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push('_');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_and_options() {
        let a = Args::from(&["--quick", "--seeds", "5", "--csv", "/tmp/x.csv"]);
        assert!(a.quick());
        assert!(!a.flag("missing"));
        assert_eq!(a.get("seeds", 10usize), 5);
        assert_eq!(a.get("other", 7u64), 7);
        assert_eq!(a.csv(), Some("/tmp/x.csv"));
    }

    const SWEEP: &[Flag] = &[QUICK, SEEDS, WORKERS, MATRIX, CSV];

    #[test]
    fn declared_flags_pass_the_check() {
        let a = Args::from(&[
            "--quick", "--seeds", "5", "--matrix", "n=50", "--csv", "x.csv",
        ]);
        assert_eq!(a.check(SWEEP), Ok(()));
        assert_eq!(Args::from(&[]).check(SWEEP), Ok(()));
        // a value is taken verbatim, even when it looks like a flag
        assert_eq!(Args::from(&["--csv", "--quick"]).check(SWEEP), Ok(()));
    }

    #[test]
    fn help_wins_over_everything_else() {
        for raw in [
            &["--help"][..],
            &["-h"],
            &["--quick", "--help"],
            &["--bogus", "-h"],
        ] {
            assert_eq!(Args::from(raw).check(SWEEP), Err(CliError::Help), "{raw:?}");
        }
    }

    #[test]
    fn unknown_or_incomplete_arguments_are_rejected() {
        let invalid =
            |raw: &[&str]| matches!(Args::from(raw).check(SWEEP), Err(CliError::Invalid(_)));
        // the classic typo: --seed on a binary that takes --seeds
        assert!(invalid(&["--seed", "3"]));
        assert!(invalid(&["--seeds"]));
        assert!(invalid(&["--seeds=3"]));
        assert!(invalid(&["quick"]));
        assert!(invalid(&["--quick", "5"]));
        assert_eq!(
            Args::from(&["--out", "x.json"]).check(SWEEP),
            Err(CliError::Invalid("unknown argument '--out'".into()))
        );
    }

    #[test]
    fn usage_lists_every_declared_flag() {
        let text = usage("exp_x", "E0: a test binary.", SWEEP);
        assert!(text.starts_with("E0: a test binary.\n\nusage: exp_x [options]"));
        for needle in [
            "--quick",
            "--seeds K",
            "--workers N",
            "--matrix SPEC",
            "--csv PATH",
            "-h, --help",
        ] {
            assert!(text.contains(needle), "{needle} missing from:\n{text}");
        }
    }

    #[test]
    fn manifest_prefills_shared_config() {
        let a = Args::from(&["--quick", "--seeds", "5"]);
        let mut man = manifest(&a, "exp_x");
        record_bootstrap_timeline(
            &mut man,
            &[ssr_core::ConvergencePoint {
                tick: 4,
                shape: ssr_core::consistency::RingShape::Loopy(2),
                locally_consistent: 3,
                nodes: 8,
                succ_churn: 1,
            }],
        );
        let v = ssr_obs::parse(&man.to_json()).unwrap();
        let config = v.get("config").unwrap();
        assert_eq!(config.get("quick").unwrap().as_str(), Some("true"));
        assert_eq!(config.get("seeds").unwrap().as_str(), Some("5"));
        let tl = v.get("timeline").unwrap().as_arr().unwrap();
        assert_eq!(tl[0].get("shape").unwrap().as_str(), Some("loopy(2)"));
        assert_eq!(tl[0].get("churn").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn workers_flag() {
        assert_eq!(Args::from(&["--workers", "4"]).workers(), 4);
        assert!(Args::from(&[]).workers() >= 1);
        // 0 = every hardware thread
        assert!(Args::from(&["--workers", "0"]).workers() >= 1);
    }

    #[test]
    fn resolve_matrix_records_dimensions_but_never_workers() {
        let a = Args::from(&["--matrix", "n=64;seeds=2", "--workers", "8"]);
        let mut man = manifest(&a, "exp_x");
        let m = resolve_matrix(&a, &mut man, ssr_workloads::Matrix::new(["s"], vec![16], 3));
        assert_eq!(m.sizes, vec![64]);
        assert_eq!(m.seeds, vec![0, 1]);
        let json = man.to_json();
        let v = ssr_obs::parse(&json).unwrap();
        let config = v.get("config").unwrap();
        assert_eq!(
            config.get("matrix").unwrap().as_str(),
            Some("scenario=s;n=64;seed=0,1")
        );
        // byte-identity across --workers: the pool size must not leak in
        assert!(!json.contains("workers"));
    }

    #[test]
    fn fmt_count_groups() {
        assert_eq!(fmt_count(1), "1");
        assert_eq!(fmt_count(1234), "1_234");
        assert_eq!(fmt_count(1234567), "1_234_567");
    }
}
