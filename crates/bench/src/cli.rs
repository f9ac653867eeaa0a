//! The `bench` driver's command line: `bench <name> [flags]`, `bench list`.
//!
//! Every experiment takes the same flags; `bench list` says which
//! experiments `--seed` actually varies (a fully deterministic experiment
//! is trivially seed-invariant).

use crate::sweep::SweepConfig;

/// Usage text, printed on a bad invocation.
pub const USAGE: &str = "usage: bench list
       bench <name> [--serial | --threads N] [--json] [--seed S]";

/// Parsed flags of one `bench <name>` invocation.
#[derive(Clone, Debug)]
pub struct Args {
    /// Thread count and JSON output mode.
    pub sweep: SweepConfig,
    /// Seed of everything random in the experiment: fault plans, uniform
    /// access streams, generated graphs and tenant mixes. The committed
    /// goldens are the 1996 runs.
    pub seed: u64,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            sweep: SweepConfig {
                threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
                json: false,
            },
            seed: 1996,
        }
    }
}

impl Args {
    /// Parses the flags following the experiment name.
    pub fn parse(flags: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut args = Args::default();
        let mut flags = flags.into_iter();
        while let Some(flag) = flags.next() {
            let mut value = |what: &str| flags.next().ok_or_else(|| format!("{flag} needs {what}"));
            match flag.as_str() {
                "--serial" => args.sweep.threads = 1,
                "--threads" => {
                    args.sweep.threads = value("a positive integer")?
                        .parse()
                        .ok()
                        .filter(|n| *n > 0)
                        .ok_or("--threads needs a positive integer")?
                }
                "--json" => args.sweep.json = true,
                "--seed" => {
                    args.seed = value("a u64")?.parse().map_err(|_| "--seed needs a u64")?
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(flags: &[&str]) -> Result<Args, String> {
        Args::parse(flags.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_are_the_golden_configuration() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.seed, 1996);
        assert!(!a.sweep.json);
        assert!(a.sweep.threads >= 1);
    }

    #[test]
    fn flags_combine() {
        let a = parse(&["--serial", "--json", "--seed", "777"]).unwrap();
        assert_eq!(a.sweep.threads, 1);
        assert!(a.sweep.json);
        assert_eq!(a.seed, 777);
        assert_eq!(parse(&["--threads", "3"]).unwrap().sweep.threads, 3);
    }

    #[test]
    fn bad_flags_are_named() {
        assert!(parse(&["--bogus"]).unwrap_err().contains("--bogus"));
        assert!(parse(&["--threads", "0"]).is_err());
        assert!(parse(&["--threads"]).is_err());
        assert!(parse(&["--seed", "x"]).is_err());
    }
}
