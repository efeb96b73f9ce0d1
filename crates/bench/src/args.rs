//! Minimal command-line handling shared by the experiment binaries.

/// Options common to every experiment binary.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    /// Monte-Carlo replications (binaries scale their defaults from this).
    pub reps: u64,
    /// Master seed.
    pub seed: u64,
    /// Cheap settings for smoke runs.
    pub quick: bool,
    /// Worker threads (0 = auto).
    pub threads: usize,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            reps: 0,
            seed: 20060425,
            quick: false,
            threads: 0,
        }
    }
}

/// The one-line usage every experiment binary shares.
const USAGE: &str = "usage: [--reps N] [--seed S] [--threads T] [--quick]";

impl Args {
    /// Parses `--reps N`, `--seed S`, `--threads T` and `--quick` from the
    /// process arguments. A malformed flag prints the error and the usage
    /// line to stderr and exits with status 2.
    #[must_use]
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2)
        })
    }

    /// Parses from an explicit iterator (testable).
    ///
    /// # Errors
    /// Names the offending flag or value.
    pub fn parse_from<I: IntoIterator<Item = String>>(iter: I) -> Result<Self, String> {
        fn value<T: std::str::FromStr>(
            flag: &str,
            it: &mut impl Iterator<Item = String>,
        ) -> Result<T, String> {
            let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            v.parse()
                .map_err(|_| format!("{flag} must be an integer, got `{v}`"))
        }
        let mut args = Self::default();
        let mut it = iter.into_iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--reps" => args.reps = value(&flag, &mut it)?,
                "--seed" => args.seed = value(&flag, &mut it)?,
                "--threads" => args.threads = value(&flag, &mut it)?,
                "--quick" => args.quick = true,
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(args)
    }

    /// Replication count to use given a binary-specific default.
    #[must_use]
    pub fn reps_or(&self, default: u64) -> u64 {
        if self.reps > 0 {
            self.reps
        } else if self.quick {
            (default / 10).max(10)
        } else {
            default
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Result<Args, String> {
        Args::parse_from(s.iter().map(|x| (*x).to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).expect("no flags");
        assert_eq!(a.reps, 0);
        assert!(!a.quick);
        assert_eq!(a.reps_or(500), 500);
    }

    #[test]
    fn explicit_values() {
        let a = parse(&["--reps", "42", "--seed", "7", "--threads", "3"]).expect("valid flags");
        assert_eq!(a.reps, 42);
        assert_eq!(a.seed, 7);
        assert_eq!(a.threads, 3);
        assert_eq!(a.reps_or(500), 42);
    }

    #[test]
    fn quick_scales_defaults_down() {
        let a = parse(&["--quick"]).expect("valid flag");
        assert_eq!(a.reps_or(500), 50);
        assert_eq!(a.reps_or(50), 10);
    }

    #[test]
    fn unknown_flag_is_an_error() {
        assert_eq!(parse(&["--nope"]).unwrap_err(), "unknown flag `--nope`");
        assert_eq!(parse(&["--reps"]).unwrap_err(), "--reps needs a value");
        assert_eq!(
            parse(&["--seed", "x"]).unwrap_err(),
            "--seed must be an integer, got `x`"
        );
    }
}
