//! Minimal command-line argument handling shared by the experiment
//! binaries (kept dependency-free on purpose).

/// Arguments understood by every experiment binary.
#[derive(Debug, Clone, PartialEq)]
pub struct CommonArgs {
    /// Fraction of the paper-sized dataset to generate (1.0 = the full
    /// 2112/1892 users of the paper; the default is a smaller smoke-test
    /// scale so the binaries finish in seconds).
    pub scale: f64,
    /// Number of repetitions per query (the paper uses 26 000 for Figure 1).
    pub repetitions: usize,
    /// Number of queries (the paper uses 50).
    pub queries: usize,
    /// Base random seed.
    pub seed: u64,
    /// Worker threads for the serving-engine paths (1 = the historical
    /// single-threaded behaviour).
    pub threads: usize,
}

impl Default for CommonArgs {
    fn default() -> Self {
        Self {
            scale: 0.25,
            repetitions: 2000,
            queries: 10,
            seed: 42,
            threads: 1,
        }
    }
}

impl CommonArgs {
    /// Parses `--scale`, `--repetitions`, `--queries` and `--seed` from an
    /// iterator of argument strings (unknown arguments are ignored so the
    /// binaries stay forgiving).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut out = Self::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--scale" => {
                    if let Some(v) = iter.next().and_then(|v| v.parse().ok()) {
                        out.scale = v;
                    }
                }
                "--repetitions" => {
                    if let Some(v) = iter.next().and_then(|v| v.parse().ok()) {
                        out.repetitions = v;
                    }
                }
                "--queries" => {
                    if let Some(v) = iter.next().and_then(|v| v.parse().ok()) {
                        out.queries = v;
                    }
                }
                "--seed" => {
                    if let Some(v) = iter.next().and_then(|v| v.parse().ok()) {
                        out.seed = v;
                    }
                }
                "--threads" => {
                    if let Some(v) = iter.next().and_then(|v| v.parse().ok()) {
                        out.threads = v;
                    }
                }
                "--paper-scale" => {
                    out.scale = 1.0;
                    out.repetitions = 26_000;
                    out.queries = 50;
                }
                _ => {}
            }
        }
        assert!(
            out.scale > 0.0 && out.scale <= 1.0,
            "--scale must be in (0, 1]"
        );
        assert!(out.repetitions > 0, "--repetitions must be positive");
        assert!(out.queries > 0, "--queries must be positive");
        assert!(out.threads > 0, "--threads must be positive");
        out
    }

    /// A suffix like `", threads = 2"` for the binaries' parameter
    /// headers — empty at the default so the historical output is
    /// preserved byte for byte.
    pub fn engine_suffix(&self) -> String {
        if self.threads == 1 {
            String::new()
        } else {
            format!(", threads = {}", self.threads)
        }
    }

    /// Parses the process arguments (skipping the binary name).
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn defaults_are_sane() {
        let a = CommonArgs::default();
        assert!(a.scale > 0.0 && a.scale <= 1.0);
        assert!(a.repetitions > 0);
        assert!(a.queries > 0);
    }

    #[test]
    fn parses_known_flags() {
        let a = CommonArgs::parse(to_args(&[
            "--scale",
            "0.5",
            "--repetitions",
            "123",
            "--queries",
            "7",
            "--seed",
            "99",
            "--threads",
            "8",
        ]));
        assert_eq!(a.scale, 0.5);
        assert_eq!(a.repetitions, 123);
        assert_eq!(a.queries, 7);
        assert_eq!(a.seed, 99);
        assert_eq!(a.threads, 8);
    }

    #[test]
    fn engine_defaults_preserve_historical_behaviour() {
        let a = CommonArgs::default();
        assert_eq!(a.threads, 1);
        assert_eq!(a.engine_suffix(), "");
        let b = CommonArgs::parse(to_args(&["--threads", "4"]));
        assert_eq!(b.engine_suffix(), ", threads = 4");
    }

    #[test]
    #[should_panic(expected = "--threads must be positive")]
    fn rejects_zero_threads() {
        let _ = CommonArgs::parse(to_args(&["--threads", "0"]));
    }

    #[test]
    fn ignores_unknown_flags() {
        let a = CommonArgs::parse(to_args(&["--unknown", "3", "--queries", "4"]));
        assert_eq!(a.queries, 4);
    }

    #[test]
    fn paper_scale_preset() {
        let a = CommonArgs::parse(to_args(&["--paper-scale"]));
        assert_eq!(a.scale, 1.0);
        assert_eq!(a.repetitions, 26_000);
        assert_eq!(a.queries, 50);
    }

    #[test]
    #[should_panic(expected = "--scale must be in (0, 1]")]
    fn rejects_invalid_scale() {
        let _ = CommonArgs::parse(to_args(&["--scale", "2.5"]));
    }
}
