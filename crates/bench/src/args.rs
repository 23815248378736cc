//! The experiment binaries' common options, read with the workspace's
//! one flag parser, [`eval::Flags`] (no external dependency on purpose;
//! see EXPERIMENTS.md).

/// Common experiment options.
#[derive(Debug, Clone)]
pub struct Args {
    /// Multiplier on the laptop-profile dataset sizes.
    pub scale: f64,
    /// Use the paper's original (unscaled) dataset sizes.
    pub paper_sizes: bool,
    /// Sliding window size `d` for ClaSS/FLOSS.
    pub window: usize,
    /// Worker threads.
    pub threads: usize,
    /// Master seed.
    pub seed: u64,
    /// Free-form sub-command (used by the ablation binary's `--choice`).
    pub choice: Option<String>,
    /// Quick mode: 20% subsample of the series (the paper's tuning split).
    pub quick: bool,
    /// Real-archive directory (`--data-dir`, falling back to the
    /// `CLASS_DATA_DIR` environment variable); `None` = synthetic only.
    pub data_dir: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            scale: 1.0,
            paper_sizes: false,
            window: eval::DEFAULT_WINDOW_SIZE,
            threads: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4),
            seed: 0xC1A55,
            choice: None,
            quick: false,
            data_dir: None,
        }
    }
}

impl Args {
    /// Parses `std::env::args()`; a usage error prints `error: …` and
    /// exits with status 2.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1)).unwrap_or_else(|e| eval::usage_exit(&e))
    }

    /// Parses an explicit iterator of arguments (testable).
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut out = Self::default();
        let mut flags = eval::Flags::new(args);
        while let Some(arg) = flags.next() {
            match arg.as_str() {
                "--scale" => out.scale = flags.parse()?,
                "--paper-sizes" => out.paper_sizes = true,
                "--window" => out.window = flags.parse()?,
                "--threads" => out.threads = flags.parse()?,
                "--seed" => out.seed = flags.parse()?,
                "--choice" => out.choice = Some(flags.value()?),
                "--quick" => out.quick = true,
                "--data-dir" => out.data_dir = Some(flags.value()?),
                "--help" | "-h" => {
                    eprintln!(
                        "options: --scale F --paper-sizes --window N --threads N --seed N \
                         --choice NAME --quick --data-dir PATH"
                    );
                    std::process::exit(0);
                }
                _ => return Err(flags.unknown()),
            }
        }
        Ok(out)
    }

    /// Dataset generation config derived from the arguments.
    pub fn gen_config(&self) -> datasets::GenConfig {
        datasets::GenConfig {
            scale: self.scale,
            paper_sizes: self.paper_sizes,
            seed: self.seed,
        }
    }

    /// The real-archive directory: `--data-dir` wins, then
    /// `CLASS_DATA_DIR`, else `None` (pure synthetic run).
    pub fn data_dir(&self) -> Option<datasets::DataDir> {
        match &self.data_dir {
            Some(p) => Some(datasets::DataDir::open(p)),
            None => datasets::DataDir::from_env(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse_from(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn defaults_and_overrides() {
        let a = parse("");
        assert_eq!(a.scale, 1.0);
        assert!(!a.paper_sizes);
        let a = parse("--scale 0.5 --window 1500 --threads 2 --seed 7 --quick");
        assert_eq!(a.scale, 0.5);
        assert_eq!(a.window, 1500);
        assert_eq!(a.threads, 2);
        assert_eq!(a.seed, 7);
        assert!(a.quick);
    }

    #[test]
    fn choice_flag() {
        let a = parse("--choice window-size");
        assert_eq!(a.choice.as_deref(), Some("window-size"));
    }

    #[test]
    fn data_dir_flag_overrides_default() {
        let a = parse("--data-dir /tmp/archives");
        assert_eq!(a.data_dir.as_deref(), Some("/tmp/archives"));
        assert_eq!(
            a.data_dir().map(|d| d.root().to_path_buf()),
            Some(std::path::PathBuf::from("/tmp/archives"))
        );
    }

    #[test]
    fn unknown_flag_is_an_error() {
        let err = Args::parse_from(["--frobnicate".to_string()]).unwrap_err();
        assert_eq!(err, "unknown argument --frobnicate");
    }
}
