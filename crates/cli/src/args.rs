//! Minimal argument parsing (`--key value` and `--key=value`), hand-rolled
//! to keep the workspace inside its offline dependency set.

use std::collections::HashMap;

use blocksync_core::{SyncMethod, TreeLevels};

/// Largest block count any subcommand accepts, from `--blocks` or a
/// `--shards` spec. Every host block is an OS thread and every command
/// sizes per-block tables from the count, so it is bounded here, before
/// anything is allocated or spawned. 4096 is two orders of magnitude past
/// the GTX 280's 30 SMs and 17x the largest device the scaling study
/// models (240 SMs).
pub(crate) const MAX_BLOCKS: usize = 4096;

/// `blocks`, or a usage error when it exceeds [`MAX_BLOCKS`].
pub(crate) fn check_blocks(blocks: usize) -> Result<usize, String> {
    if blocks > MAX_BLOCKS {
        return Err(format!(
            "block count {blocks} exceeds the limit of {MAX_BLOCKS}"
        ));
    }
    Ok(blocks)
}

/// Parsed command-line flags.
#[derive(Debug, Default, Clone)]
pub struct Args {
    flags: HashMap<String, String>,
    /// Positional (non-flag) arguments, in order.
    pub positional: Vec<String>,
}

impl Args {
    /// Parse an iterator of raw arguments (without the program name).
    ///
    /// `--key value` and `--key=value` both set `key`; a trailing `--key`
    /// with no value sets it to the empty string (presence flag).
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Self {
        let mut flags = HashMap::new();
        let mut positional = Vec::new();
        let mut iter = raw.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(stripped) = arg.strip_prefix("--") {
                if let Some((k, v)) = stripped.split_once('=') {
                    flags.insert(k.to_string(), v.to_string());
                } else if iter.peek().map(|n| !n.starts_with("--")).unwrap_or(false) {
                    let v = iter.next().expect("peeked");
                    flags.insert(stripped.to_string(), v);
                } else {
                    flags.insert(stripped.to_string(), String::new());
                }
            } else {
                positional.push(arg);
            }
        }
        Args { flags, positional }
    }

    /// Whether `--key` was given at all.
    pub fn has(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }

    /// String flag with default.
    pub fn get<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.flags.get(key).map(String::as_str).unwrap_or(default)
    }

    /// Integer flag with default.
    ///
    /// # Panics
    /// Panics with a usage message on unparsable values.
    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        match self.flags.get(key) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| panic!("--{key} expects an integer, got {v:?}")),
        }
    }

    /// `--blocks` with default, bounded by [`MAX_BLOCKS`].
    ///
    /// # Panics
    /// Like [`Args::get_usize`], on an unparsable value.
    pub(crate) fn get_blocks(&self, default: usize) -> Result<usize, String> {
        check_blocks(self.get_usize("blocks", default))
    }

    /// Float flag with default.
    ///
    /// # Panics
    /// Panics with a usage message on unparsable values.
    pub fn get_f64(&self, key: &str, default: f64) -> f64 {
        match self.flags.get(key) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| panic!("--{key} expects a number, got {v:?}")),
        }
    }
}

/// Parse a synchronization method name (the `Display` forms).
///
/// # Errors
/// Returns the list of valid names on failure.
pub fn parse_method(name: &str) -> Result<SyncMethod, String> {
    Ok(match name {
        "cpu-explicit" => SyncMethod::CpuExplicit,
        "cpu-implicit" => SyncMethod::CpuImplicit,
        "gpu-simple" | "simple" => SyncMethod::GpuSimple,
        "gpu-tree-2" | "tree-2" => SyncMethod::GpuTree(TreeLevels::Two),
        "gpu-tree-3" | "tree-3" => SyncMethod::GpuTree(TreeLevels::Three),
        "gpu-lock-free" | "lock-free" | "lockfree" => SyncMethod::GpuLockFree,
        "sense-reversing" | "sense" => SyncMethod::SenseReversing,
        "dissemination" => SyncMethod::Dissemination,
        "no-sync" | "none" => SyncMethod::NoSync,
        "auto" => SyncMethod::Auto,
        other => {
            return Err(format!(
                "unknown method {other:?}; valid: cpu-explicit cpu-implicit gpu-simple \
                 gpu-tree-2 gpu-tree-3 gpu-lock-free sense-reversing dissemination no-sync \
                 auto"
            ))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Args {
        Args::parse(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn key_value_styles() {
        let a = parse(&["sort", "--n", "1024", "--method=lock-free", "--verbose"]);
        assert_eq!(a.positional, vec!["sort"]);
        assert_eq!(a.get_usize("n", 0), 1024);
        assert_eq!(a.get("method", ""), "lock-free");
        assert!(a.has("verbose"));
        assert!(!a.has("quiet"));
        assert_eq!(a.get_usize("missing", 7), 7);
        assert_eq!(a.get_f64("missing", 0.5), 0.5);
    }

    #[test]
    fn flag_followed_by_flag_is_presence() {
        let a = parse(&["--trace", "--n", "5"]);
        assert!(a.has("trace"));
        assert_eq!(a.get("trace", "x"), "");
        assert_eq!(a.get_usize("n", 0), 5);
    }

    #[test]
    fn method_names_round_trip() {
        for m in blocksync_core::SyncMethod::PAPER_METHODS {
            assert_eq!(parse_method(&m.to_string()).unwrap(), m);
        }
        assert_eq!(parse_method("lockfree").unwrap(), SyncMethod::GpuLockFree);
        assert_eq!(parse_method("auto").unwrap(), SyncMethod::Auto);
        assert!(parse_method("warp-speed").is_err());
    }

    #[test]
    fn block_counts_are_bounded() {
        assert_eq!(parse(&[]).get_blocks(30), Ok(30));
        assert_eq!(parse(&["--blocks", "4096"]).get_blocks(30), Ok(MAX_BLOCKS));
        let e = parse(&["--blocks", "4097"]).get_blocks(30).unwrap_err();
        assert!(e.contains("4097") && e.contains("4096"), "{e}");
        assert!(check_blocks(100_000_000_000).is_err());
    }

    #[test]
    #[should_panic(expected = "expects an integer")]
    fn bad_integer_panics() {
        let a = parse(&["--n", "many"]);
        let _ = a.get_usize("n", 0);
    }
}
