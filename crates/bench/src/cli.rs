//! Strict command-line parsing shared by the figure and stream binaries.
//!
//! Every binary accepts an optional `--quick` flag that switches to the
//! reduced experiment configuration (smaller frames, no offline
//! baselines). Parsing is *strict*: an unknown argument aborts with a
//! non-zero exit instead of being silently ignored, so a typo'd `--quikc`
//! can no longer launch a multi-minute full-scale run — the error comes
//! with a "did you mean" hint when a known argument is close.

use crate::figures::Figure;
use crate::harness::ExperimentConfig;

/// A parse failure, rendered to the user before a non-zero exit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// The argument matches no known flag or option.
    Unknown {
        /// The offending argument as typed.
        arg: String,
        /// The closest known argument, when one is plausibly close.
        suggestion: Option<String>,
    },
    /// An option that takes a value appeared last with no value after it.
    MissingValue {
        /// The option missing its value.
        option: String,
    },
    /// An option's value failed to parse.
    InvalidValue {
        /// The option whose value is malformed.
        option: String,
        /// The value as typed.
        value: String,
    },
    /// Two given arguments contradict each other (e.g. pinning a shard
    /// count while also asking for autoscaling).
    Conflicting {
        /// The first argument as typed.
        first: String,
        /// The argument it cannot be combined with.
        second: String,
        /// Why the combination is contradictory.
        reason: String,
    },
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Unknown { arg, suggestion } => {
                write!(f, "unknown argument '{arg}'")?;
                if let Some(known) = suggestion {
                    write!(f, " (did you mean '{known}'?)")?;
                }
                Ok(())
            }
            CliError::MissingValue { option } => {
                write!(f, "option '{option}' requires a value")
            }
            CliError::InvalidValue { option, value } => {
                write!(f, "invalid value '{value}' for option '{option}'")
            }
            CliError::Conflicting {
                first,
                second,
                reason,
            } => {
                write!(f, "'{first}' conflicts with '{second}': {reason}")
            }
        }
    }
}

impl std::error::Error for CliError {}

/// The arguments a binary understands: boolean `flags` and single-value
/// `options` (`--option VALUE`).
#[derive(Debug, Clone, Copy)]
pub struct ArgSpec {
    /// Flags that take no value, e.g. `--quick`.
    pub flags: &'static [&'static str],
    /// Options that consume the following argument as their value.
    pub options: &'static [&'static str],
}

impl ArgSpec {
    /// Parses `args` (without the program name) against this spec.
    ///
    /// # Errors
    ///
    /// Returns a [`CliError`] on the first unknown argument, option with a
    /// missing value, or malformed value.
    pub fn parse<I>(&self, args: I) -> Result<ParsedArgs, CliError>
    where
        I: IntoIterator<Item = String>,
    {
        let mut parsed = ParsedArgs::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            if self.flags.contains(&arg.as_str()) {
                parsed.flags.push(arg);
            } else if self.options.contains(&arg.as_str()) {
                match iter.next() {
                    Some(value) => parsed.options.push((arg, value)),
                    None => return Err(CliError::MissingValue { option: arg }),
                }
            } else {
                let suggestion = self.did_you_mean(&arg);
                return Err(CliError::Unknown { arg, suggestion });
            }
        }
        Ok(parsed)
    }

    /// The known argument closest to `arg`, if close enough to plausibly
    /// be a typo (edit distance at most 3, ignoring dashes).
    fn did_you_mean(&self, arg: &str) -> Option<String> {
        let normalize = |s: &str| s.trim_start_matches('-').to_ascii_lowercase();
        let typed = normalize(arg);
        self.flags
            .iter()
            .chain(self.options)
            .map(|known| (levenshtein(&typed, &normalize(known)), *known))
            .filter(|(distance, _)| *distance <= 3)
            .min_by_key(|(distance, _)| *distance)
            .map(|(_, known)| known.to_string())
    }
}

/// Successfully parsed arguments.
#[derive(Debug, Clone, Default)]
pub struct ParsedArgs {
    flags: Vec<String>,
    options: Vec<(String, String)>,
}

impl ParsedArgs {
    /// True when `flag` was given at least once.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }

    /// The (last) value given for `option`, verbatim.
    pub fn value(&self, option: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(name, _)| name == option)
            .map(|(_, value)| value.as_str())
    }

    /// The (last) value given for `option`, parsed as a positive integer of
    /// the target width; parse failures — including values overflowing the
    /// target type — are errors, never silent truncations.
    fn positive<T>(&self, option: &str) -> Result<Option<T>, CliError>
    where
        T: std::str::FromStr + Default + PartialEq,
    {
        match self.value(option) {
            None => Ok(None),
            Some(raw) => match raw.parse::<T>() {
                Ok(n) if n != T::default() => Ok(Some(n)),
                _ => Err(CliError::InvalidValue {
                    option: option.to_string(),
                    value: raw.to_string(),
                }),
            },
        }
    }

    /// The (last) value given for `option`, parsed as a positive integer.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::InvalidValue`] when the value is not a positive
    /// integer.
    pub fn positive_usize(&self, option: &str) -> Result<Option<usize>, CliError> {
        self.positive::<usize>(option)
    }

    /// Like [`Self::positive_usize`], but range-checked for `u32`-typed
    /// knobs (frame counts, pixel dimensions).
    ///
    /// # Errors
    ///
    /// Returns [`CliError::InvalidValue`] when the value is not a positive
    /// integer that fits in a `u32`.
    pub fn positive_u32(&self, option: &str) -> Result<Option<u32>, CliError> {
        self.positive::<u32>(option)
    }

    /// The (last) value given for `option`, parsed as a non-negative
    /// integer — for count knobs where `0` is a meaningful "off" value
    /// (e.g. `--hard-cancel 0`).
    ///
    /// # Errors
    ///
    /// Returns [`CliError::InvalidValue`] when the value is not a
    /// non-negative integer.
    pub fn non_negative_usize(&self, option: &str) -> Result<Option<usize>, CliError> {
        match self.value(option) {
            None => Ok(None),
            Some(raw) => raw
                .parse::<usize>()
                .map(Some)
                .map_err(|_| CliError::InvalidValue {
                    option: option.to_string(),
                    value: raw.to_string(),
                }),
        }
    }

    /// The (last) value given for `option`, parsed as a finite
    /// non-negative float — for rate/time knobs such as `--latency-ms`
    /// or `--drop-prob`.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::InvalidValue`] when the value is not a finite
    /// non-negative number.
    pub fn non_negative_f64(&self, option: &str) -> Result<Option<f64>, CliError> {
        match self.value(option) {
            None => Ok(None),
            Some(raw) => match raw.parse::<f64>() {
                Ok(value) if value.is_finite() && value >= 0.0 => Ok(Some(value)),
                _ => Err(CliError::InvalidValue {
                    option: option.to_string(),
                    value: raw.to_string(),
                }),
            },
        }
    }

    /// The (last) value given for `option`, parsed as a `u64` (any value,
    /// including zero — used for seeds).
    ///
    /// # Errors
    ///
    /// Returns [`CliError::InvalidValue`] when the value is not an
    /// unsigned integer.
    pub fn u64_value(&self, option: &str) -> Result<Option<u64>, CliError> {
        match self.value(option) {
            None => Ok(None),
            Some(raw) => raw
                .parse::<u64>()
                .map(Some)
                .map_err(|_| CliError::InvalidValue {
                    option: option.to_string(),
                    value: raw.to_string(),
                }),
        }
    }
}

/// Parses a `--placement` option into a session→shard policy: `static`
/// (modulo routing) or `least-loaded` / `ll` (pixel-cost-aware — the
/// right choice for heterogeneous `--mix` workloads). `default` applies
/// when the option is absent.
///
/// # Errors
///
/// Returns [`CliError::InvalidValue`] for any other policy name.
pub fn placement_option(
    parsed: &ParsedArgs,
    default: &str,
) -> Result<Box<dyn pvc_stream::Placement>, CliError> {
    match parsed.value("--placement").unwrap_or(default) {
        "static" => Ok(Box::new(pvc_stream::Static)),
        "least-loaded" | "ll" => Ok(Box::new(pvc_stream::LeastLoaded)),
        other => Err(CliError::InvalidValue {
            option: "--placement".to_string(),
            value: other.to_string(),
        }),
    }
}

/// Parses a `--mix` option into a synthetic workload mix: `uniform`
/// (homogeneous Quest-2 fleet), `bimodal` (alternating Quest-2 /
/// Vision-class) or `heavy-tail` (mostly Quest-2 with Quest-Pro sessions
/// and a Vision-class whale per eight). `default` applies when the option
/// is absent.
///
/// # Errors
///
/// Returns [`CliError::InvalidValue`] for any other mix name.
pub fn mix_option(parsed: &ParsedArgs, default: &str) -> Result<pvc_stream::WorkloadMix, CliError> {
    let name = parsed.value("--mix").unwrap_or(default);
    pvc_stream::WorkloadMix::from_name(name).ok_or_else(|| CliError::InvalidValue {
        option: "--mix".to_string(),
        value: name.to_string(),
    })
}

/// Parses the link-simulation options into a [`pvc_client::LinkModel`],
/// or `None` when decode-side replay is off.
///
/// `--link none|lossless|capped` picks the preset (`none`, the default,
/// disables the replay entirely); `--bandwidth-mbits`, `--latency-ms`,
/// `--drop-prob` and `--link-seed` override individual parameters. Any
/// override given without `--link` turns the replay on, starting from the
/// lossless preset.
///
/// # Errors
///
/// Returns [`CliError::InvalidValue`] for an unknown preset name, a
/// non-finite/negative number, or a drop probability above 1.
pub fn link_option(parsed: &ParsedArgs) -> Result<Option<pvc_client::LinkModel>, CliError> {
    use pvc_client::LinkModel;
    let bandwidth = parsed.non_negative_f64("--bandwidth-mbits")?;
    let latency = parsed.non_negative_f64("--latency-ms")?;
    let drop = parsed.non_negative_f64("--drop-prob")?;
    if let Some(p) = drop {
        if p > 1.0 {
            return Err(CliError::InvalidValue {
                option: "--drop-prob".to_string(),
                value: p.to_string(),
            });
        }
    }
    let seed = parsed.u64_value("--link-seed")?;
    let has_override = bandwidth.is_some() || latency.is_some() || drop.is_some() || seed.is_some();
    let mut link = match parsed.value("--link") {
        Some("lossless") => LinkModel::lossless(),
        Some("capped") => LinkModel::capped(),
        Some("none") | None if !has_override => return Ok(None),
        Some("none") | None => LinkModel::lossless(),
        Some(other) => {
            return Err(CliError::InvalidValue {
                option: "--link".to_string(),
                value: other.to_string(),
            })
        }
    };
    if let Some(mbits) = bandwidth {
        // 0 would divide away every deadline; treat it as "no cap off".
        link = link.with_bandwidth_mbits((mbits > 0.0).then_some(mbits));
    }
    if let Some(ms) = latency {
        link = link.with_latency_ms(ms);
    }
    if let Some(p) = drop {
        link = link.with_drop_probability(p);
    }
    if let Some(seed) = seed {
        link = link.with_seed(seed);
    }
    Ok(Some(link))
}

/// Edit distance between two short ASCII strings (classic two-row DP).
fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut previous: Vec<usize> = (0..=b.len()).collect();
    let mut current = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        current[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let substitution = previous[j] + usize::from(ca != cb);
            current[j + 1] = substitution
                .min(previous[j + 1] + 1) // deletion
                .min(current[j] + 1); // insertion
        }
        std::mem::swap(&mut previous, &mut current);
    }
    previous[b.len()]
}

/// The command line understood by the figure binaries.
const FIGURE_SPEC: ArgSpec = ArgSpec {
    flags: &["--quick"],
    options: &[],
};

/// Parses the figure-binary command line: `--quick` selects
/// [`ExperimentConfig::quick`], no arguments keeps the default.
///
/// # Errors
///
/// Returns a [`CliError`] for anything else — unknown flags abort instead
/// of silently running the full-scale configuration.
pub fn parse_experiment_config<I>(args: I) -> Result<ExperimentConfig, CliError>
where
    I: IntoIterator<Item = String>,
{
    let parsed = FIGURE_SPEC.parse(args)?;
    Ok(if parsed.has("--quick") {
        ExperimentConfig::quick()
    } else {
        ExperimentConfig::default()
    })
}

/// Parses the process's command line for a figure binary, exiting with
/// status 2 (and a "did you mean" hint when applicable) on any unknown
/// argument.
pub fn experiment_config_from_args() -> ExperimentConfig {
    match parse_experiment_config(std::env::args().skip(1)) {
        Ok(config) => config,
        Err(err) => exit_with_usage(&err, "[--quick]"),
    }
}

/// Prints a [`CliError`] plus a usage line and exits with status 2.
pub fn exit_with_usage(err: &CliError, usage: &str) -> ! {
    let binary = std::env::args()
        .next()
        .unwrap_or_else(|| "binary".to_string());
    eprintln!("error: {err}");
    eprintln!("usage: {binary} {usage}");
    std::process::exit(2);
}

/// Prints a figure and stores its CSV under `target/figures/`.
pub fn emit(figure: &Figure) {
    println!("{}", figure.to_table());
    match figure.write_csv() {
        Ok(path) => println!("(csv written to {})\n", path.display()),
        Err(err) => eprintln!("warning: could not write csv: {err}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn no_arguments_keeps_the_default_config() {
        let config = parse_experiment_config(args(&[])).unwrap();
        assert_eq!(config, ExperimentConfig::default());
    }

    #[test]
    fn quick_flag_selects_the_quick_config() {
        let config = parse_experiment_config(args(&["--quick"])).unwrap();
        assert_eq!(config, ExperimentConfig::quick());
    }

    #[test]
    fn a_typoed_quick_flag_is_rejected_with_a_hint() {
        let err = parse_experiment_config(args(&["--quikc"])).unwrap_err();
        assert_eq!(
            err,
            CliError::Unknown {
                arg: "--quikc".to_string(),
                suggestion: Some("--quick".to_string()),
            }
        );
        let message = err.to_string();
        assert!(message.contains("unknown argument '--quikc'"));
        assert!(message.contains("did you mean '--quick'?"));
    }

    #[test]
    fn a_wildly_wrong_argument_gets_no_suggestion() {
        let err = parse_experiment_config(args(&["--frobnicate-everything"])).unwrap_err();
        assert_eq!(
            err,
            CliError::Unknown {
                arg: "--frobnicate-everything".to_string(),
                suggestion: None,
            }
        );
        assert!(!err.to_string().contains("did you mean"));
    }

    #[test]
    fn options_consume_the_following_value() {
        let spec = ArgSpec {
            flags: &["--quick"],
            options: &["--sessions", "--frames"],
        };
        let parsed = spec
            .parse(args(&["--sessions", "12", "--quick", "--frames", "30"]))
            .unwrap();
        assert!(parsed.has("--quick"));
        assert_eq!(parsed.value("--sessions"), Some("12"));
        assert_eq!(parsed.positive_usize("--frames").unwrap(), Some(30));
        assert_eq!(parsed.positive_usize("--shards").unwrap(), None);
    }

    #[test]
    fn the_last_repeated_option_wins() {
        let spec = ArgSpec {
            flags: &[],
            options: &["--sessions"],
        };
        let parsed = spec
            .parse(args(&["--sessions", "4", "--sessions", "9"]))
            .unwrap();
        assert_eq!(parsed.positive_usize("--sessions").unwrap(), Some(9));
    }

    #[test]
    fn a_trailing_option_without_a_value_is_rejected() {
        let spec = ArgSpec {
            flags: &[],
            options: &["--sessions"],
        };
        let err = spec.parse(args(&["--sessions"])).unwrap_err();
        assert_eq!(
            err,
            CliError::MissingValue {
                option: "--sessions".to_string()
            }
        );
        assert!(err.to_string().contains("requires a value"));
    }

    #[test]
    fn non_numeric_and_zero_values_are_rejected() {
        let spec = ArgSpec {
            flags: &[],
            options: &["--sessions"],
        };
        for bad in ["abc", "0", "-3", "1.5"] {
            let parsed = spec.parse(args(&["--sessions", bad])).unwrap();
            let err = parsed.positive_usize("--sessions").unwrap_err();
            assert_eq!(
                err,
                CliError::InvalidValue {
                    option: "--sessions".to_string(),
                    value: bad.to_string(),
                }
            );
        }
    }

    #[test]
    fn non_negative_values_accept_zero_but_reject_junk() {
        let spec = ArgSpec {
            flags: &[],
            options: &["--hard-cancel"],
        };
        let parsed = spec.parse(args(&["--hard-cancel", "0"])).unwrap();
        assert_eq!(
            parsed.non_negative_usize("--hard-cancel").unwrap(),
            Some(0),
            "zero is a meaningful 'off' value for count knobs"
        );
        let parsed = spec.parse(args(&["--hard-cancel", "3"])).unwrap();
        assert_eq!(parsed.non_negative_usize("--hard-cancel").unwrap(), Some(3));
        let parsed = spec.parse(args(&[])).unwrap();
        assert_eq!(parsed.non_negative_usize("--hard-cancel").unwrap(), None);
        for bad in ["abc", "-3", "1.5"] {
            let parsed = spec.parse(args(&["--hard-cancel", bad])).unwrap();
            assert!(parsed.non_negative_usize("--hard-cancel").is_err());
        }
    }

    #[test]
    fn u32_values_reject_overflow_instead_of_truncating() {
        let spec = ArgSpec {
            flags: &[],
            options: &["--frames"],
        };
        let parsed = spec.parse(args(&["--frames", "4294967296"])).unwrap();
        let err = parsed.positive_u32("--frames").unwrap_err();
        assert_eq!(
            err,
            CliError::InvalidValue {
                option: "--frames".to_string(),
                value: "4294967296".to_string(),
            }
        );
        let parsed = spec.parse(args(&["--frames", "60"])).unwrap();
        assert_eq!(parsed.positive_u32("--frames").unwrap(), Some(60));
    }

    #[test]
    fn typoed_options_suggest_the_nearest_known_one() {
        let spec = ArgSpec {
            flags: &["--quick"],
            options: &["--sessions", "--shards"],
        };
        let err = spec.parse(args(&["--sesions", "4"])).unwrap_err();
        assert_eq!(
            err,
            CliError::Unknown {
                arg: "--sesions".to_string(),
                suggestion: Some("--sessions".to_string()),
            }
        );
    }

    #[test]
    fn placement_option_maps_names_and_defaults() {
        let spec = ArgSpec {
            flags: &[],
            options: &["--placement"],
        };
        let parsed = spec.parse(args(&["--placement", "static"])).unwrap();
        assert_eq!(
            placement_option(&parsed, "least-loaded").unwrap().name(),
            "static"
        );
        let parsed = spec.parse(args(&["--placement", "least-loaded"])).unwrap();
        assert_eq!(
            placement_option(&parsed, "static").unwrap().name(),
            "least-loaded"
        );
        let parsed = spec.parse(args(&["--placement", "ll"])).unwrap();
        assert_eq!(
            placement_option(&parsed, "static").unwrap().name(),
            "least-loaded"
        );
        let parsed = spec.parse(args(&[])).unwrap();
        assert_eq!(
            placement_option(&parsed, "static").unwrap().name(),
            "static"
        );
        assert_eq!(
            placement_option(&parsed, "least-loaded").unwrap().name(),
            "least-loaded"
        );
        for removed in ["p2c", "power-of-two-choices", "predictive"] {
            let parsed = spec.parse(args(&["--placement", removed])).unwrap();
            assert_eq!(
                placement_option(&parsed, "static").map(|policy| policy.name()),
                Err(CliError::InvalidValue {
                    option: "--placement".to_string(),
                    value: removed.to_string(),
                })
            );
        }
        let parsed = spec.parse(args(&["--placement", "rondom"])).unwrap();
        assert_eq!(
            placement_option(&parsed, "static").map(|policy| policy.name()),
            Err(CliError::InvalidValue {
                option: "--placement".to_string(),
                value: "rondom".to_string(),
            })
        );
    }

    #[test]
    fn mix_option_maps_names_and_defaults() {
        let spec = ArgSpec {
            flags: &[],
            options: &["--mix"],
        };
        let parsed = spec.parse(args(&["--mix", "bimodal"])).unwrap();
        assert_eq!(
            mix_option(&parsed, "uniform").unwrap(),
            pvc_stream::WorkloadMix::Bimodal
        );
        let parsed = spec.parse(args(&["--mix", "heavy-tail"])).unwrap();
        assert_eq!(
            mix_option(&parsed, "uniform").unwrap(),
            pvc_stream::WorkloadMix::HeavyTail
        );
        let parsed = spec.parse(args(&[])).unwrap();
        assert_eq!(
            mix_option(&parsed, "uniform").unwrap(),
            pvc_stream::WorkloadMix::Uniform
        );
        let parsed = spec.parse(args(&["--mix", "gaussian"])).unwrap();
        assert_eq!(
            mix_option(&parsed, "uniform"),
            Err(CliError::InvalidValue {
                option: "--mix".to_string(),
                value: "gaussian".to_string(),
            })
        );
    }

    #[test]
    fn conflicting_arguments_render_both_sides_and_the_reason() {
        let err = CliError::Conflicting {
            first: "--shards".to_string(),
            second: "--scale-up".to_string(),
            reason: "a fixed shard count cannot autoscale".to_string(),
        };
        let message = err.to_string();
        assert!(message.contains("'--shards' conflicts with '--scale-up'"));
        assert!(message.contains("a fixed shard count cannot autoscale"));
    }

    #[test]
    fn elastic_flags_get_did_you_mean_hints() {
        let spec = ArgSpec {
            flags: &[],
            options: &["--fleet-budget", "--scale-up", "--scale-down"],
        };
        for (typo, expected) in [
            ("--fleet-budgt", "--fleet-budget"),
            ("--scale-upp", "--scale-up"),
            ("--scaledown", "--scale-down"),
        ] {
            let err = spec.parse(args(&[typo, "1"])).unwrap_err();
            assert_eq!(
                err,
                CliError::Unknown {
                    arg: typo.to_string(),
                    suggestion: Some(expected.to_string()),
                },
                "{typo} should suggest {expected}"
            );
        }
    }

    #[test]
    fn levenshtein_matches_known_distances() {
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("quikc", "quick"), 2);
    }
}
