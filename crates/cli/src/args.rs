//! A small hand-rolled argument parser (`--key value` / `--flag` pairs), so
//! the CLI stays inside the workspace's approved dependency set.

use std::collections::BTreeMap;
use std::fmt;

/// Parsed command line: a subcommand plus `--key value` options and bare
/// `--flag`s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The first positional argument (the subcommand).
    pub command: Option<String>,
    options: BTreeMap<String, String>,
    flags: Vec<String>,
}

/// A malformed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// `--key` given twice.
    Duplicate(String),
    /// A positional argument appeared after options began.
    UnexpectedPositional(String),
    /// An option value failed to parse.
    BadValue {
        /// The option name.
        key: String,
        /// The raw value.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
    /// An option or flag the subcommand does not read.
    Unknown(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::Duplicate(k) => write!(f, "option --{k} given more than once"),
            ArgError::UnexpectedPositional(p) => {
                write!(f, "unexpected positional argument '{p}'")
            }
            ArgError::BadValue {
                key,
                value,
                expected,
            } => write!(f, "--{key} {value}: expected {expected}"),
            ArgError::Unknown(k) => write!(f, "unrecognised option --{k}"),
        }
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses an iterator of arguments (excluding the program name).
    ///
    /// `--key value` and `--key=value` become options; `--key` followed by
    /// another `--…` or nothing becomes a flag; the first bare token is the
    /// subcommand.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Args, ArgError> {
        let mut it = args.into_iter().peekable();
        let mut command = None;
        let mut options = BTreeMap::new();
        let mut flags = Vec::new();

        while let Some(tok) = it.next() {
            if let Some(key) = tok.strip_prefix("--") {
                // `--key=value` carries its value inline. Without this arm
                // the whole token used to parse as a *flag* named
                // `key=value`, silently dropping the value (so e.g.
                // `--churn-alpha=-2` was accepted and ignored).
                if let Some((key, value)) = key.split_once('=') {
                    if options.insert(key.to_string(), value.to_string()).is_some()
                        || flags.contains(&key.to_string())
                    {
                        return Err(ArgError::Duplicate(key.to_string()));
                    }
                    continue;
                }
                // `next_if` both tests and consumes the value token, so there
                // is no peek-then-unwrap window to go wrong.
                if let Some(value) = it.next_if(|next| !next.starts_with("--")) {
                    if options.insert(key.to_string(), value).is_some() {
                        return Err(ArgError::Duplicate(key.to_string()));
                    }
                } else if flags.contains(&key.to_string()) {
                    return Err(ArgError::Duplicate(key.to_string()));
                } else {
                    flags.push(key.to_string());
                }
            } else if command.is_none() && options.is_empty() && flags.is_empty() {
                command = Some(tok);
            } else {
                return Err(ArgError::UnexpectedPositional(tok));
            }
        }
        Ok(Args {
            command,
            options,
            flags,
        })
    }

    /// The raw string value of `--key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// `true` if `--key` was given as a bare flag.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Rejects the first option or flag not in `known`, so a misspelt or
    /// retired option fails loudly instead of being silently ignored.
    pub fn reject_unknown(&self, known: &[&str]) -> Result<(), ArgError> {
        match self
            .options
            .keys()
            .chain(&self.flags)
            .find(|k| !known.contains(&k.as_str()))
        {
            Some(k) => Err(ArgError::Unknown(k.clone())),
            None => Ok(()),
        }
    }

    /// A parsed numeric/typed option with a default.
    pub fn get_parsed<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
        expected: &'static str,
    ) -> Result<T, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| ArgError::BadValue {
                key: key.to_string(),
                value: raw.to_string(),
                expected,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(toks: &[&str]) -> Result<Args, ArgError> {
        Args::parse(toks.iter().map(|s| s.to_string()))
    }

    #[test]
    fn subcommand_options_and_flags() {
        let a = parse(&["run", "--lambda", "20", "--quick", "--policy", "mrsf"]).unwrap();
        assert_eq!(a.command.as_deref(), Some("run"));
        assert_eq!(a.get("lambda"), Some("20"));
        assert_eq!(a.get("policy"), Some("mrsf"));
        assert!(a.flag("quick"));
        assert!(!a.flag("verbose"));
    }

    #[test]
    fn empty_line_is_ok() {
        let a = parse(&[]).unwrap();
        assert!(a.command.is_none());
    }

    #[test]
    fn duplicate_option_rejected() {
        assert_eq!(
            parse(&["run", "--x", "1", "--x", "2"]),
            Err(ArgError::Duplicate("x".into()))
        );
    }

    #[test]
    fn late_positional_rejected() {
        assert!(matches!(
            parse(&["run", "--x", "1", "stray"]),
            Err(ArgError::UnexpectedPositional(_))
        ));
    }

    #[test]
    fn typed_access_with_default() {
        let a = parse(&["run", "--budget", "3"]).unwrap();
        assert_eq!(a.get_parsed("budget", 1u32, "an integer").unwrap(), 3);
        assert_eq!(a.get_parsed("missing", 7u32, "an integer").unwrap(), 7);
        let bad = parse(&["run", "--budget", "x"]).unwrap();
        assert!(bad.get_parsed("budget", 1u32, "an integer").is_err());
    }

    #[test]
    fn equals_form_carries_the_value() {
        let a = parse(&["run", "--churn-alpha=-2", "--lambda=20"]).unwrap();
        assert_eq!(a.get("churn-alpha"), Some("-2"));
        assert_eq!(a.get("lambda"), Some("20"));
        assert!(!a.flag("churn-alpha=-2"));
        // An empty value is still a value, not a flag.
        let a = parse(&["run", "--out="]).unwrap();
        assert_eq!(a.get("out"), Some(""));
        // Duplicates across both forms are rejected.
        assert_eq!(
            parse(&["run", "--x=1", "--x", "2"]),
            Err(ArgError::Duplicate("x".into()))
        );
        assert_eq!(
            parse(&["run", "--x", "--x=2"]),
            Err(ArgError::Duplicate("x".into()))
        );
    }

    #[test]
    fn dangling_key_at_end_of_line_is_a_flag() {
        // Regression: a trailing `--key` with no value used to go through a
        // peek-then-`expect` pair; it must parse as a flag, never panic.
        let a = parse(&["run", "--lambda"]).unwrap();
        assert!(a.flag("lambda"));
        assert_eq!(a.get("lambda"), None);
    }

    #[test]
    fn flag_then_option_order_is_fine() {
        let a = parse(&["sweep", "--quick", "--param", "budget"]).unwrap();
        assert!(a.flag("quick"));
        assert_eq!(a.get("param"), Some("budget"));
    }
}
