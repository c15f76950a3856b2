//! Tiny dependency-free argument parsing: positional arguments plus
//! `--key value` options.

use std::collections::BTreeMap;

/// Parsed command-line arguments.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Args {
    positional: Vec<String>,
    options: BTreeMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses raw arguments (excluding the program name).
    ///
    /// `--key value` pairs become options; a trailing `--key` with no
    /// value (or one followed by another option) becomes a flag;
    /// everything else is positional.
    #[must_use]
    pub fn parse<I, S>(raw: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let raw: Vec<String> = raw.into_iter().map(Into::into).collect();
        let mut out = Args::default();
        let mut i = 0;
        while i < raw.len() {
            let token = &raw[i];
            if let Some(key) = token.strip_prefix("--") {
                let next_is_value = raw.get(i + 1).is_some_and(|n| !n.starts_with("--"));
                if next_is_value {
                    out.options.insert(key.to_string(), raw[i + 1].clone());
                    i += 2;
                } else {
                    out.flags.push(key.to_string());
                    i += 1;
                }
            } else {
                out.positional.push(token.clone());
                i += 1;
            }
        }
        out
    }

    /// Positional argument `idx`, if present.
    #[must_use]
    pub fn positional(&self, idx: usize) -> Option<&str> {
        self.positional.get(idx).map(String::as_str)
    }

    /// The value of option `--key`, if given.
    #[must_use]
    pub fn option(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// `true` if bare flag `--key` was given.
    #[must_use]
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Checks the command line against what a subcommand accepts: at most
    /// `positionals` positional arguments (the command words included),
    /// `--key value` options named in `options`, and bare flags named in
    /// `flags`.
    ///
    /// # Errors
    ///
    /// Names the first stray positional, unknown option, flag given a
    /// value, or option given none.
    pub fn expect_only(
        &self,
        positionals: usize,
        options: &[&str],
        flags: &[&str],
    ) -> Result<(), String> {
        if let Some(stray) = self.positional.get(positionals) {
            return Err(format!("unexpected argument `{stray}`"));
        }
        for (key, value) in &self.options {
            if flags.contains(&key.as_str()) {
                return Err(format!("--{key} takes no value (got `{value}`)"));
            }
            if !options.contains(&key.as_str()) {
                return Err(format!("unknown option --{key}"));
            }
        }
        for key in &self.flags {
            if options.contains(&key.as_str()) {
                return Err(format!("--{key} needs a value"));
            }
            if !flags.contains(&key.as_str()) {
                return Err(format!("unknown option --{key}"));
            }
        }
        Ok(())
    }

    /// Parses option `--key` as `T`, with a default.
    ///
    /// # Errors
    ///
    /// Returns a message if the value fails to parse.
    pub fn option_as<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.option(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("invalid value for --{key}: `{raw}`")),
        }
    }

    /// Parses a comma-separated `--key a,b,c` list of `T`s.
    ///
    /// # Errors
    ///
    /// Returns a message if any element fails to parse.
    pub fn option_list<T: std::str::FromStr>(
        &self,
        key: &str,
        default: Vec<T>,
    ) -> Result<Vec<T>, String> {
        match self.option(key) {
            None => Ok(default),
            Some(raw) => raw
                .split(',')
                .map(|part| {
                    part.trim()
                        .parse()
                        .map_err(|_| format!("invalid element `{part}` in --{key}"))
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_positional_options_and_flags() {
        let args = Args::parse([
            "run", "cfg.json", "--seed", "7", "--quiet", "--out", "o.json",
        ]);
        assert_eq!(args.positional(0), Some("run"));
        assert_eq!(args.positional(1), Some("cfg.json"));
        assert_eq!(args.positional(2), None);
        assert_eq!(args.option("seed"), Some("7"));
        assert_eq!(args.option("out"), Some("o.json"));
        assert!(args.flag("quiet"));
        assert!(!args.flag("missing"));
    }

    #[test]
    fn typed_option_parsing() {
        let args = Args::parse(["--rho", "2.5"]);
        assert_eq!(args.option_as("rho", 0.0), Ok(2.5));
        assert_eq!(args.option_as("missing", 7u32), Ok(7));
        assert!(args.option_as::<f64>("rho", 0.0).is_ok());
        let bad = Args::parse(["--rho", "abc"]);
        assert!(bad.option_as::<f64>("rho", 0.0).is_err());
    }

    #[test]
    fn list_option_parsing() {
        let args = Args::parse(["--points", "2, 4,8"]);
        assert_eq!(
            args.option_list("points", vec![1.0]),
            Ok(vec![2.0, 4.0, 8.0])
        );
        assert_eq!(
            Args::parse(["x"]).option_list("points", vec![1.0f64]),
            Ok(vec![1.0])
        );
    }

    #[test]
    fn trailing_flag() {
        let args = Args::parse(["calc", "--verbose"]);
        assert!(args.flag("verbose"));
        assert_eq!(args.option("verbose"), None);
    }

    #[test]
    fn expect_only_names_the_first_offender() {
        let ok = Args::parse(["sweep", "--points", "2", "--quiet"]);
        assert_eq!(ok.expect_only(1, &["points"], &["quiet"]), Ok(()));
        let stray = Args::parse(["sweep", "fig3"]);
        assert_eq!(
            stray.expect_only(1, &[], &[]),
            Err("unexpected argument `fig3`".to_string())
        );
        let unknown = Args::parse(["sweep", "--bogus", "1"]);
        assert_eq!(
            unknown.expect_only(1, &["points"], &[]),
            Err("unknown option --bogus".to_string())
        );
        let valued_flag = Args::parse(["sweep", "--quiet", "fig3"]);
        assert!(valued_flag
            .expect_only(1, &[], &["quiet"])
            .unwrap_err()
            .contains("takes no value"));
        let bare_option = Args::parse(["sweep", "--points"]);
        assert_eq!(
            bare_option.expect_only(1, &["points"], &[]),
            Err("--points needs a value".to_string())
        );
    }

    #[test]
    fn empty_input() {
        let args = Args::parse(Vec::<String>::new());
        assert_eq!(args.positional(0), None);
        assert!(args.positional.is_empty());
    }
}
