//! The one flag-parsing idiom shared by `class-cli` and every bench
//! binary.
//!
//! [`Flags`] walks an argument list. Each binary matches on the
//! arguments it yields and asks the cursor for the current flag's value,
//! which hides what every hand-rolled loop used to repeat: fetching the
//! next argument, parsing it, bounding it and checking it against a
//! fixed set of names. Every failure is a `String` naming the flag, and
//! every binary reports it the same way ([`usage_exit`]).
//!
//! ```
//! use eval::Flags;
//!
//! fn parse(args: &str) -> Result<(usize, f64, bool), String> {
//!     let (mut shards, mut rate, mut tsv) = (2, 1.0, false);
//!     let mut flags = Flags::new(args.split_whitespace().map(String::from));
//!     while let Some(arg) = flags.next() {
//!         match arg.as_str() {
//!             "--shards" => shards = flags.at_least(1)?,
//!             "--rate" => rate = flags.parse_where("positive", |r: &f64| *r > 0.0)?,
//!             "--format" => tsv = flags.one_of(&[("text", false), ("tsv", true)])?,
//!             _ => return Err(flags.unknown()),
//!         }
//!     }
//!     Ok((shards, rate, tsv))
//! }
//!
//! assert_eq!(parse("--shards 4 --rate 0.5 --format tsv"), Ok((4, 0.5, true)));
//! let err = |args| parse(args).unwrap_err();
//! assert_eq!(err("--shards"), "--shards requires a value");
//! assert_eq!(err("--shards x"), "numeric --shards");
//! assert_eq!(err("--shards 0"), "--shards must be at least 1");
//! assert_eq!(err("--rate 0"), "--rate must be positive, got 0");
//! assert_eq!(err("--format xml"), "--format must be text or tsv, got xml");
//! assert_eq!(err("--frobnicate"), "unknown argument --frobnicate");
//! ```

use std::fmt::Display;
use std::str::FromStr;

/// A cursor over command-line arguments that remembers the flag it is
/// on, so value errors can name it.
#[derive(Debug)]
pub struct Flags {
    args: std::vec::IntoIter<String>,
    flag: String,
}

impl Flags {
    /// A cursor over `args` (without the program name).
    pub fn new(args: impl IntoIterator<Item = String>) -> Self {
        Self {
            args: args.into_iter().collect::<Vec<_>>().into_iter(),
            flag: String::new(),
        }
    }

    /// The current flag's value: `--x requires a value` when the
    /// arguments end first.
    pub fn value(&mut self) -> Result<String, String> {
        self.args
            .next()
            .ok_or_else(|| format!("{} requires a value", self.flag))
    }

    /// The current flag's value parsed as `T`: `numeric --x` when it does
    /// not parse.
    pub fn parse<T: FromStr>(&mut self) -> Result<T, String> {
        self.value()?
            .parse()
            .map_err(|_| format!("numeric {}", self.flag))
    }

    /// [`Flags::parse`] with a lower bound: `--x must be at least N` below
    /// `min`.
    pub fn at_least<T: FromStr + PartialOrd + Display>(&mut self, min: T) -> Result<T, String> {
        let v: T = self.parse()?;
        if v < min {
            return Err(format!("{} must be at least {min}", self.flag));
        }
        Ok(v)
    }

    /// [`Flags::parse`] with a condition: `--x must be WHAT, got v` when
    /// the value fails `ok`.
    pub fn parse_where<T: FromStr>(
        &mut self,
        what: &str,
        ok: impl FnOnce(&T) -> bool,
    ) -> Result<T, String> {
        let raw = self.value()?;
        let v: T = raw.parse().map_err(|_| format!("numeric {}", self.flag))?;
        if !ok(&v) {
            return Err(format!("{} must be {what}, got {raw}", self.flag));
        }
        Ok(v)
    }

    /// The current flag's value looked up in a fixed set of names:
    /// `--x must be a, b or c, got v` when it names none of them.
    pub fn one_of<T: Copy>(&mut self, choices: &[(&str, T)]) -> Result<T, String> {
        let v = self.value()?;
        if let Some(&(_, t)) = choices.iter().find(|(name, _)| *name == v) {
            return Ok(t);
        }
        let names: Vec<&str> = choices.iter().map(|(name, _)| *name).collect();
        let listed = match names.split_last() {
            Some((last, rest)) if !rest.is_empty() => format!("{} or {last}", rest.join(", ")),
            _ => names.concat(),
        };
        Err(format!("{} must be {listed}, got {v}", self.flag))
    }

    /// The usage error for an argument nobody recognised.
    pub fn unknown(&self) -> String {
        format!("unknown argument {}", self.flag)
    }
}

impl Iterator for Flags {
    type Item = String;

    /// Moves to the next argument, the flag value errors then name.
    fn next(&mut self) -> Option<String> {
        let arg = self.args.next()?;
        self.flag.clone_from(&arg);
        Some(arg)
    }
}

/// Walks the program's own arguments (without its name) with `read`; a
/// usage error it returns goes to [`usage_exit`].
pub fn read_args(read: impl FnOnce(&mut Flags) -> Result<(), String>) {
    let mut flags = Flags::new(std::env::args().skip(1));
    if let Err(e) = read(&mut flags) {
        usage_exit(&e);
    }
}

/// Reports a usage error the way every binary does, `error: …` on
/// stderr, and exits with status 2.
pub fn usage_exit(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}
