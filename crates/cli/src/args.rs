//! The argument reader: the command line tokenised once, with typed
//! getters that *consume* what they read. A subcommand reads exactly its
//! own flags and then calls [`Args::finish`], which fails on whatever is
//! left — so an unread flag is an error naming itself and the
//! subcommand, and all of it happens before the first file is touched.

use std::str::FromStr;

use crate::Fail;

pub(crate) struct Args {
    rest: Vec<String>,
    /// The subcommand being read (`ctrl replay`), for messages.
    pub(crate) cmd: String,
}

impl Args {
    pub(crate) fn new(argv: impl Iterator<Item = String>) -> Self {
        Args {
            rest: argv.collect(),
            cmd: "ffc".into(),
        }
    }

    /// The next token if it is not a flag: a command word or, once the
    /// flags are read, a positional.
    pub(crate) fn word(&mut self) -> Option<String> {
        let is_word = self.rest.first().is_some_and(|t| !t.starts_with('-'));
        is_word.then(|| self.rest.remove(0))
    }

    /// A positional the subcommand cannot run without. An unread flag
    /// sitting in front of it is the error to report.
    pub(crate) fn need_word(&mut self, what: &str) -> Result<String, Fail> {
        let missing = Fail::Usage(format!("{} needs {what}", self.cmd));
        self.word()
            .ok_or_else(|| self.leftover().unwrap_or(missing))
    }

    pub(crate) fn flag(&mut self, name: &str) -> bool {
        let at = self.rest.iter().position(|t| t == name);
        at.map(|at| self.rest.remove(at)).is_some()
    }

    pub(crate) fn value(&mut self, name: &str) -> Result<Option<String>, Fail> {
        let Some(at) = self.rest.iter().position(|t| t == name) else {
            return Ok(None);
        };
        if at + 1 == self.rest.len() {
            return self.usage(format_args!("{name} needs a value"));
        }
        self.rest.remove(at);
        Ok(Some(self.rest.remove(at)))
    }

    pub(crate) fn required(&mut self, name: &str) -> Result<String, Fail> {
        let v = self.value(name)?;
        v.map_or_else(|| self.usage(format_args!("needs {name}")), Ok)
    }

    pub(crate) fn parsed<T: FromStr>(&mut self, name: &str, default: T) -> Result<T, Fail> {
        let Some(v) = self.value(name)? else {
            return Ok(default);
        };
        v.parse()
            .or_else(|_| self.usage(format_args!("{name}: bad value '{v}'")))
    }

    /// A flag whose value is one of a few names; the first is the default.
    pub(crate) fn choice<T: Copy>(&mut self, name: &str, of: &[(&str, T)]) -> Result<T, Fail> {
        let Some(v) = self.value(name)? else {
            return Ok(of[0].1);
        };
        let names: Vec<&str> = of.iter().map(|(n, _)| *n).collect();
        match names.iter().position(|n| *n == v) {
            Some(i) => Ok(of[i].1),
            None => self.usage(format_args!(
                "{name}: bad value '{v}' ({})",
                names.join(", ")
            )),
        }
    }

    /// Fails on anything no getter consumed.
    pub(crate) fn finish(self) -> Result<(), Fail> {
        self.leftover().map_or(Ok(()), Err)
    }

    fn leftover(&self) -> Option<Fail> {
        let t = self.rest.first()?;
        Some(Fail::Usage(format!("{} does not take '{t}'", self.cmd)))
    }

    /// A usage error in this subcommand's name.
    pub(crate) fn usage<T>(&self, what: impl std::fmt::Display) -> Result<T, Fail> {
        Err(Fail::Usage(format!("{} {what}", self.cmd)))
    }
}
