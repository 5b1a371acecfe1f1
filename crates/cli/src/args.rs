//! The one argument path: a declared table of subcommands, each with
//! its positionals and typed flags, parsed once. Every usage error — an
//! unknown command or flag, a missing value or positional, a value that
//! does not parse or is out of range — is an [`Error::Usage`] naming
//! the flag and value; `main` exits 2 on it.

use std::collections::HashMap;

use osn_core::kernel::time::Nanos;

/// How a flag's value is read.
#[derive(Clone, Copy)]
pub enum Kind {
    /// An integer in `min..=max`.
    Int(u64, u64),
    /// A duration with an `ns`/`us`/`ms`/`s` suffix.
    Duration,
    /// One of a fixed set of words.
    Choice(&'static [&'static str]),
    /// Free text: paths, addresses, and grammars the command parses.
    Text,
}

pub const UINT: Kind = Kind::Int(0, u64::MAX);
pub const POSITIVE: Kind = Kind::Int(1, u64::MAX);

/// One `--name VALUE` flag of a subcommand.
pub struct Flag {
    pub name: &'static str,
    /// Placeholder in the usage line (choices print themselves).
    pub meta: &'static str,
    pub kind: Kind,
    pub required: bool,
}

pub const fn flag(name: &'static str, meta: &'static str, kind: Kind) -> Flag {
    Flag {
        name,
        meta,
        kind,
        required: false,
    }
}

/// One subcommand: its positionals, its flags, and what runs it.
pub struct Command {
    pub name: &'static str,
    /// Space-separated placeholders, all required; a final `...` one
    /// takes one or more.
    pub positionals: &'static str,
    pub flags: &'static [Flag],
    pub run: fn(&Args) -> Result<(), Error>,
}

pub const fn command(
    name: &'static str,
    positionals: &'static str,
    flags: &'static [Flag],
    run: fn(&Args) -> Result<(), Error>,
) -> Command {
    Command {
        name,
        positionals,
        flags,
        run,
    }
}

/// Why a command did not succeed.
#[derive(Debug)]
pub enum Error {
    /// The command line is wrong (exit 2).
    Usage(String),
    /// The command ran and failed (exit 1); an empty message means the
    /// command already reported what went wrong.
    Failed(String),
}

/// `Error::Failed("{context}: {e}")`, for `map_err`.
pub fn failed<E: std::fmt::Display>(context: impl std::fmt::Display) -> impl FnOnce(E) -> Error {
    move |e| Error::Failed(format!("{context}: {e}"))
}

/// A read flag value; durations are kept in nanoseconds.
enum Value {
    Int(u64),
    Text(String),
}

/// A parsed command line: every value already read and range-checked.
pub struct Args {
    pub command: &'static Command,
    positionals: Vec<String>,
    values: HashMap<&'static str, Value>,
}

impl Args {
    /// The positionals after the subcommand name.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    pub fn int(&self, name: &str) -> Option<u64> {
        match self.values.get(name)? {
            Value::Int(v) => Some(*v),
            Value::Text(_) => None,
        }
    }

    pub fn duration(&self, name: &str) -> Option<Nanos> {
        self.int(name).map(Nanos)
    }

    /// A text or choice flag.
    pub fn text(&self, name: &str) -> Option<&str> {
        match self.values.get(name)? {
            Value::Text(s) => Some(s),
            Value::Int(_) => None,
        }
    }

    /// A usage error for this command, with its usage line.
    pub fn usage(&self, message: impl std::fmt::Display) -> Error {
        usage_error(self.command, message)
    }
}

fn usage_error(command: &Command, message: impl std::fmt::Display) -> Error {
    Error::Usage(format!("{message}\nusage:\n{}", usage_line(command)))
}

/// Parse `argv` (without the program name) against `table`. Flags may
/// appear anywhere; each takes the next argument as its value. A
/// missing or unknown command is a usage error carrying `help`.
pub fn parse(
    table: &'static [Command],
    help: &str,
    argv: impl IntoIterator<Item = String>,
) -> Result<Args, Error> {
    let mut words = Vec::new();
    let mut flags = Vec::new();
    let mut argv = argv.into_iter();
    while let Some(arg) = argv.next() {
        match arg.strip_prefix("--") {
            Some(name) => flags.push((name.to_string(), argv.next())),
            None => words.push(arg),
        }
    }
    let Some(name) = words.first() else {
        return Err(Error::Usage(help.to_string()));
    };
    let Some(command) = table.iter().find(|c| c.name == name) else {
        return Err(Error::Usage(format!("unknown command `{name}`\n\n{help}")));
    };
    let bad = |message: String| usage_error(command, message);

    let mut values = HashMap::new();
    for (name, raw) in flags {
        let Some(flag) = command.flags.iter().find(|f| f.name == name) else {
            return Err(bad(format!("unknown flag --{name} for `{}`", command.name)));
        };
        let Some(raw) = raw else {
            return Err(bad(format!("--{name} needs a value")));
        };
        let value =
            read(flag.kind, &raw).map_err(|why| bad(format!("bad --{name} `{raw}`: {why}")))?;
        values.insert(flag.name, value);
    }
    if let Some(flag) = command
        .flags
        .iter()
        .find(|f| f.required && !values.contains_key(f.name))
    {
        return Err(bad(format!("missing --{} {}", flag.name, flag.meta)));
    }

    let positionals = words.split_off(1);
    let declared: Vec<&str> = command.positionals.split_whitespace().collect();
    if let Some(missing) = declared.get(positionals.len()) {
        return Err(bad(format!("missing {missing}")));
    }
    let variadic = declared.last().is_some_and(|p| p.ends_with("..."));
    if let Some(extra) = positionals.get(declared.len()).filter(|_| !variadic) {
        return Err(bad(format!("unexpected argument `{extra}`")));
    }
    Ok(Args {
        command,
        positionals,
        values,
    })
}

/// Read one flag value, or say why it is not one.
fn read(kind: Kind, raw: &str) -> Result<Value, String> {
    match kind {
        Kind::Int(min, max) => raw
            .parse()
            .ok()
            .filter(|v| (min..=max).contains(v))
            .map(Value::Int)
            .ok_or_else(|| match max {
                u64::MAX => format!("expected an integer >= {min}"),
                _ => format!("expected an integer in {min}..={max}"),
            }),
        Kind::Duration => osn_core::parse_duration(raw).map(|d| Value::Int(d.as_nanos())),
        Kind::Choice(choices) if !choices.contains(&raw) => {
            Err(format!("expected one of {}", choices.join(", ")))
        }
        Kind::Choice(_) | Kind::Text => Ok(Value::Text(raw.to_string())),
    }
}

/// The USAGE section: one generated line per command.
pub fn usage(table: &[Command]) -> String {
    let lines: Vec<String> = table.iter().map(usage_line).collect();
    format!("USAGE:\n{}", lines.join("\n"))
}

/// `  osnoise <name> <positionals> [--flag META]...`, wrapped at 78
/// columns under the first argument.
fn usage_line(command: &Command) -> String {
    let flags = command.flags.iter().map(|f| {
        let meta = match f.kind {
            Kind::Choice(choices) => choices.join("|"),
            _ => f.meta.to_string(),
        };
        match f.required {
            true => format!("--{} {meta}", f.name),
            false => format!("[--{} {meta}]", f.name),
        }
    });
    let positionals = command.positionals.split_whitespace().map(str::to_string);
    let mut line = format!("  osnoise {}", command.name);
    let indent = line.len() + 1;
    let mut width = line.len();
    for word in positionals.chain(flags) {
        if width + 1 + word.len() > 78 {
            line.push('\n');
            line.push_str(&" ".repeat(indent));
            width = indent;
        } else {
            line.push(' ');
            width += 1;
        }
        width += word.len();
        line.push_str(&word);
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Arguments drawn from the real table's command and flag names,
    /// values at and past each kind's limits, and arbitrary characters.
    fn argv() -> impl Strategy<Value = Vec<String>> {
        let values = "umt - 0 1 -1 65536 18446744073709551616 1ms 1e30s raw off x.osn";
        let mut words: Vec<String> = values.split(' ').chain([""]).map(String::from).collect();
        for command in crate::COMMANDS {
            words.push(command.name.to_string());
            words.extend(command.flags.iter().map(|f| format!("--{}", f.name)));
        }
        prop::collection::vec((any::<bool>(), any::<u32>()), 0..10).prop_map(move |parts| {
            parts
                .into_iter()
                .map(|(word, x)| match word {
                    true => words[x as usize % words.len()].clone(),
                    false => char::from_u32(x % 0x11_0000)
                        .unwrap_or('\u{fffd}')
                        .to_string(),
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Any argv parses or is a usage error — never a panic, never a
        /// runtime failure — and a parse holds only declared flags and
        /// the declared number of positionals.
        #[test]
        fn arbitrary_argv_parses_or_is_a_usage_error(words in argv()) {
            match parse(crate::COMMANDS, "USAGE", words.clone()) {
                Ok(args) => {
                    let declared = |k: &&str| args.command.flags.iter().any(|f| f.name == *k);
                    prop_assert!(args.values.keys().all(declared), "{words:?}");
                    let wanted = args.command.positionals.split_whitespace().count();
                    prop_assert!(args.positionals.len() >= wanted, "{words:?}");
                }
                Err(Error::Usage(message)) => prop_assert!(!message.is_empty()),
                Err(Error::Failed(m)) => panic!("{words:?}: runtime failure from the parser: {m}"),
            }
        }
    }
}
