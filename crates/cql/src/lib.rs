//! # icdb-cql — the Component Query Language
//!
//! CQL is ICDB's user interface (paper §3.2, Appendix B). A command is a
//! `;`-delimited string of `keyword:value` terms; values may be scalars
//! (`counter`, `30`), lists (`(INC,DEC)`), attribute lists (`(size:5)`),
//! or **slots** bound to caller variables — `%s`/`%d`/`%r` for inputs and
//! `?s`/`?d`/`?r` (with `[]` for arrays) for outputs, mirroring the C
//! `ICDB("…", &vars)` calling convention:
//!
//! ```text
//! command:request_component;
//! component_name:counter;
//! attribute:(size:5);
//! function:(INC);
//! clock_width:30;
//! generated_component:?s
//! ```
//!
//! [`parse_command`] substitutes the input slots from a [`CqlArg`] array
//! and records where outputs must be written; after an executor produces a
//! [`Response`], [`bind_outputs`] copies the results back — the Rust
//! equivalent of ICDB filling the caller's `&counter_ins`.
//!
//! ```
//! use icdb_cql::{parse_command, bind_outputs, CqlArg, CqlValue, Response};
//!
//! let mut args = vec![
//!     CqlArg::InStr("counter".into()),
//!     CqlArg::OutStr(None),
//! ];
//! let (cmd, outs) = parse_command(
//!     "command:request_component; component_name:%s; generated_component:?s",
//!     &args,
//! ).unwrap();
//! assert_eq!(cmd.name, "request_component");
//! assert_eq!(cmd.str_term("component_name"), Some("counter"));
//!
//! // … an executor runs the command and answers:
//! let mut resp = Response::new();
//! resp.set("generated_component", CqlValue::Str("counter$1".into()));
//! bind_outputs(&resp, &outs, &mut args).unwrap();
//! assert_eq!(args[1], CqlArg::OutStr(Some("counter$1".into())));
//! ```
//!
//! [`COMMANDS`] is the one list of request verbs — every CQL command and
//! every `icdbd` wire verb — with the lock [`Tier`] each runs under.

#![deny(rustdoc::broken_intra_doc_links)]

mod commands;

pub use commands::{command_spec, CommandSpec, Tier, COMMANDS};

use std::collections::HashMap;
use std::fmt;

/// Slot element type (`s` string, `d` integer, `r` real, `f` file name).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotType {
    /// `s` — string.
    Str,
    /// `d` — integer.
    Int,
    /// `r` — real.
    Real,
    /// `f` — file name (a string naming design data in the file store).
    File,
}

/// A `%`/`?` slot found in a command string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotSpec {
    /// True for `%` (input to ICDB), false for `?` (output from ICDB).
    pub input: bool,
    /// Element type.
    pub ty: SlotType,
    /// True for array slots (`?s[]`).
    pub array: bool,
}

/// A caller-side argument, mirroring the C varargs of `ICDB()`.
#[derive(Debug, Clone, PartialEq)]
pub enum CqlArg {
    /// `%s` input.
    InStr(String),
    /// `%d` input.
    InInt(i64),
    /// `%r` input.
    InReal(f64),
    /// `%s[]` input.
    InStrList(Vec<String>),
    /// `?s` output (filled by [`bind_outputs`]).
    OutStr(Option<String>),
    /// `?d` output.
    OutInt(Option<i64>),
    /// `?r` output.
    OutReal(Option<f64>),
    /// `?s[]` output.
    OutStrList(Option<Vec<String>>),
    /// `?d[]` output.
    OutIntList(Option<Vec<i64>>),
    /// `?r[]` output.
    OutRealList(Option<Vec<f64>>),
}

/// A resolved term value.
#[derive(Debug, Clone, PartialEq)]
pub enum CqlValue {
    /// Scalar text (`counter`, `fastest`).
    Str(String),
    /// Integer (`30`).
    Int(i64),
    /// Real (`29.5`).
    Real(f64),
    /// Name list (`(INC,DEC)`).
    List(Vec<String>),
    /// Attribute list (`(size:5,type:2)`).
    Attrs(Vec<(String, String)>),
    /// Unresolved output slot (present in [`Command::terms`] where a `?`
    /// slot appeared).
    Pending(SlotSpec),
    /// String list produced by an executor for `?s[]`.
    StrList(Vec<String>),
    /// Integer list for `?d[]`.
    IntList(Vec<i64>),
    /// Real list for `?r[]`.
    RealList(Vec<f64>),
}

/// One `keyword:value` term.
#[derive(Debug, Clone, PartialEq)]
pub struct Term {
    /// Keyword left of the `:`.
    pub key: String,
    /// Parsed value.
    pub value: CqlValue,
}

/// A parsed command with inputs substituted.
#[derive(Debug, Clone, PartialEq)]
pub struct Command {
    /// Value of the mandatory `command:` term.
    pub name: String,
    /// Remaining terms in order (excluding `command:` itself).
    pub terms: Vec<Term>,
}

/// Where an output slot must be written back: `(term key, argument index,
/// spec)`.
#[derive(Debug, Clone, PartialEq)]
pub struct OutBinding {
    /// Term keyword the executor will answer under.
    pub key: String,
    /// Index into the caller's argument array.
    pub arg_index: usize,
    /// Slot type/arity.
    pub spec: SlotSpec,
}

/// Executor answer: keyword → value.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Response {
    values: HashMap<String, CqlValue>,
}

impl Response {
    /// Empty response.
    pub fn new() -> Response {
        Response::default()
    }

    /// Sets (or replaces) an answer.
    pub fn set(&mut self, key: impl Into<String>, value: CqlValue) {
        self.values.insert(key.into(), value);
    }

    /// Reads an answer.
    pub fn get(&self, key: &str) -> Option<&CqlValue> {
        self.values.get(key)
    }
}

/// CQL parse/binding error.
#[derive(Debug, Clone, PartialEq)]
pub struct CqlError {
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for CqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cql error: {}", self.message)
    }
}

impl std::error::Error for CqlError {}

fn cerr(message: impl Into<String>) -> CqlError {
    CqlError {
        message: message.into(),
    }
}

impl Command {
    /// Value of a term as text (scalars and numbers render to text).
    pub fn str_term(&self, key: &str) -> Option<&str> {
        self.terms
            .iter()
            .find(|t| t.key == key)
            .and_then(|t| match &t.value {
                CqlValue::Str(s) => Some(s.as_str()),
                _ => None,
            })
    }

    /// Value of a term as an integer.
    pub fn int_term(&self, key: &str) -> Option<i64> {
        self.terms
            .iter()
            .find(|t| t.key == key)
            .and_then(|t| match &t.value {
                CqlValue::Int(v) => Some(*v),
                CqlValue::Str(s) => s.parse().ok(),
                _ => None,
            })
    }

    /// Value of a term as a real.
    pub fn real_term(&self, key: &str) -> Option<f64> {
        self.terms
            .iter()
            .find(|t| t.key == key)
            .and_then(|t| match &t.value {
                CqlValue::Real(v) => Some(*v),
                CqlValue::Int(v) => Some(*v as f64),
                CqlValue::Str(s) => s.parse().ok(),
                _ => None,
            })
    }

    /// Name-list term (`function:(INC,DEC)`), accepting single scalars as
    /// one-element lists.
    pub fn list_term(&self, key: &str) -> Option<Vec<String>> {
        self.terms
            .iter()
            .find(|t| t.key == key)
            .and_then(|t| match &t.value {
                CqlValue::List(v) => Some(v.clone()),
                CqlValue::Str(s) => Some(vec![s.clone()]),
                _ => None,
            })
    }

    /// Attribute-list term (`attribute:(size:5)`).
    pub fn attrs_term(&self, key: &str) -> Option<&[(String, String)]> {
        self.terms
            .iter()
            .find(|t| t.key == key)
            .and_then(|t| match &t.value {
                CqlValue::Attrs(v) => Some(v.as_slice()),
                _ => None,
            })
    }

    /// Whether a term is present at all.
    pub fn has(&self, key: &str) -> bool {
        self.terms.iter().any(|t| t.key == key)
    }

    /// Keys the caller expects answers for (pending output slots).
    pub fn pending_keys(&self) -> Vec<&str> {
        self.terms
            .iter()
            .filter(|t| matches!(t.value, CqlValue::Pending(_)))
            .map(|t| t.key.as_str())
            .collect()
    }
}

/// Parses a command description string, substituting `%` inputs from
/// `args` (in order) and recording `?` outputs.
///
/// # Errors
/// Fails on missing `command:` term, malformed terms, slot/argument type
/// mismatches, or too few arguments.
pub fn parse_command(text: &str, args: &[CqlArg]) -> Result<(Command, Vec<OutBinding>), CqlError> {
    let mut name = None;
    let mut terms = Vec::new();
    let mut outs = Vec::new();
    let mut arg_cursor = 0usize;

    for raw_term in split_terms(text) {
        let raw_term = raw_term.trim();
        if raw_term.is_empty() {
            continue;
        }
        let (key, value_text) = raw_term
            .split_once(':')
            .ok_or_else(|| cerr(format!("term `{raw_term}` lacks a `:`")))?;
        let key = key.trim().to_string();
        let value_text = value_text.trim();

        let value = if let Some(spec) = parse_slot(value_text)? {
            if spec.input {
                let arg = args
                    .get(arg_cursor)
                    .ok_or_else(|| cerr(format!("no argument left for input slot `{key}`")))?;
                let v = substitute_input(&key, spec, arg)?;
                arg_cursor += 1;
                v
            } else {
                outs.push(OutBinding {
                    key: key.clone(),
                    arg_index: arg_cursor,
                    spec,
                });
                arg_cursor += 1;
                CqlValue::Pending(spec)
            }
        } else {
            parse_value(value_text)
        };

        if key == "command" {
            match value {
                CqlValue::Str(s) => name = Some(s),
                other => return Err(cerr(format!("command name must be text, got {other:?}"))),
            }
        } else {
            terms.push(Term { key, value });
        }
    }

    let name = name.ok_or_else(|| cerr("missing `command:` term"))?;
    Ok((Command { name, terms }, outs))
}

/// Copies executor answers into the caller's output arguments.
///
/// # Errors
/// Fails when an expected answer is missing or has the wrong type.
pub fn bind_outputs(
    response: &Response,
    outs: &[OutBinding],
    args: &mut [CqlArg],
) -> Result<(), CqlError> {
    for out in outs {
        let value = response
            .get(&out.key)
            .ok_or_else(|| cerr(format!("executor produced no `{}` answer", out.key)))?;
        let arg = args
            .get_mut(out.arg_index)
            .ok_or_else(|| cerr(format!("argument {} out of range", out.arg_index)))?;
        match (arg, value, out.spec.array) {
            (CqlArg::OutStr(slot), CqlValue::Str(s), false) => *slot = Some(s.clone()),
            (CqlArg::OutInt(slot), CqlValue::Int(v), false) => *slot = Some(*v),
            (CqlArg::OutReal(slot), CqlValue::Real(v), false) => *slot = Some(*v),
            (CqlArg::OutReal(slot), CqlValue::Int(v), false) => *slot = Some(*v as f64),
            (CqlArg::OutStrList(slot), CqlValue::StrList(v), true) => *slot = Some(v.clone()),
            (CqlArg::OutStrList(slot), CqlValue::List(v), true) => *slot = Some(v.clone()),
            (CqlArg::OutIntList(slot), CqlValue::IntList(v), true) => *slot = Some(v.clone()),
            (CqlArg::OutRealList(slot), CqlValue::RealList(v), true) => *slot = Some(v.clone()),
            (arg, value, _) => {
                return Err(cerr(format!(
                    "type mismatch for `{}`: answer {value:?} does not fit argument {arg:?}",
                    out.key
                )))
            }
        }
    }
    Ok(())
}

/// Scans a command string for its `%`/`?` slots, in argument order,
/// without substituting anything — the wire protocol of `icdbd` uses this
/// to size and type a [`CqlArg`] array before calling [`parse_command`].
///
/// # Errors
/// Fails on malformed slot syntax (`%x`, `?s[`).
pub fn scan_slots(text: &str) -> Result<Vec<SlotSpec>, CqlError> {
    let mut slots = Vec::new();
    for raw_term in split_terms(text) {
        let raw_term = raw_term.trim();
        if raw_term.is_empty() {
            continue;
        }
        let Some((_, value_text)) = raw_term.split_once(':') else {
            continue; // parse_command reports the real error later
        };
        if let Some(spec) = parse_slot(value_text.trim())? {
            slots.push(spec);
        }
    }
    Ok(slots)
}

/// Splits on `;` outside parentheses.
fn split_terms(text: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, c) in text.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ';' if depth == 0 => {
                out.push(&text[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&text[start..]);
    out
}

/// Recognizes `%s`, `?d[]`, etc.
fn parse_slot(text: &str) -> Result<Option<SlotSpec>, CqlError> {
    let mut chars = text.chars();
    let lead = chars.next();
    let input = match lead {
        Some('%') => true,
        Some('?') => false,
        _ => return Ok(None),
    };
    let ty = match chars.next() {
        Some('s') => SlotType::Str,
        Some('d') => SlotType::Int,
        Some('r') => SlotType::Real,
        Some('f') => SlotType::File,
        other => return Err(cerr(format!("bad slot type `{other:?}` in `{text}`"))),
    };
    let rest: String = chars.collect();
    let array = match rest.as_str() {
        "" => false,
        "[]" => true,
        other => return Err(cerr(format!("bad slot suffix `{other}` in `{text}`"))),
    };
    Ok(Some(SlotSpec { input, ty, array }))
}

fn substitute_input(key: &str, spec: SlotSpec, arg: &CqlArg) -> Result<CqlValue, CqlError> {
    match (spec.ty, spec.array, arg) {
        (SlotType::Str | SlotType::File, false, CqlArg::InStr(s)) => Ok(CqlValue::Str(s.clone())),
        (SlotType::Int, false, CqlArg::InInt(v)) => Ok(CqlValue::Int(*v)),
        (SlotType::Real, false, CqlArg::InReal(v)) => Ok(CqlValue::Real(*v)),
        (SlotType::Real, false, CqlArg::InInt(v)) => Ok(CqlValue::Real(*v as f64)),
        (SlotType::Str, true, CqlArg::InStrList(v)) => Ok(CqlValue::List(v.clone())),
        (ty, array, arg) => Err(cerr(format!(
            "input slot `{key}` ({ty:?}{}) does not match argument {arg:?}",
            if array { "[]" } else { "" }
        ))),
    }
}

/// Parses a non-slot value: number, `(list)`, `(attr:val,…)` or scalar.
fn parse_value(text: &str) -> CqlValue {
    if let Some(inner) = text.strip_prefix('(').and_then(|t| t.strip_suffix(')')) {
        let items: Vec<&str> = split_top_commas(inner);
        let is_attrs = items.iter().all(|i| i.contains(':')) && !items.is_empty();
        if is_attrs {
            let attrs = items
                .iter()
                .filter_map(|i| {
                    i.split_once(':')
                        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
                })
                .collect();
            return CqlValue::Attrs(attrs);
        }
        return CqlValue::List(items.iter().map(|i| i.trim().to_string()).collect());
    }
    if let Ok(v) = text.parse::<i64>() {
        return CqlValue::Int(v);
    }
    if let Ok(v) = text.parse::<f64>() {
        return CqlValue::Real(v);
    }
    CqlValue::Str(text.to_string())
}

fn split_top_commas(text: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, c) in text.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                out.push(&text[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&text[start..]);
    out.into_iter().filter(|s| !s.trim().is_empty()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_papers_counter_request() {
        let (cmd, outs) = parse_command(
            "command:request_component;
             component_name:counter;
             attribute:(size:5);
             function:(INC);
             clock_width:30;
             set_up_time:30;
             generated_component:?s",
            &[CqlArg::OutStr(None)],
        )
        .unwrap();
        assert_eq!(cmd.name, "request_component");
        assert_eq!(cmd.str_term("component_name"), Some("counter"));
        assert_eq!(
            cmd.attrs_term("attribute").unwrap()[0],
            ("size".into(), "5".into())
        );
        assert_eq!(cmd.list_term("function").unwrap(), vec!["INC"]);
        assert_eq!(cmd.int_term("clock_width"), Some(30));
        assert_eq!(outs.len(), 1);
        assert_eq!(cmd.pending_keys(), vec!["generated_component"]);
    }

    #[test]
    fn input_slots_substitute_in_order() {
        let args = vec![
            CqlArg::InStr("Adder_Subtractor".into()),
            CqlArg::InInt(4),
            CqlArg::OutStr(None),
        ];
        let (cmd, outs) = parse_command(
            "command:request_component; component_name:%s; size:%d;
             strategy:fastest; component_instance:?s",
            &args,
        )
        .unwrap();
        assert_eq!(cmd.str_term("component_name"), Some("Adder_Subtractor"));
        assert_eq!(cmd.int_term("size"), Some(4));
        assert_eq!(cmd.str_term("strategy"), Some("fastest"));
        assert_eq!(outs[0].arg_index, 2);
    }

    #[test]
    fn output_binding_round_trip() {
        let mut args = vec![CqlArg::OutStrList(None), CqlArg::OutStr(None)];
        let (_, outs) = parse_command(
            "command:component_query; component:counter; ICDB_components:?s[]; best:?s",
            &args,
        )
        .unwrap();
        let mut resp = Response::new();
        resp.set(
            "ICDB_components",
            CqlValue::StrList(vec!["ripple".into(), "sync".into()]),
        );
        resp.set("best", CqlValue::Str("sync".into()));
        bind_outputs(&resp, &outs, &mut args).unwrap();
        assert_eq!(
            args[0],
            CqlArg::OutStrList(Some(vec!["ripple".into(), "sync".into()]))
        );
        assert_eq!(args[1], CqlArg::OutStr(Some("sync".into())));
    }

    #[test]
    fn multiple_functions_parse_as_list() {
        let (cmd, _) = parse_command(
            "command:function_query; function:(ADD,SUB); component:?s[]",
            &[CqlArg::OutStrList(None)],
        )
        .unwrap();
        assert_eq!(cmd.list_term("function").unwrap(), vec!["ADD", "SUB"]);
    }

    #[test]
    fn errors_on_missing_command_and_bad_slots() {
        assert!(parse_command("component:counter", &[]).is_err());
        assert!(parse_command("command:x; y:%q", &[CqlArg::InStr("a".into())]).is_err());
        assert!(parse_command("command:x; y:%s", &[]).is_err());
        // Type mismatch: %d slot with a string arg.
        assert!(parse_command("command:x; y:%d", &[CqlArg::InStr("not an int".into())]).is_err());
    }

    #[test]
    fn bind_rejects_missing_or_mistyped_answers() {
        let mut args = vec![CqlArg::OutStr(None)];
        let (_, outs) = parse_command("command:x; y:?s", &args).unwrap();
        let empty = Response::new();
        assert!(bind_outputs(&empty, &outs, &mut args).is_err());
        let mut wrong = Response::new();
        wrong.set("y", CqlValue::Int(5));
        assert!(bind_outputs(&wrong, &outs, &mut args).is_err());
    }

    #[test]
    fn semicolons_inside_parens_do_not_split() {
        let (cmd, _) = parse_command("command:x; attribute:(a:1,b:2); z:done", &[]).unwrap();
        assert_eq!(cmd.attrs_term("attribute").unwrap().len(), 2);
        assert_eq!(cmd.str_term("z"), Some("done"));
    }

    #[test]
    fn numeric_value_forms() {
        let (cmd, _) = parse_command("command:x; a:30; b:29.5; c:fastest", &[]).unwrap();
        assert_eq!(cmd.int_term("a"), Some(30));
        assert_eq!(cmd.real_term("b"), Some(29.5));
        assert_eq!(cmd.real_term("a"), Some(30.0));
        assert_eq!(cmd.str_term("c"), Some("fastest"));
    }
}
