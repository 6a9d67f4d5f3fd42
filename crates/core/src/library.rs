//! The generic component library (paper §4.1): parameterized component
//! implementations in IIF, their ICDB data (functions performed, parameter
//! descriptions, attributes, connection information), and retrieval by
//! component type or by function.

use crate::error::IcdbError;
use icdb_genus::ConnectionTable;
use icdb_iif::{Module, ModuleResolver};
use std::collections::HashMap;

/// One parameter of a parameterized implementation with its default.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSpec {
    /// Parameter name (matches the IIF `PARAMETER:` declaration).
    pub name: String,
    /// Default value used when the request omits the attribute.
    pub default: i64,
}

/// A component implementation stored in the knowledge base.
#[derive(Debug, Clone)]
pub struct ComponentImpl {
    /// Implementation name (`COUNTER`, `ADDER`, …).
    pub name: String,
    /// The component type it belongs to (`Counter`, `Adder`, …).
    pub component_type: String,
    /// Functions this implementation can perform (GENUS names; some
    /// variants depend on parameter values).
    pub functions: Vec<String>,
    /// Parsed IIF.
    pub module: Module,
    /// Parameters with defaults, in IIF declaration order.
    pub params: Vec<ParamSpec>,
    /// How to invoke each function (ports and control codes).
    pub connection: ConnectionTable,
    /// One-line description.
    pub description: String,
}

impl ComponentImpl {
    /// Whether this implementation executes every listed function
    /// (case-insensitive GENUS names; an empty list always holds).
    pub fn executes_all(&self, functions: &[String]) -> bool {
        functions
            .iter()
            .all(|f| self.functions.iter().any(|cf| cf.eq_ignore_ascii_case(f)))
    }

    /// Resolves attribute overrides (textual `key:value` pairs) into the
    /// positional parameter values the expander needs.
    ///
    /// # Errors
    /// Fails on unknown attribute names or unparsable values.
    pub fn bind_attributes(
        &self,
        attributes: &[(String, String)],
    ) -> Result<Vec<(String, i64)>, IcdbError> {
        let mut values: Vec<(String, i64)> = self
            .params
            .iter()
            .map(|p| (p.name.clone(), p.default))
            .collect();
        for (key, value) in attributes {
            let slot = values.iter_mut().find(|(n, _)| n == key).ok_or_else(|| {
                IcdbError::Unsupported(format!(
                    "implementation `{}` has no attribute `{key}` (has: {})",
                    self.name,
                    self.params
                        .iter()
                        .map(|p| p.name.as_str())
                        .collect::<Vec<_>>()
                        .join(", ")
                ))
            })?;
            slot.1 = parse_attr_value(key, value)?;
        }
        Ok(values)
    }
}

/// Symbolic attribute values accepted in requests (`type:ripple`,
/// `up_or_down:updown`, `enable:1`).
fn parse_attr_value(key: &str, value: &str) -> Result<i64, IcdbError> {
    if let Ok(v) = value.parse::<i64>() {
        return Ok(v);
    }
    let symbolic = match (key, value.to_ascii_lowercase().as_str()) {
        ("type", "ripple") => Some(1),
        ("type", "synchronous" | "sync") => Some(2),
        ("up_or_down", "up") => Some(1),
        ("up_or_down", "down") => Some(2),
        ("up_or_down", "updown" | "up_down" | "both") => Some(3),
        (_, "true" | "yes" | "on") => Some(1),
        (_, "false" | "no" | "off") => Some(0),
        _ => None,
    };
    symbolic
        .ok_or_else(|| IcdbError::Unsupported(format!("cannot interpret attribute {key}:{value}")))
}

/// The knowledge base of implementations, indexed by name, component type
/// and function.
#[derive(Debug, Clone, Default)]
pub struct GenericComponentLibrary {
    impls: Vec<ComponentImpl>,
    by_name: HashMap<String, usize>,
    /// Bumped on every mutation; cache keys embed it so knowledge
    /// acquisition invalidates stale generation-cache entries.
    version: u64,
}

impl GenericComponentLibrary {
    /// An empty library (knowledge acquisition inserts into it).
    pub fn new() -> Self {
        GenericComponentLibrary::default()
    }

    /// The library preloaded with the builtin IIF implementations
    /// (counter, adder, adder/subtractor, register, ALU, …).
    ///
    /// # Panics
    /// Panics if a builtin source fails to parse — a build-time invariant
    /// covered by tests.
    pub fn standard() -> Self {
        let mut lib = GenericComponentLibrary::new();
        for b in crate::builtin::builtins() {
            lib.insert(b)
                .expect("builtin implementations are well-formed");
        }
        lib
    }

    /// Inserts an implementation (the knowledge-server path).
    ///
    /// # Errors
    /// Fails on duplicate names or module/parameter mismatches.
    pub fn insert(&mut self, imp: ComponentImpl) -> Result<(), IcdbError> {
        if self.by_name.contains_key(&imp.name) {
            return Err(IcdbError::Unsupported(format!(
                "implementation `{}` already present",
                imp.name
            )));
        }
        for p in &imp.params {
            if !imp.module.parameters.contains(&p.name) {
                return Err(IcdbError::Unsupported(format!(
                    "implementation `{}` declares param `{}` missing from its IIF",
                    imp.name, p.name
                )));
            }
        }
        self.by_name.insert(imp.name.clone(), self.impls.len());
        self.impls.push(imp);
        self.version += 1;
        Ok(())
    }

    /// Mutation counter; [`crate::RequestKey`]s embed it so generation-cache
    /// entries made against an older library state can never hit.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Looks an implementation up by name (case-insensitive).
    pub fn implementation(&self, name: &str) -> Option<&ComponentImpl> {
        if let Some(&i) = self.by_name.get(name) {
            return Some(&self.impls[i]);
        }
        let up = name.to_ascii_uppercase();
        self.impls
            .iter()
            .find(|c| c.name.to_ascii_uppercase() == up)
    }

    /// All implementations of a component type (`counter` → the counters).
    pub fn by_component_type(&self, ty: &str) -> Vec<&ComponentImpl> {
        let low = ty.to_ascii_lowercase();
        self.impls
            .iter()
            .filter(|c| c.component_type.to_ascii_lowercase() == low)
            .collect()
    }

    /// All implementations that can execute *every* listed function
    /// (paper §4.1: multi-function retrieval, e.g. COUNTER ∧ STORAGE →
    /// the up-down counter).
    pub fn by_functions(&self, functions: &[String]) -> Vec<&ComponentImpl> {
        self.impls
            .iter()
            .filter(|c| c.executes_all(functions))
            .collect()
    }

    /// Every implementation.
    pub fn iter(&self) -> impl Iterator<Item = &ComponentImpl> {
        self.impls.iter()
    }

    /// Number of implementations.
    pub fn len(&self) -> usize {
        self.impls.len()
    }

    /// Whether the library is empty.
    pub fn is_empty(&self) -> bool {
        self.impls.is_empty()
    }
}

impl ModuleResolver for GenericComponentLibrary {
    fn resolve(&self, name: &str) -> Option<&Module> {
        self.implementation(name).map(|c| &c.module)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_library_loads_all_builtins() {
        let lib = GenericComponentLibrary::standard();
        for name in [
            "COUNTER",
            "RIPPLE_COUNTER",
            "JOHNSON_COUNTER",
            "ADDER",
            "ADDSUB",
            "REGISTER",
            "INCREMENTER",
            "COMPARATOR",
            "SHL0",
            "MUX",
            "DECODER",
            "ENCODER",
            "LOGIC_UNIT",
            "ALU",
            "SHIFT_REGISTER",
            "TRISTATE_DRIVER",
            "PARITY",
            "AND_GATE",
            "OR_GATE",
        ] {
            assert!(lib.implementation(name).is_some(), "missing builtin {name}");
        }
        assert!(lib.len() >= 18);
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let lib = GenericComponentLibrary::standard();
        assert!(lib.implementation("counter").is_some());
        assert!(lib.implementation("Adder_subtractor").is_none());
    }

    #[test]
    fn function_retrieval_multi() {
        let lib = GenericComponentLibrary::standard();
        // The §4.1 example: COUNTER ∧ STORAGE finds the counter but not the
        // plain register.
        let both = lib.by_functions(&["COUNTER".to_string(), "STORAGE".to_string()]);
        assert!(both.iter().any(|c| c.name == "COUNTER"));
        assert!(!both.iter().any(|c| c.name == "REGISTER"));
        // STORAGE alone returns both counter and register.
        let storage = lib.by_functions(&["STORAGE".to_string()]);
        assert!(storage.iter().any(|c| c.name == "COUNTER"));
        assert!(storage.iter().any(|c| c.name == "REGISTER"));
    }

    #[test]
    fn component_type_retrieval() {
        let lib = GenericComponentLibrary::standard();
        let counters = lib.by_component_type("Counter");
        assert!(
            counters.len() >= 3,
            "COUNTER, RIPPLE_COUNTER and JOHNSON_COUNTER"
        );
    }

    #[test]
    fn attribute_binding_with_defaults_and_symbols() {
        let lib = GenericComponentLibrary::standard();
        let counter = lib.implementation("COUNTER").unwrap();
        let vals = counter
            .bind_attributes(&[
                ("size".to_string(), "5".to_string()),
                ("type".to_string(), "ripple".to_string()),
                ("up_or_down".to_string(), "updown".to_string()),
            ])
            .unwrap();
        let get = |n: &str| vals.iter().find(|(k, _)| k == n).unwrap().1;
        assert_eq!(get("size"), 5);
        assert_eq!(get("type"), 1);
        assert_eq!(get("up_or_down"), 3);
        assert_eq!(get("load"), 0, "default");
        assert!(counter
            .bind_attributes(&[("bogus".to_string(), "1".to_string())])
            .is_err());
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut lib = GenericComponentLibrary::standard();
        let dup = lib.implementation("ADDER").unwrap().clone();
        assert!(lib.insert(dup).is_err());
    }

    #[test]
    fn counter_has_connection_table() {
        let lib = GenericComponentLibrary::standard();
        let counter = lib.implementation("COUNTER").unwrap();
        let text = counter.connection.to_paper_format();
        assert!(text.contains("## function INC"), "{text}");
        assert!(text.contains("** DWUP 0"), "{text}");
    }
}
