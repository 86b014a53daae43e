//! Concrete configurations: assignments of values to parameters.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A single parameter value.
///
/// The variants mirror [`crate::Domain`]: numeric knobs carry `Float` or
/// `Int`, categorical knobs carry the chosen category string, boolean knobs
/// carry `Bool`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// Continuous value.
    Float(f64),
    /// Integer value.
    Int(i64),
    /// Chosen category (by name, not index, so configs stay readable when
    /// serialized into trial history).
    Cat(String),
    /// Boolean flag.
    Bool(bool),
}

impl Value {
    /// Numeric view of the value: ints and floats as themselves, bools as
    /// 0/1. Returns `None` for categoricals, which have no numeric meaning.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            Value::Cat(_) => None,
        }
    }

    /// The category name, if this is a categorical value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Cat(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean value.
    fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer, if this is an integer value.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Float(v) => write!(f, "{v}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Cat(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Cat(v.to_string())
    }
}

/// A full configuration: a name → value map.
///
/// Backed by a `BTreeMap` so iteration order (and therefore serialization
/// and hashing of the rendered form) is deterministic. The map is shared
/// copy-on-write: a clone costs a reference count, and [`Config::set`],
/// [`Config::with`] and [`Config::remove`] copy it first only when another
/// `Config` still shares it. Both serde forms write the map itself, so
/// the sharing leaves no trace in JSON or CBOR.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Config {
    values: Arc<BTreeMap<String, Value>>,
}

impl Config {
    /// Empty configuration.
    pub fn new() -> Self {
        Config::default()
    }

    /// Sets a value, replacing any previous assignment.
    pub fn set(&mut self, name: impl Into<String>, value: impl Into<Value>) {
        Arc::make_mut(&mut self.values).insert(name.into(), value.into());
    }

    /// Builder-style [`Config::set`].
    pub fn with(mut self, name: impl Into<String>, value: impl Into<Value>) -> Self {
        self.set(name, value);
        self
    }

    /// Looks a value up by parameter name.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.values.get(name)
    }

    /// Numeric view of a parameter, if present and numeric.
    pub fn get_f64(&self, name: &str) -> Option<f64> {
        self.get(name).and_then(Value::as_f64)
    }

    /// Categorical view of a parameter, if present and categorical.
    pub fn get_str(&self, name: &str) -> Option<&str> {
        self.get(name).and_then(Value::as_str)
    }

    /// Boolean view of a parameter, if present and boolean.
    pub fn get_bool(&self, name: &str) -> Option<bool> {
        self.get(name).and_then(Value::as_bool)
    }

    /// Integer view of a parameter, if present and integer.
    pub fn get_i64(&self, name: &str) -> Option<i64> {
        self.get(name).and_then(Value::as_i64)
    }

    /// Removes a value (used when deactivating conditional parameters).
    pub fn remove(&mut self, name: &str) -> Option<Value> {
        Arc::make_mut(&mut self.values).remove(name)
    }

    /// Number of assigned parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no parameters are assigned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.values.iter()
    }

    /// True when `self` and `other` share one map: one was cloned from
    /// the other and neither has been written since. Sharing implies
    /// equality; two equal configs built apart do not share.
    pub fn shares(&self, other: &Config) -> bool {
        Arc::ptr_eq(&self.values, &other.values)
    }

    /// A stable, human-readable one-line rendering, e.g.
    /// `a=1, b=fsync, c=true`. Used as a by-value key where configs are
    /// deduplicated or matched (`Space` sampling, LlamaTune, the online
    /// tuner).
    pub fn render(&self) -> String {
        let parts: Vec<String> = self
            .values
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        parts.join(", ")
    }
}

impl std::fmt::Display for Config {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{{}}}", self.render())
    }
}

impl FromIterator<(String, Value)> for Config {
    fn from_iter<T: IntoIterator<Item = (String, Value)>>(iter: T) -> Self {
        Config {
            values: Arc::new(iter.into_iter().collect()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut c = Config::new();
        c.set("x", 1.5);
        c.set("n", 42i64);
        c.set("mode", "fast");
        c.set("jit", true);
        assert_eq!(c.get_f64("x"), Some(1.5));
        assert_eq!(c.get_i64("n"), Some(42));
        assert_eq!(c.get_str("mode"), Some("fast"));
        assert_eq!(c.get_bool("jit"), Some(true));
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn numeric_view_of_bool_and_int() {
        assert_eq!(Value::Bool(true).as_f64(), Some(1.0));
        assert_eq!(Value::Bool(false).as_f64(), Some(0.0));
        assert_eq!(Value::Int(-3).as_f64(), Some(-3.0));
        assert_eq!(Value::Cat("x".into()).as_f64(), None);
    }

    #[test]
    fn render_is_sorted_and_stable() {
        let c = Config::new().with("zeta", 1.0).with("alpha", 2i64);
        assert_eq!(c.render(), "alpha=2, zeta=1");
    }

    #[test]
    fn overwrite_replaces() {
        let mut c = Config::new();
        c.set("x", 1.0);
        c.set("x", 2.0);
        assert_eq!(c.get_f64("x"), Some(2.0));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn remove_and_empty() {
        let mut c = Config::new().with("x", 1.0);
        assert!(!c.is_empty());
        assert_eq!(c.remove("x"), Some(Value::Float(1.0)));
        assert!(c.is_empty());
        assert_eq!(c.remove("x"), None);
    }

    #[test]
    fn serde_roundtrip() {
        let c = Config::new()
            .with("bp", 4.0)
            .with("flush", "O_DIRECT")
            .with("threads", 8i64);
        let json = serde_json::to_string(&c).unwrap();
        let back: Config = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }

    /// Everything a config shows of itself: its rendering and both
    /// encodings.
    fn faces(c: &Config) -> (String, String, Vec<u8>) {
        let mut cbor = Vec::new();
        ciborium::into_writer(c, &mut cbor).unwrap();
        (c.render(), serde_json::to_string(c).unwrap(), cbor)
    }

    #[test]
    fn writing_a_clone_leaves_the_original_as_it_was() {
        let build = || {
            Config::new()
                .with("bp", 4.0)
                .with("flush", "O_DIRECT")
                .with("threads", 8i64)
        };
        let original = build();
        let before = faces(&original);
        let writes: [fn(Config) -> Config; 4] = [
            |mut c| {
                c.set("bp", 5.0);
                c
            },
            |c| c.with("jit", true),
            |mut c| {
                c.remove("flush");
                c
            },
            // A write that changes no value still copies.
            |mut c| {
                c.set("threads", 8i64);
                c
            },
        ];
        for write in writes {
            let copy = original.clone();
            assert!(copy.shares(&original) && original.shares(&copy));
            assert_eq!(faces(&copy), before);
            let written = write(copy);
            assert!(!written.shares(&original));
            assert_eq!(faces(&original), before);
            assert_eq!(original, build());
        }
        // Writing the original leaves the clone as it was, too.
        let copy = original.clone();
        let mut written = original;
        written.set("bp", 6.0);
        assert!(!written.shares(&copy) && !copy.shares(&written));
        assert_eq!(faces(&copy), before);
        // Equal configs built apart do not share.
        let twin = build();
        assert!(twin == copy && !twin.shares(&copy));
    }

    #[test]
    fn from_iterator_collects() {
        let c: Config = vec![
            ("a".to_string(), Value::Float(1.0)),
            ("b".to_string(), Value::Bool(false)),
        ]
        .into_iter()
        .collect();
        assert_eq!(c.len(), 2);
    }
}
