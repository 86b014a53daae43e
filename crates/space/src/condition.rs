//! Conditional (structured) parameter dependencies.
//!
//! The tutorial's example: when PostgreSQL's `jit` knob is `off`, the
//! `jit_above_cost` / `jit_inline_above_cost` / … knobs are meaningless and
//! should not be explored. A [`Condition`] records "child is active only
//! when parent currently equals one of these values".

use crate::{Config, Value};
use serde::{Deserialize, Serialize};

/// Activation rule for a conditional parameter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Condition {
    /// The dependent parameter.
    pub child: String,
    /// The controlling parameter.
    pub parent: String,
    /// Parent values that activate the child.
    pub active_when: Vec<Value>,
}

impl Condition {
    /// `child` is active only when `parent == value`.
    pub fn equals(
        child: impl Into<String>,
        parent: impl Into<String>,
        value: impl Into<Value>,
    ) -> Self {
        Condition {
            child: child.into(),
            parent: parent.into(),
            active_when: vec![value.into()],
        }
    }

    /// Whether this condition is satisfied under `config` (i.e. whether the
    /// child should be active). A missing parent counts as inactive: the
    /// parent itself may be a deactivated conditional.
    pub fn is_active(&self, config: &Config) -> bool {
        config
            .get(&self.parent)
            .is_some_and(|v| self.active_when.contains(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equals_activation() {
        let c = Condition::equals("jit_above_cost", "jit", true);
        let on = Config::new().with("jit", true);
        let off = Config::new().with("jit", false);
        assert!(c.is_active(&on));
        assert!(!c.is_active(&off));
    }

    #[test]
    fn missing_parent_is_inactive() {
        let c = Condition::equals("child", "parent", "x");
        assert!(!c.is_active(&Config::new()));
    }
}
