//! Nearest-neighbour configuration reuse (tutorial slide 92: "apply
//! optimized configurations to other similar systems").
//!
//! A [`ConfigStore`] remembers `(workload embedding, tuned config, score)`
//! triples from past tuning campaigns. A new workload is matched to its
//! nearest stored neighbour; if the match is close enough, the stored
//! config is recommended outright (zero new trials), otherwise it becomes
//! a warm start.

use autotune_space::Config;
use serde::{Deserialize, Serialize};

/// One remembered tuning outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredConfig {
    /// Human-readable workload label (for reports).
    pub label: String,
    /// Embedding of the workload the config was tuned for.
    pub embedding: Vec<f64>,
    /// The tuned configuration.
    pub config: Config,
    /// The objective it achieved (minimization convention).
    pub score: f64,
}

/// A similarity-indexed store of tuned configurations.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ConfigStore {
    entries: Vec<StoredConfig>,
}

impl ConfigStore {
    /// Empty store.
    pub fn new() -> Self {
        ConfigStore::default()
    }

    /// Records a tuning outcome.
    pub fn insert(&mut self, entry: StoredConfig) {
        self.entries.push(entry);
    }

    /// Number of stored outcomes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries.
    pub fn entries(&self) -> &[StoredConfig] {
        &self.entries
    }

    /// The stored entry nearest to `embedding`, with its distance.
    pub fn nearest(&self, embedding: &[f64]) -> Option<(&StoredConfig, f64)> {
        self.entries
            .iter()
            .map(|e| {
                let d = autotune_linalg::squared_distance(&e.embedding, embedding).sqrt();
                (e, d)
            })
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(label: &str, emb: &[f64], score: f64) -> StoredConfig {
        StoredConfig {
            label: label.to_string(),
            embedding: emb.to_vec(),
            config: Config::new().with("x", score),
            score,
        }
    }

    #[test]
    fn nearest_finds_closest() {
        let mut store = ConfigStore::new();
        store.insert(entry("oltp", &[0.0, 0.0], 1.0));
        store.insert(entry("olap", &[10.0, 10.0], 2.0));
        let (e, d) = store.nearest(&[1.0, 0.0]).unwrap();
        assert_eq!(e.label, "oltp");
        assert!((d - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_store_recommends_nothing() {
        let store = ConfigStore::new();
        assert!(store.nearest(&[0.0]).is_none());
        assert!(store.is_empty());
    }

    #[test]
    fn serde_roundtrip() {
        let mut store = ConfigStore::new();
        store.insert(entry("a", &[1.0, 2.0], 3.0));
        let json = serde_json::to_string(&store).unwrap();
        let back: ConfigStore = serde_json::from_str(&json).unwrap();
        assert_eq!(store.entries(), back.entries());
    }
}
