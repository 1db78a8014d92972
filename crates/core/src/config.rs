//! FlowKV's user-configurable parameters (paper §6, "FlowKV
//! Configuration").

use std::sync::Arc;

use flowkv_common::error::{Result, StoreError};
use flowkv_common::types::{Timestamp, WindowId};

/// A user-supplied trigger-time predictor for custom window functions
/// (paper §8): given the key, the window, and the maximum tuple timestamp
/// observed in the window, return the estimated trigger time, or `None`
/// when no safe estimate exists.
pub type CustomEttFn = Arc<dyn Fn(&[u8], WindowId, Timestamp) -> Option<Timestamp> + Send + Sync>;

/// Tuning knobs of a FlowKV store.
///
/// The paper's evaluation settings are `read_batch_ratio = 0.02`,
/// `write_buffer_bytes = 2048 MiB`, `max_space_amplification = 1.5`, and
/// `store_instances = 2` (§6); the defaults here keep those ratios but a
/// laptop-scale buffer size.
#[derive(Clone)]
pub struct FlowKvConfig {
    /// Fraction of live windows loaded per predictive batch read
    /// (`N = ratio × live windows`). Zero disables prefetching.
    pub read_batch_ratio: f64,
    /// Flush the in-memory write buffer when it reaches this many bytes.
    pub write_buffer_bytes: usize,
    /// Compact the AUR/RMW logs when
    /// `total_bytes / (total_bytes − dead_bytes)` exceeds this factor.
    pub max_space_amplification: f64,
    /// Number of independent store instances per physical operator (`m`).
    pub store_instances: usize,
    /// `(key, value)` pairs returned per [`get_window_chunk`] call at
    /// most (gradual state loading, paper §4.1).
    ///
    /// [`get_window_chunk`]: flowkv_common::backend::StateBackend::get_window_chunk
    pub chunk_entries: usize,
    /// Optional trigger-time predictor for custom window functions.
    pub custom_ett: Option<CustomEttFn>,
}

impl Default for FlowKvConfig {
    fn default() -> Self {
        FlowKvConfig {
            read_batch_ratio: 0.02,
            write_buffer_bytes: 4 << 20,
            max_space_amplification: 1.5,
            store_instances: 2,
            chunk_entries: 1024,
            custom_ett: None,
        }
    }
}

impl FlowKvConfig {
    /// A configuration scaled down for unit tests: tiny buffers force
    /// flushes, prefetches, and compactions with little data.
    pub fn small_for_tests() -> Self {
        FlowKvConfig {
            read_batch_ratio: 0.1,
            write_buffer_bytes: 4 << 10,
            max_space_amplification: 1.5,
            store_instances: 2,
            chunk_entries: 8,
            custom_ett: None,
        }
    }

    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<()> {
        if !(0.0..=1.0).contains(&self.read_batch_ratio) {
            return Err(StoreError::InvalidConfig {
                param: "read_batch_ratio",
                detail: format!("must be in [0, 1], got {}", self.read_batch_ratio),
            });
        }
        if self.max_space_amplification < 1.0 {
            return Err(StoreError::InvalidConfig {
                param: "max_space_amplification",
                detail: format!("must be ≥ 1, got {}", self.max_space_amplification),
            });
        }
        if self.store_instances == 0 {
            return Err(StoreError::InvalidConfig {
                param: "store_instances",
                detail: "must be positive".to_string(),
            });
        }
        if self.chunk_entries == 0 {
            return Err(StoreError::InvalidConfig {
                param: "chunk_entries",
                detail: "must be positive".to_string(),
            });
        }
        Ok(())
    }

    /// Returns a copy with the given read batch ratio.
    pub fn with_read_batch_ratio(mut self, ratio: f64) -> Self {
        self.read_batch_ratio = ratio;
        self
    }

    /// Returns a copy with the given write buffer size.
    pub fn with_write_buffer_bytes(mut self, bytes: usize) -> Self {
        self.write_buffer_bytes = bytes;
        self
    }

    /// Returns a copy with the given maximum space amplification.
    pub fn with_max_space_amplification(mut self, msa: f64) -> Self {
        self.max_space_amplification = msa;
        self
    }

    /// Returns a copy with the given number of store instances.
    pub fn with_store_instances(mut self, m: usize) -> Self {
        self.store_instances = m;
        self
    }
}

impl std::fmt::Debug for FlowKvConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlowKvConfig")
            .field("read_batch_ratio", &self.read_batch_ratio)
            .field("write_buffer_bytes", &self.write_buffer_bytes)
            .field("max_space_amplification", &self.max_space_amplification)
            .field("store_instances", &self.store_instances)
            .field("chunk_entries", &self.chunk_entries)
            .field("custom_ett", &self.custom_ett.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_ratios() {
        let cfg = FlowKvConfig::default();
        assert!((cfg.read_batch_ratio - 0.02).abs() < 1e-12);
        assert!((cfg.max_space_amplification - 1.5).abs() < 1e-12);
        assert_eq!(cfg.store_instances, 2);
        cfg.validate().unwrap();
    }

    #[test]
    fn validation_rejects_bad_ranges() {
        assert!(FlowKvConfig::default()
            .with_read_batch_ratio(1.5)
            .validate()
            .is_err());
        assert!(FlowKvConfig::default()
            .with_read_batch_ratio(-0.1)
            .validate()
            .is_err());
        assert!(FlowKvConfig::default()
            .with_max_space_amplification(0.9)
            .validate()
            .is_err());
        assert!(FlowKvConfig::default()
            .with_store_instances(0)
            .validate()
            .is_err());
    }

    #[test]
    fn builders_set_fields() {
        let cfg = FlowKvConfig::default()
            .with_read_batch_ratio(0.05)
            .with_write_buffer_bytes(1024)
            .with_max_space_amplification(2.0)
            .with_store_instances(4);
        assert!((cfg.read_batch_ratio - 0.05).abs() < 1e-12);
        assert_eq!(cfg.write_buffer_bytes, 1024);
        assert!((cfg.max_space_amplification - 2.0).abs() < 1e-12);
        assert_eq!(cfg.store_instances, 4);
    }
}
