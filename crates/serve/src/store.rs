//! The shared content-addressed result store: completed solves land
//! here keyed by the content hash of the request that produced them,
//! so identical requests — concurrent or hours apart — cost exactly
//! one solve per distinct body.
//!
//! The store *is* a [`campaign::Cache`](immersion_campaign::Cache)
//! directory, with everything that buys: atomic temp-file writes,
//! poison-quarantine of corrupt entries on lookup, orphan sweeping on
//! open. A torn write injected at the
//! [`SERVE_STORE`](immersion_faultsim::site::SERVE_STORE) hook leaves
//! the same artifact a power cut would, and the next lookup of that
//! key quarantines it to `<key>.poison` and recomputes — the store can
//! be corrupted at rest but can never *serve* corruption.
//!
//! In front of the directory sits an in-process index of the entries
//! this process has *read back valid* from disk, so a repeated body is
//! answered by one map probe instead of a file read and a JSON parse.
//! The disk stays the source of truth: writes never fill the index
//! (traffic that never repeats adds nothing to memory, and a torn
//! write can only ever be found on disk, where it is quarantined), and
//! the index holds at most `INDEX_CAPACITY` entries, cleared when
//! full. Its lock guards only the map: no I/O and no other lock while
//! it is held.

use immersion_campaign::fsutil::apply_write_fault;
use immersion_campaign::{Cache, CacheEntry, Lookup};
use immersion_core::sanitizer;
use immersion_core::TrackedMutex;
use immersion_faultsim as faultsim;
use serde_json::Value;
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::{Arc, PoisonError};

/// Most entries the in-process index holds; it is cleared when full.
pub(crate) const INDEX_CAPACITY: usize = 1024;

/// The serve layer's result store.
#[derive(Debug)]
pub struct ResultStore {
    cache: Cache,
    /// Entries read back valid from disk, by content key.
    index: TrackedMutex<HashMap<String, Arc<CacheEntry>>>,
}

impl Drop for ResultStore {
    fn drop(&mut self) {
        sanitizer::retire("serve::ResultStore.index", sanitizer::obj_id(self));
    }
}

impl ResultStore {
    /// Open (creating if needed) a store at `dir`.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<ResultStore> {
        Ok(ResultStore {
            cache: Cache::open(dir.as_ref().to_path_buf())?,
            index: TrackedMutex::new("serve::ResultStore.index", HashMap::new()),
        })
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        self.cache.dir()
    }

    /// Look up a content key. A corrupt entry is quarantined by this
    /// call and reads as a miss.
    pub fn lookup(&self, key: &str) -> Lookup {
        if let Some(entry) = self.indexed(key) {
            return Lookup::Hit(Box::new(CacheEntry::clone(&entry)));
        }
        let found = self.cache.lookup(key);
        if let Lookup::Hit(entry) = &found {
            self.remember(key, Arc::new(CacheEntry::clone(entry)));
        }
        found
    }

    /// The valid entry for `key`, if any: from the index, else from
    /// disk, where a corrupt entry is quarantined and reads as `None`.
    pub(crate) fn get(&self, key: &str) -> Option<Arc<CacheEntry>> {
        if let Some(entry) = self.indexed(key) {
            return Some(entry);
        }
        match self.cache.lookup(key) {
            Lookup::Hit(entry) => {
                let entry = Arc::new(*entry);
                self.remember(key, Arc::clone(&entry));
                Some(entry)
            }
            Lookup::Miss | Lookup::Poisoned => None,
        }
    }

    /// The stored result payload for `key`, if present and valid.
    pub fn load(&self, key: &str) -> Option<Value> {
        self.get(key).map(|e| e.output.clone())
    }

    fn indexed(&self, key: &str) -> Option<Arc<CacheEntry>> {
        let index = self.index.lock().unwrap_or_else(PoisonError::into_inner);
        sanitizer::shared_read("serve::ResultStore.index", sanitizer::obj_id(self));
        index.get(key).cloned()
    }

    /// Index an entry just read back valid from disk.
    fn remember(&self, key: &str, entry: Arc<CacheEntry>) {
        let mut index = self.index.lock().unwrap_or_else(PoisonError::into_inner);
        sanitizer::shared_write("serve::ResultStore.index", sanitizer::obj_id(self));
        if index.len() >= INDEX_CAPACITY {
            index.clear();
        }
        index.insert(key.to_string(), entry);
    }

    #[cfg(test)]
    fn indexed_len(&self) -> usize {
        self.index
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Persist a completed solve: `endpoint` names the producing API
    /// route, `request` is the canonical request body (provenance),
    /// `output` the response payload. Probes the
    /// [`SERVE_STORE`](immersion_faultsim::site::SERVE_STORE) fault
    /// site with the campaign stack's write-fault semantics.
    pub fn store(
        &self,
        key: &str,
        endpoint: &str,
        request: Value,
        output: Value,
        wall_ms: u64,
    ) -> io::Result<()> {
        let entry = CacheEntry {
            job: endpoint.to_string(),
            config: request,
            output,
            wall_ms,
        };
        let json = serde_json::to_string_pretty(&entry)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let path = self.cache.path_for(key);
        if let Some(result) = apply_write_fault(faultsim::site::SERVE_STORE, &path, json.as_bytes())
        {
            return result;
        }
        self.cache.store(key, &entry).map(|_| ())
    }

    /// Valid entries currently on disk.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// Quarantined (`.poison`) entries currently on disk.
    pub fn quarantined(&self) -> usize {
        self.cache.quarantined()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use immersion_faultsim::{install, FaultKind, FaultPlan, FaultRule, Trigger};

    fn scratch(tag: &str) -> ResultStore {
        let d = std::env::temp_dir().join(format!(
            "immersion-serve-store-{}-{}",
            std::process::id(),
            tag
        ));
        let _ = std::fs::remove_dir_all(&d);
        ResultStore::open(&d).unwrap()
    }

    #[test]
    fn round_trips_outputs() {
        let store = scratch("rt");
        assert!(store.load("k").is_none());
        store
            .store("k", "/v1/evaluate", Value::Null, Value::U64(7), 3)
            .unwrap();
        assert_eq!(store.load("k"), Some(Value::U64(7)));
        assert_eq!(store.len(), 1);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn writes_do_not_fill_the_index_and_reads_do() {
        let store = scratch("index");
        store
            .store("k", "/v1/evaluate", Value::Null, Value::U64(7), 3)
            .unwrap();
        assert_eq!(store.indexed_len(), 0);
        assert_eq!(store.load("k"), Some(Value::U64(7)));
        assert_eq!(store.indexed_len(), 1);
        // An indexed hit still reads as a full entry.
        match store.lookup("k") {
            Lookup::Hit(entry) => assert_eq!(entry.job, "/v1/evaluate"),
            other => panic!("expected a hit, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn the_index_stays_within_capacity_and_every_key_still_loads() {
        let store = scratch("capacity");
        let keys: Vec<String> = (0..INDEX_CAPACITY + 10).map(|i| format!("k{i}")).collect();
        // Plain writes stand in for earlier processes' results: these
        // tests need entries on disk, not the durability of `store`.
        for (i, key) in keys.iter().enumerate() {
            let entry = CacheEntry {
                job: "/v1/evaluate".to_string(),
                config: Value::Null,
                output: Value::U64(i as u64),
                wall_ms: 0,
            };
            let json = serde_json::to_string(&entry).unwrap();
            std::fs::write(store.dir().join(format!("{key}.json")), json).unwrap();
        }
        for round in 0..2 {
            for (i, key) in keys.iter().enumerate() {
                assert_eq!(store.load(key), Some(Value::U64(i as u64)), "{round} {key}");
                assert!(store.indexed_len() <= INDEX_CAPACITY);
            }
        }
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn torn_store_write_is_quarantined_not_served() {
        let _serial = crate::testutil::injector_serial();
        let store = scratch("torn");
        {
            let _armed = install(FaultPlan::new(7).with_rule(FaultRule::new(
                faultsim::site::SERVE_STORE,
                FaultKind::TornWrite,
                Trigger::Nth(1),
            )));
            let err = store
                .store("k", "/v1/evaluate", Value::Null, Value::U64(7), 3)
                .expect_err("torn write must surface as an error");
            assert!(err.to_string().contains("injected"), "{err}");
        }
        // The torn artifact is on disk but must never be served: the
        // next lookup quarantines it and reads as a miss.
        assert!(matches!(store.lookup("k"), Lookup::Poisoned));
        assert!(store.load("k").is_none());
        assert_eq!(store.quarantined(), 1);
        // Recomputing over the quarantined key works normally.
        store
            .store("k", "/v1/evaluate", Value::Null, Value::U64(7), 3)
            .unwrap();
        assert_eq!(store.load("k"), Some(Value::U64(7)));
        let _ = std::fs::remove_dir_all(store.dir());
    }
}
