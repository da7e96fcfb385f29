//! The query-template cache of paper §3.2: "An SQL query is translated
//! into a parametrized representation, called a query template, by
//! factoring out its literal constants … The query templates are kept in
//! a query cache."
//!
//! A template is a compiled [`Program`] whose statement literals are
//! [`crate::Arg::Param`] slots; its key is the statement's *shape* — the
//! front-end parser's own token stream with each value literal replaced
//! by a placeholder (`sqlfront::parse_template`). Anything that shapes
//! the plan (table and column names, `LIMIT n`, IN-list and VALUES arity)
//! stays in the key, so a hit only has to bind the statement's literals
//! to the cached plan's slots.

use crate::ast::Program;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Most templates a cache keeps. A serving node sees a handful of shapes
/// per application; the bound is for the shapes an ad-hoc client can
/// invent without end (table names, IN-list lengths).
pub const TEMPLATE_CACHE_CAP: usize = 128;

struct Entry {
    plan: Arc<Program>,
    last_used: u64,
}

#[derive(Default)]
struct Lru {
    map: HashMap<String, Entry>,
    /// Logical clock: bumped on every hit and insert.
    tick: u64,
}

/// A concurrent template cache holding at most [`TEMPLATE_CACHE_CAP`]
/// plans, evicting the least recently used.
#[derive(Default)]
pub struct TemplateCache {
    lru: Mutex<Lru>,
}

impl TemplateCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// The template cached under `key`, marked most recently used.
    pub fn get(&self, key: &str) -> Option<Arc<Program>> {
        let mut lru = self.lru.lock();
        lru.tick += 1;
        let tick = lru.tick;
        let entry = lru.map.get_mut(key)?;
        entry.last_used = tick;
        Some(Arc::clone(&entry.plan))
    }

    /// Cache `plan` under `key`, first evicting the least recently used
    /// template when the cache is full. Eviction scans the entries: it
    /// happens only beside a compile, which costs far more.
    pub fn insert(&self, key: String, plan: Program) -> Arc<Program> {
        let plan = Arc::new(plan);
        let mut lru = self.lru.lock();
        lru.tick += 1;
        let last_used = lru.tick;
        if lru.map.len() >= TEMPLATE_CACHE_CAP && !lru.map.contains_key(&key) {
            let oldest = lru.map.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k.clone());
            if let Some(oldest) = oldest {
                lru.map.remove(&oldest);
            }
        }
        lru.map.insert(key, Entry { plan: Arc::clone(&plan), last_used });
        plan
    }

    pub fn len(&self) -> usize {
        self.lru.lock().map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(name: &str) -> Program {
        Program::new("user", name)
    }

    #[test]
    fn get_returns_what_insert_cached() {
        let cache = TemplateCache::new();
        assert!(cache.get("select x from t where a = ?").is_none());
        assert!(cache.is_empty());
        cache.insert("select x from t where a = ?".into(), plan("q1"));
        assert_eq!(cache.get("select x from t where a = ?").unwrap().name, "q1");
        assert!(cache.get("select y from t where a = ?").is_none(), "another shape");
        // Re-inserting a key replaces its plan without growing the cache.
        cache.insert("select x from t where a = ?".into(), plan("q2"));
        assert_eq!(cache.get("select x from t where a = ?").unwrap().name, "q2");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn bounded_with_most_recent_shape_kept() {
        let cache = TemplateCache::new();
        for i in 0..10_000 {
            cache.insert(format!("select c from t{i} where a = ?"), plan("q"));
            assert!(cache.len() <= TEMPLATE_CACHE_CAP);
        }
        assert_eq!(cache.len(), TEMPLATE_CACHE_CAP);
        assert!(cache.get("select c from t9999 where a = ?").is_some(), "newest shape hits");
        assert!(cache.get("select c from t0 where a = ?").is_none(), "oldest shape evicted");
    }

    #[test]
    fn eviction_is_least_recently_used() {
        let cache = TemplateCache::new();
        for i in 0..TEMPLATE_CACHE_CAP {
            cache.insert(format!("k{i}"), plan("q"));
        }
        // Touch the oldest entry; the next insert must evict `k1` instead.
        assert!(cache.get("k0").is_some());
        cache.insert("fresh".into(), plan("q"));
        assert_eq!(cache.len(), TEMPLATE_CACHE_CAP);
        assert!(cache.get("k0").is_some(), "recently used survives");
        assert!(cache.get("k1").is_none(), "least recently used evicted");
        assert!(cache.get("fresh").is_some());
    }
}
