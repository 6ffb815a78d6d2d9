//! Exact-match match-action tables.
//!
//! The DART pipeline needs one control-plane-populated table: the
//! *collector lookup table* mapping a hashed collector ID to the RDMA
//! endpoint information used to craft RoCEv2 headers (§6). Collector IDs
//! are dense, so the table is direct-indexed by its key, like a Tofino
//! table whose match key is the action-data index: a lookup is one
//! bounds check. Tables have bounded capacity (SRAM is finite), a
//! default action on miss, and hit/miss counters — the minimum for
//! resource accounting.

/// Result of installing an entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstallError {
    /// The key is at or beyond the table's capacity.
    Full,
}

impl core::fmt::Display for InstallError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            InstallError::Full => write!(f, "match-action table full"),
        }
    }
}

impl std::error::Error for InstallError {}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableCounters {
    /// Lookups that matched an entry.
    pub hits: u64,
    /// Lookups that fell through to the default action.
    pub misses: u64,
}

/// A direct-indexed exact-match table: keys `0..capacity`, one action
/// each.
#[derive(Debug, Clone)]
pub struct MatchActionTable<A> {
    entries: Vec<Option<A>>,
    installed: usize,
    counters: TableCounters,
}

impl<A> MatchActionTable<A> {
    /// Create a table for keys `0..capacity`.
    pub fn new(capacity: usize) -> MatchActionTable<A> {
        MatchActionTable {
            entries: (0..capacity).map(|_| None).collect(),
            installed: 0,
            counters: TableCounters::default(),
        }
    }

    /// Install or replace the entry for `key`.
    pub fn install(&mut self, key: u32, action: A) -> Result<(), InstallError> {
        let entry = self
            .entries
            .get_mut(key as usize)
            .ok_or(InstallError::Full)?;
        if entry.is_none() {
            self.installed += 1;
        }
        *entry = Some(action);
        Ok(())
    }

    /// Remove an entry.
    pub fn remove(&mut self, key: u32) -> Option<A> {
        let removed = self.entries.get_mut(key as usize)?.take();
        if removed.is_some() {
            self.installed -= 1;
        }
        removed
    }

    /// Look up a key, updating hit/miss counters.
    pub fn lookup(&mut self, key: u32) -> Option<&A> {
        match self.entries.get(key as usize).and_then(Option::as_ref) {
            Some(action) => {
                self.counters.hits += 1;
                Some(action)
            }
            None => {
                self.counters.misses += 1;
                None
            }
        }
    }

    /// Peek without touching counters (control-plane reads).
    pub fn peek(&self, key: u32) -> Option<&A> {
        self.entries.get(key as usize)?.as_ref()
    }

    /// Installed entry count.
    pub fn len(&self) -> usize {
        self.installed
    }

    /// Whether no entries are installed.
    pub fn is_empty(&self) -> bool {
        self.installed == 0
    }

    /// Capacity.
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Hit/miss counters.
    pub fn counters(&self) -> TableCounters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_lookup_remove() {
        let mut t: MatchActionTable<&'static str> = MatchActionTable::new(4);
        t.install(1, "one").unwrap();
        assert_eq!(t.lookup(1), Some(&"one"));
        assert_eq!(t.lookup(2), None);
        assert_eq!(t.lookup(9), None);
        assert_eq!(t.counters(), TableCounters { hits: 1, misses: 2 });
        assert_eq!(t.remove(1), Some("one"));
        assert_eq!(t.remove(1), None);
        assert!(t.is_empty());
    }

    #[test]
    fn capacity_enforced() {
        let mut t: MatchActionTable<u32> = MatchActionTable::new(2);
        t.install(0, 10).unwrap();
        t.install(1, 20).unwrap();
        assert_eq!(t.install(2, 30), Err(InstallError::Full));
        // Replacing an existing key is allowed at capacity.
        t.install(1, 21).unwrap();
        assert_eq!(t.peek(1), Some(&21));
        assert_eq!(t.len(), 2);
        assert_eq!(t.capacity(), 2);
    }

    #[test]
    fn peek_does_not_count() {
        let mut t: MatchActionTable<u32> = MatchActionTable::new(2);
        t.install(1, 10).unwrap();
        assert_eq!(t.peek(1), Some(&10));
        assert_eq!(t.counters(), TableCounters::default());
    }
}
