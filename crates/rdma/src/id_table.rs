//! Objects keyed by the ids the verbs layer hands out.
//!
//! [`crate::verbs::Device`] allocates QPNs and rkeys sequentially, so a
//! NIC's queue pairs and memory regions sit in a short run of ids. The
//! receive path looks both up for every frame; indexing a vector from
//! the first id makes that one bounds check instead of a hash. Ids far
//! from the run (hand-built test NICs, hostile frames naming a random
//! QPN) fall back to a short list, so no id can blow up the table.

/// Ids at most this far above the table's base are stored densely.
const DENSE_SPAN: u32 = 1 << 12;

/// A map from `u32` id to `T`, direct-indexed over a dense run of ids.
#[derive(Debug)]
pub(crate) struct IdTable<T> {
    /// The id of `dense[0]`.
    base: u32,
    dense: Vec<Option<T>>,
    /// Ids outside `base..base + DENSE_SPAN`.
    sparse: Vec<(u32, T)>,
}

impl<T> IdTable<T> {
    pub(crate) fn new() -> IdTable<T> {
        IdTable {
            base: 0,
            dense: Vec::new(),
            sparse: Vec::new(),
        }
    }

    /// The dense index of `id`, if it falls in the dense run.
    fn slot(&self, id: u32) -> Option<usize> {
        let offset = id.wrapping_sub(self.base);
        (offset < DENSE_SPAN).then_some(offset as usize)
    }

    pub(crate) fn get(&self, id: u32) -> Option<&T> {
        match self.slot(id) {
            Some(i) => self.dense.get(i)?.as_ref(),
            None => self.sparse.iter().find(|(k, _)| *k == id).map(|(_, v)| v),
        }
    }

    pub(crate) fn get_mut(&mut self, id: u32) -> Option<&mut T> {
        match self.slot(id) {
            Some(i) => self.dense.get_mut(i)?.as_mut(),
            None => self
                .sparse
                .iter_mut()
                .find(|(k, _)| *k == id)
                .map(|(_, v)| v),
        }
    }

    pub(crate) fn contains(&self, id: u32) -> bool {
        self.get(id).is_some()
    }

    /// Insert `value` under `id`, replacing any previous value. The
    /// first insert anchors the dense run.
    pub(crate) fn insert(&mut self, id: u32, value: T) {
        if self.dense.is_empty() && self.sparse.is_empty() {
            self.base = id;
        }
        match self.slot(id) {
            Some(i) => {
                if self.dense.len() <= i {
                    self.dense.resize_with(i + 1, || None);
                }
                self.dense[i] = Some(value);
            }
            None => match self.sparse.iter_mut().find(|(k, _)| *k == id) {
                Some((_, v)) => *v = value,
                None => self.sparse.push((id, value)),
            },
        }
    }

    /// Number of stored values.
    pub(crate) fn len(&self) -> usize {
        self.dense.iter().filter(|v| v.is_some()).count() + self.sparse.len()
    }

    /// Every stored value, dense run first.
    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.dense
            .iter_mut()
            .filter_map(Option::as_mut)
            .chain(self.sparse.iter_mut().map(|(_, v)| v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_run_and_far_ids_both_resolve() {
        let mut t = IdTable::new();
        for id in 0x100..0x110u32 {
            t.insert(id, id * 2);
        }
        // Below the base, and far above it: the sparse list.
        t.insert(0x22, 1);
        t.insert(0xFF_FFFF, 2);
        for id in 0x100..0x110u32 {
            assert_eq!(t.get(id), Some(&(id * 2)));
        }
        assert_eq!(t.get(0x22), Some(&1));
        assert_eq!(t.get(0xFF_FFFF), Some(&2));
        assert_eq!(t.get(0x110), None);
        assert_eq!(t.get(0x5000), None);
        assert!(!t.contains(0));
        *t.get_mut(0x105).unwrap() = 7;
        t.insert(0x22, 3);
        assert_eq!(t.get(0x105), Some(&7));
        assert_eq!(t.get(0x22), Some(&3));
        assert_eq!(t.values_mut().count(), 18);
        assert_eq!(t.len(), 18);
    }
}
