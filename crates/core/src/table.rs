//! The per-key table the AUR and RMW stores keep their memory side in:
//! state is addressed by `(key, window)` and probed with the borrowed
//! pair, so a lookup hashes the key once and builds nothing.

use std::cell::Cell;
use std::collections::HashMap;

use flowkv_common::hash::KeyHash;
use flowkv_common::types::WindowId;

/// `key → its windows → T`, probed with a borrowed key: one hash per
/// lookup. A key holds one or two live windows, so the inner level is a
/// short list, not a second hash map.
#[derive(Default)]
pub struct WindowMap<T> {
    map: HashMap<Vec<u8>, Vec<(WindowId, T)>, KeyHash>,
    len: usize,
    key_bytes: usize,
}

impl<T> WindowMap<T> {
    /// Looks up a window's entry without allocating.
    pub fn get(&self, key: &[u8], window: WindowId) -> Option<&T> {
        let mut slots = self.map.get(key)?.iter();
        slots.find(|(w, _)| *w == window).map(|(_, t)| t)
    }

    /// [`WindowMap::get`], mutably.
    pub fn get_mut(&mut self, key: &[u8], window: WindowId) -> Option<&mut T> {
        let mut slots = self.map.get_mut(key)?.iter_mut();
        slots.find(|(w, _)| *w == window).map(|(_, t)| t)
    }

    /// Runs `update` on the entry of `(key, window)`, created by `new`
    /// when absent. The key is copied only when it has no window yet.
    pub fn upsert<R>(
        &mut self,
        key: &[u8],
        window: WindowId,
        new: impl FnOnce() -> T,
        update: impl FnOnce(&mut T) -> R,
    ) -> R {
        let slots = match self.map.get_mut(key) {
            Some(slots) => slots,
            None => {
                self.key_bytes += key.len();
                self.map.entry(key.to_vec()).or_default()
            }
        };
        let at = slots.iter().position(|(w, _)| *w == window);
        let at = at.unwrap_or_else(|| {
            self.len += 1;
            slots.push((window, new()));
            slots.len() - 1
        });
        update(&mut slots[at].1)
    }

    /// Sets the entry of `(key, window)`, returning the one it replaces.
    pub fn insert(&mut self, key: &[u8], window: WindowId, value: T) -> Option<T> {
        // Creating the entry takes the value and leaves none to swap in.
        let value = Cell::new(Some(value));
        let new = || value.take().expect("taken once");
        self.upsert(key, window, new, |slot| {
            value.take().map(|value| std::mem::replace(slot, value))
        })
    }

    /// Removes a window's entry in one probe; a key with more is put back.
    pub fn remove(&mut self, key: &[u8], window: WindowId) -> Option<T> {
        let (key, mut slots) = self.map.remove_entry(key)?;
        let at = slots.iter().position(|(w, _)| *w == window);
        let removed = at.map(|at| slots.swap_remove(at).1);
        self.len -= usize::from(removed.is_some());
        match slots.is_empty() {
            true => self.key_bytes -= key.len(),
            false => drop(self.map.insert(key, slots)),
        }
        removed
    }

    /// Forgets every entry.
    pub fn clear(&mut self) {
        self.map.clear();
        (self.len, self.key_bytes) = (0, 0);
    }

    /// Number of windows over all keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Iterates `(key, window, entry)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], WindowId, &T)> {
        self.map
            .iter()
            .flat_map(|(k, slots)| slots.iter().map(move |(w, t)| (k.as_slice(), *w, t)))
    }

    /// [`WindowMap::iter`], with the entries mutable.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&[u8], WindowId, &mut T)> {
        self.map.iter_mut().flat_map(|(k, slots)| {
            slots
                .iter_mut()
                .map(move |(w, t)| (k.as_slice(), *w, &mut *t))
        })
    }

    /// Approximate memory footprint of keys and entries in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.key_bytes + self.map.len() * 48 + self.len * 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(start: i64, end: i64) -> WindowId {
        WindowId::new(start, end)
    }

    #[test]
    fn insert_replaces_and_remove_keeps_the_keys_other_windows() {
        let mut m: WindowMap<u8> = WindowMap::default();
        assert_eq!(m.insert(b"k", w(0, 10), 1), None);
        assert_eq!(m.insert(b"k", w(10, 20), 2), None);
        assert_eq!(m.insert(b"k", w(0, 10), 3), Some(1));
        assert_eq!((m.len(), m.get(b"k", w(0, 10))), (2, Some(&3)));
        m.upsert(b"k", w(10, 20), || unreachable!(), |n| *n += 5);
        assert_eq!(m.remove(b"k", w(0, 10)), Some(3));
        assert_eq!(m.remove(b"k", w(0, 10)), None);
        assert_eq!(m.get(b"k", w(10, 20)), Some(&7));
        assert_eq!(m.remove(b"other", w(10, 20)), None);
        assert_eq!(m.remove(b"k", w(10, 20)), Some(7));
        assert_eq!((m.len(), m.memory_bytes()), (0, 0));
    }
}
