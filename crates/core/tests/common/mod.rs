//! What the store's unit tests and its property tests share (the former
//! include this file by path, see `lib.rs`).

use std::collections::BTreeMap;

use flowkv_common::backend::WindowChunk;

/// Each key's values over `chunks`, concatenated in entry order: what a
/// consumer of `get_window_chunk` holds once a drain is over, however
/// the store cut the window into chunks and a key into entries.
pub fn merge_chunks(
    chunks: impl IntoIterator<Item = WindowChunk>,
) -> BTreeMap<Vec<u8>, Vec<Vec<u8>>> {
    let mut lists: BTreeMap<Vec<u8>, Vec<Vec<u8>>> = BTreeMap::new();
    for (key, values) in chunks.into_iter().flatten() {
        lists.entry(key).or_default().extend(values);
    }
    lists
}
