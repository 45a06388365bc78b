//! In-tree stand-in for the `bytes` crate: an immutable, cheaply
//! cloneable byte buffer backed by `Arc<[u8]>`. Clones share the
//! allocation (O(1)), matching the property the store relies on when
//! handing the same record to many readers.

#![forbid(unsafe_code)]

use std::ops::Deref;
use std::sync::Arc;

/// An immutable shared byte buffer.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bytes {
    data: Arc<[u8]>,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes { data: Arc::from(&[] as &[u8]) }
    }

    /// Wraps a static slice (no copy in the real crate; here one Arc
    /// allocation — the call sites are tests).
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes { data: Arc::from(bytes) }
    }

    /// Copies a slice into a new buffer.
    pub fn copy_from_slice(bytes: &[u8]) -> Self {
        Bytes { data: Arc::from(bytes) }
    }

    /// Buffer length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(vec: Vec<u8>) -> Self {
        Bytes { data: Arc::from(vec) }
    }
}

impl From<&[u8]> for Bytes {
    fn from(slice: &[u8]) -> Self {
        Bytes::copy_from_slice(slice)
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        &*self.data == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        &*self.data == *other
    }
}
