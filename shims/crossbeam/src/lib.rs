//! In-tree stand-in for `crossbeam`: only `utils::CachePadded`, the one
//! item the workspace uses.

pub mod utils {
    /// Mirror of `crossbeam_utils::CachePadded`: aligns (and therefore
    /// pads) the wrapped value to a cache-line boundary so two hot
    /// atomics updated by different cores never share a line. 128 bytes
    /// covers the spatial-prefetcher pair on modern x86 as well as
    /// 128-byte-line ARM parts, matching the real crate's choice.
    #[repr(align(128))]
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    pub struct CachePadded<T> {
        value: T,
    }

    impl<T> CachePadded<T> {
        /// Wraps `value` in its own cache line.
        pub const fn new(value: T) -> CachePadded<T> {
            CachePadded { value }
        }

        /// Unwraps the value.
        pub fn into_inner(self) -> T {
            self.value
        }
    }

    impl<T> std::ops::Deref for CachePadded<T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.value
        }
    }

    impl<T> std::ops::DerefMut for CachePadded<T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.value
        }
    }

    impl<T> From<T> for CachePadded<T> {
        fn from(value: T) -> CachePadded<T> {
            CachePadded::new(value)
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn cache_padded_isolates_lines() {
        use super::utils::CachePadded;
        let pair = [CachePadded::new(AtomicU64::new(0)), CachePadded::new(AtomicU64::new(0))];
        let a = &pair[0] as *const _ as usize;
        let b = &pair[1] as *const _ as usize;
        assert!(b - a >= 128, "adjacent padded atomics {}B apart", b - a);
        assert_eq!(a % 128, 0, "padded value is line-aligned");
        pair[0].fetch_add(3, Ordering::Relaxed);
        assert_eq!(pair[0].load(Ordering::Relaxed), 3);
        assert_eq!(CachePadded::new(7u32).into_inner(), 7);
    }
}
