//! Backing storage for CSR edge arrays: owned heap or borrowed mmap.
//!
//! Every array inside [`UncertainGraph`](crate::graph::UncertainGraph)
//! is an [`EdgeStorage<T>`]: either today's heap `Arc<[T]>`, or a typed
//! view into a page-aligned read-only [`Mmap`] of a
//! v2 graph file (see [`crate::format`]). Both variants are cheap to
//! clone and deref to `&[T]`, so the estimators never see the
//! difference — and the copy-on-write epoch machinery keeps working
//! unchanged: [`with_updated_probs`](crate::graph::UncertainGraph::with_updated_probs)
//! copies the probability array to the heap while the topology views
//! keep borrowing the mapping.

use crate::mmap::Mmap;
use std::ops::Deref;
use std::sync::Arc;

/// Marker for plain-old-data element types that may be reinterpreted
/// from little-endian file bytes: no padding, no invalid bit patterns
/// at the *layout* level (semantic validation — e.g. probabilities in
/// `(0, 1]` — is the loader's job before a view is constructed).
///
/// # Safety
/// Implementors must be `#[repr(transparent)]` over (or be) a primitive
/// with no uninitialized bytes and no layout-invalid values.
pub unsafe trait Pod: Copy + 'static {}

// SAFETY: primitives, and our #[repr(transparent)] newtypes over them.
unsafe impl Pod for u32 {}
unsafe impl Pod for u64 {}
unsafe impl Pod for f32 {}
unsafe impl Pod for f64 {}
unsafe impl Pod for crate::ids::NodeId {}
unsafe impl Pod for crate::ids::EdgeId {}
unsafe impl Pod for crate::probability::Probability {}

/// One CSR array: heap-owned or a typed borrow of a shared mapping.
pub struct EdgeStorage<T> {
    inner: Inner<T>,
}

enum Inner<T> {
    /// Owned, today's path; also the copy-on-write overlay target.
    Heap(Arc<[T]>),
    /// Borrowed view into `_map`; `ptr` is pre-validated to be aligned
    /// and in-bounds for `len` elements. The `Arc` keeps the mapping
    /// alive for as long as any view (or clone of it) exists.
    Mapped {
        ptr: *const T,
        len: usize,
        _map: Arc<Mmap>,
    },
}

// SAFETY: Heap is Arc<[T]>; Mapped points into an immutable, read-only
// mapping whose lifetime the Arc pins. Sharing either across threads is
// sound exactly when &[T] is.
unsafe impl<T: Sync + Send> Send for EdgeStorage<T> {}
unsafe impl<T: Sync + Send> Sync for EdgeStorage<T> {}

impl<T> Clone for EdgeStorage<T> {
    fn clone(&self) -> Self {
        let inner = match &self.inner {
            Inner::Heap(arc) => Inner::Heap(Arc::clone(arc)),
            Inner::Mapped { ptr, len, _map } => Inner::Mapped {
                ptr: *ptr,
                len: *len,
                _map: Arc::clone(_map),
            },
        };
        EdgeStorage { inner }
    }
}

impl<T> Deref for EdgeStorage<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        match &self.inner {
            Inner::Heap(arc) => arc,
            // SAFETY: ptr/len were validated against the mapping's bounds
            // and T's alignment at construction; the mapping is alive and
            // immutable while `self` borrows it.
            Inner::Mapped { ptr, len, .. } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
        }
    }
}

impl<T> std::fmt::Debug for EdgeStorage<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Inner::Heap(arc) => write!(f, "EdgeStorage::Heap(len={})", arc.len()),
            Inner::Mapped { len, .. } => write!(f, "EdgeStorage::Mapped(len={len})"),
        }
    }
}

impl<T> EdgeStorage<T> {
    /// Identity comparison: do the two storages view the very same
    /// memory? This is the mmap-aware replacement for `Arc::ptr_eq` in
    /// [`same_topology`](crate::graph::UncertainGraph::same_topology):
    /// heap clones share an allocation, mapped clones share a base
    /// pointer into the same mapping.
    #[inline]
    pub fn ptr_eq(&self, other: &EdgeStorage<T>) -> bool {
        std::ptr::eq(self.as_ptr(), other.as_ptr()) && self.len() == other.len()
    }

    /// True if this storage borrows a memory mapping rather than owning
    /// heap memory.
    pub fn is_mapped(&self) -> bool {
        matches!(self.inner, Inner::Mapped { .. })
    }

    /// Bytes of *heap* memory this storage owns (0 for mapped views —
    /// their pages are reclaimable page cache, not process heap).
    pub fn heap_bytes(&self) -> usize {
        match &self.inner {
            Inner::Heap(arc) => std::mem::size_of_val(&arc[..]),
            Inner::Mapped { .. } => 0,
        }
    }
}

impl<T: Pod> EdgeStorage<T> {
    /// View `len` elements of `map` starting at `byte_offset`.
    ///
    /// Returns `None` when the requested window is misaligned for `T`
    /// or runs past the mapping (the caller turns that into a
    /// structured [`GraphError`](crate::error::GraphError)).
    pub fn from_mapped(map: &Arc<Mmap>, byte_offset: usize, len: usize) -> Option<EdgeStorage<T>> {
        let size = std::mem::size_of::<T>();
        let bytes = len.checked_mul(size)?;
        let end = byte_offset.checked_add(bytes)?;
        if end > map.len() {
            return None;
        }
        // SAFETY: offset ≤ map.len() was just checked, so the add stays
        // inside (one past) the allocation.
        let ptr = unsafe { map.as_ptr().add(byte_offset) };
        if ptr as usize % std::mem::align_of::<T>() != 0 {
            return None;
        }
        Some(EdgeStorage {
            inner: Inner::Mapped {
                ptr: ptr.cast(),
                len,
                _map: Arc::clone(map),
            },
        })
    }
}

impl<T> From<Vec<T>> for EdgeStorage<T> {
    fn from(v: Vec<T>) -> Self {
        EdgeStorage {
            inner: Inner::Heap(v.into()),
        }
    }
}

impl<T> From<Arc<[T]>> for EdgeStorage<T> {
    fn from(arc: Arc<[T]>) -> Self {
        EdgeStorage {
            inner: Inner::Heap(arc),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::File;
    use std::io::Write;

    #[test]
    fn heap_storage_derefs_and_clones_shared() {
        let s: EdgeStorage<u32> = vec![1, 2, 3].into();
        assert_eq!(&s[..], &[1, 2, 3]);
        let t = s.clone();
        assert!(s.ptr_eq(&t));
        assert!(!s.is_mapped());
        assert_eq!(s.heap_bytes(), 12);
    }

    #[test]
    fn distinct_heap_allocations_are_not_ptr_eq() {
        let a: EdgeStorage<u32> = vec![1, 2, 3].into();
        let b: EdgeStorage<u32> = vec![1, 2, 3].into();
        assert!(!a.ptr_eq(&b));
    }

    #[test]
    #[cfg(unix)]
    fn mapped_storage_views_file_bytes() {
        let path =
            std::env::temp_dir().join(format!("relcomp_storage_view_{}", std::process::id()));
        let mut f = File::create(&path).unwrap();
        let values: Vec<u32> = vec![7, 11, 13, 17];
        for v in &values {
            f.write_all(&v.to_le_bytes()).unwrap();
        }
        drop(f);
        let map = Arc::new(Mmap::map_file(&File::open(&path).unwrap()).unwrap());
        let s: EdgeStorage<u32> = EdgeStorage::from_mapped(&map, 0, 4).unwrap();
        assert_eq!(&s[..], &values[..]);
        assert!(s.is_mapped());
        assert_eq!(s.heap_bytes(), 0);
        // A clone of the view aliases the same mapped bytes.
        assert!(s.ptr_eq(&s.clone()));
        // Out-of-bounds and misaligned views are rejected.
        assert!(EdgeStorage::<u32>::from_mapped(&map, 0, 5).is_none());
        assert!(EdgeStorage::<u32>::from_mapped(&map, 2, 1).is_none());
        std::fs::remove_file(path).ok();
    }
}
