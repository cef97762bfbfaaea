//! Minimal read-only memory mapping, hand-rolled over raw `mmap(2)` /
//! `munmap(2)` bindings.
//!
//! The container builds without crates.io, so instead of the `memmap2`
//! crate this module declares the two syscalls it needs via `extern "C"`
//! and wraps them in an RAII [`Mmap`]. Only what the v2 graph loader
//! requires is implemented: map a whole file read-only and expose it as
//! a `&[u8]` until drop.
//!
//! On non-Unix targets [`Mmap::map_file`] returns
//! [`std::io::ErrorKind::Unsupported`]; callers fall back to a heap
//! read (see [`crate::format::load_graph_v2`]).

use std::fs::File;
use std::io;

#[cfg(unix)]
mod sys {
    use std::os::raw::{c_int, c_void};

    /// `PROT_READ` — pages may be read.
    pub const PROT_READ: c_int = 0x1;
    /// `MAP_PRIVATE` — copy-on-write private mapping (we never write).
    pub const MAP_PRIVATE: c_int = 0x2;
    /// `MADV_RANDOM` — expect random page references; disable readahead.
    pub const MADV_RANDOM: c_int = 1;
    /// `MADV_WILLNEED` — expect access soon; start readahead now.
    pub const MADV_WILLNEED: c_int = 3;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
        pub fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }
}

/// Access-pattern hints forwarded to `madvise(2)`.
///
/// Hints are best-effort: the kernel may ignore them, and a failed
/// `madvise` never affects the validity of the mapping itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Advice {
    /// The mapping will be read soon — kick off readahead so a
    /// sequential scan (e.g. checksum validation) hits warm pages.
    WillNeed,
    /// Accesses will be random — stop readahead so point queries don't
    /// drag neighbouring pages into memory.
    Random,
}

/// A read-only memory mapping of an entire file.
///
/// The mapping is `MAP_PRIVATE | PROT_READ`: the kernel serves pages
/// straight from the page cache and the process never dirties them, so
/// resident memory for the mapped graph is reclaimable file-backed
/// pages, not anonymous heap. Addresses returned by `mmap(2)` are
/// page-aligned (≥ 4096), which over-satisfies the v2 format's 64-byte
/// section alignment.
#[derive(Debug)]
pub struct Mmap {
    ptr: std::ptr::NonNull<u8>,
    len: usize,
}

// SAFETY: this process never writes through the mapping (PROT_READ,
// never handed out mutably), and it is owned until `Drop`, so sharing
// the pointer across threads is sound. The bytes behind it stay fixed
// only while no one rewrites the file in place: this crate's writers
// never do (`format::write_v2_parts` renames a fresh sibling over its
// target, so a live mapping keeps the old file), but an outside writer
// that truncates or rewrites the mapped file still changes what the
// mapping reads, or cuts it short.
unsafe impl Send for Mmap {}
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Map `file` read-only in its entirety.
    ///
    /// Fails with [`io::ErrorKind::InvalidInput`] for an empty file
    /// (Linux rejects zero-length mappings) and with the raw OS error
    /// if the syscall itself fails.
    #[cfg(unix)]
    pub fn map_file(file: &File) -> io::Result<Mmap> {
        use std::os::unix::io::AsRawFd;
        let len = file.metadata()?.len();
        if len == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "cannot map an empty file",
            ));
        }
        if len > usize::MAX as u64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "file too large to map on this platform",
            ));
        }
        let len = len as usize;
        // SAFETY: fd is valid for the duration of the call; we request a
        // fresh mapping (addr = null) and check for MAP_FAILED.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        let ptr = std::ptr::NonNull::new(ptr as *mut u8)
            .ok_or_else(|| io::Error::other("mmap returned null"))?;
        Ok(Mmap { ptr, len })
    }

    /// Stub for non-Unix targets: always `Unsupported`, so the caller
    /// takes the heap load path.
    #[cfg(not(unix))]
    pub fn map_file(_file: &File) -> io::Result<Mmap> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "mmap is not available on this platform",
        ))
    }

    /// The mapped bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: ptr/len describe a live PROT_READ mapping owned by self.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// Mapped length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the mapping is empty (never the case for a successful map).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Base address of the mapping.
    #[inline]
    pub(crate) fn as_ptr(&self) -> *const u8 {
        self.ptr.as_ptr()
    }

    /// Hint the expected access pattern for the whole mapping.
    ///
    /// Returns the raw OS error when the syscall rejects the hint;
    /// callers treat that as advisory and carry on (the mapping stays
    /// fully usable either way).
    #[cfg(unix)]
    pub fn advise(&self, advice: Advice) -> io::Result<()> {
        let advice = match advice {
            Advice::WillNeed => sys::MADV_WILLNEED,
            Advice::Random => sys::MADV_RANDOM,
        };
        // SAFETY: ptr/len describe a live mapping owned by self;
        // madvise does not invalidate or move it.
        let rc = unsafe { sys::madvise(self.ptr.as_ptr().cast(), self.len, advice) };
        if rc == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }

    /// No-op stub for non-Unix targets (hints have nowhere to go).
    #[cfg(not(unix))]
    pub fn advise(&self, _advice: Advice) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        #[cfg(unix)]
        // SAFETY: ptr/len came from a successful mmap and are unmapped
        // exactly once. munmap failure on a valid mapping is unreachable;
        // there is nothing useful to do with the error in drop either way.
        unsafe {
            let _ = sys::munmap(self.ptr.as_ptr().cast(), self.len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_file(name: &str, contents: &[u8]) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("relcomp_mmap_{}_{name}", std::process::id()));
        let mut f = File::create(&path).unwrap();
        f.write_all(contents).unwrap();
        path
    }

    #[test]
    #[cfg(unix)]
    fn maps_file_contents() {
        let path = temp_file("basic", b"hello mapping");
        let file = File::open(&path).unwrap();
        let map = Mmap::map_file(&file).unwrap();
        assert_eq!(map.as_slice(), b"hello mapping");
        assert_eq!(map.len(), 13);
        assert!(!map.is_empty());
        std::fs::remove_file(path).ok();
    }

    #[test]
    #[cfg(unix)]
    fn rejects_empty_file() {
        let path = temp_file("empty", b"");
        let file = File::open(&path).unwrap();
        assert!(Mmap::map_file(&file).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    #[cfg(unix)]
    fn advise_accepts_both_hints() {
        let path = temp_file("advise", &[7u8; 8192]);
        let file = File::open(&path).unwrap();
        let map = Mmap::map_file(&file).unwrap();
        map.advise(Advice::WillNeed).unwrap();
        map.advise(Advice::Random).unwrap();
        // Hints must not disturb the mapped contents.
        assert!(map.as_slice().iter().all(|&b| b == 7));
        std::fs::remove_file(path).ok();
    }

    #[test]
    #[cfg(unix)]
    fn mapping_is_page_aligned() {
        let path = temp_file("align", &[0u8; 4096]);
        let file = File::open(&path).unwrap();
        let map = Mmap::map_file(&file).unwrap();
        assert_eq!(map.as_ptr() as usize % 4096, 0);
        std::fs::remove_file(path).ok();
    }
}
