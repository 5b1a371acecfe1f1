//! Minimal read-only memory mapping for store files.
//!
//! The container this repo builds in vendors no `libc`/`memmap2`
//! crates, so the two syscalls are declared directly. The mapping is
//! `PROT_READ`/`MAP_PRIVATE`: chunk payloads are decoded straight out
//! of the mapped image with no intermediate read buffer, and nothing
//! can write through the map.
//!
//! Safety argument (see DESIGN.md for the long form): every access to
//! the map goes through `as_slice()` byte slices and
//! `u64::from_le_bytes`-style copies — no typed pointer casts — so
//! alignment of the mapped records is irrelevant. The reader maps a
//! store before it reads a byte of it and then reads only through the
//! map: every access is a bounds-checked slice of the length fixed
//! here at open, so a damaged file yields a typed error, never an
//! out-of-bounds read. Store files are written append-only and
//! finished before they are opened for analysis; a file truncated
//! *while mapped* would fault on touch, which is the same contract
//! `memmap2` documents.

use std::fs::File;
use std::os::unix::io::AsRawFd;

use core::ffi::{c_int, c_void};

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

const PROT_READ: c_int = 1;
const MAP_PRIVATE: c_int = 2;

/// A read-only, whole-file, private memory mapping.
pub struct Mmap {
    /// Null iff the file was empty (`mmap` rejects zero-length maps).
    ptr: *mut c_void,
    len: usize,
}

// The mapping is immutable for its whole lifetime; sharing the raw
// pointer across threads is no different from sharing a `&[u8]`.
unsafe impl Send for Mmap {}
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Map the whole of `file` read-only.
    pub fn map(file: &File) -> std::io::Result<Mmap> {
        let len = file.metadata()?.len();
        let len = usize::try_from(len)
            .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "file too large"))?;
        if len == 0 {
            return Ok(Mmap {
                ptr: std::ptr::null_mut(),
                len: 0,
            });
        }
        // SAFETY: requesting a fresh PROT_READ/MAP_PRIVATE mapping of a
        // file descriptor we own; the kernel picks the address. The
        // only failure mode is MAP_FAILED, checked below.
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ,
                MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Mmap { ptr, len })
    }

    /// The mapped image as a byte slice.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        if self.ptr.is_null() {
            return &[];
        }
        // SAFETY: `ptr` is a live PROT_READ mapping of exactly `len`
        // bytes, valid until `Drop`, and nothing can write through it.
        unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        if !self.ptr.is_null() {
            // SAFETY: unmapping the exact region mapped in `map`.
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

impl std::fmt::Debug for Mmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mmap").field("len", &self.len).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn maps_file_contents() {
        let path = std::env::temp_dir().join(format!("osn-mmap-test-{}", std::process::id()));
        let payload = b"hello, columnar world";
        {
            let mut f = File::create(&path).unwrap();
            f.write_all(payload).unwrap();
        }
        let f = File::open(&path).unwrap();
        let map = Mmap::map(&f).unwrap();
        assert_eq!(map.len(), payload.len());
        assert!(!map.is_empty());
        assert_eq!(map.as_slice(), payload);
        drop(map);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_maps_empty() {
        let path = std::env::temp_dir().join(format!("osn-mmap-empty-{}", std::process::id()));
        File::create(&path).unwrap();
        let f = File::open(&path).unwrap();
        let map = Mmap::map(&f).unwrap();
        assert!(map.is_empty());
        assert_eq!(map.as_slice(), b"");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_readers_share_a_map() {
        let path = std::env::temp_dir().join(format!("osn-mmap-share-{}", std::process::id()));
        std::fs::write(&path, vec![7u8; 4096]).unwrap();
        let f = File::open(&path).unwrap();
        let map = std::sync::Arc::new(Mmap::map(&f).unwrap());
        let m2 = map.clone();
        let h = std::thread::spawn(move || m2.as_slice().iter().map(|&b| b as u64).sum::<u64>());
        let a = map.as_slice().iter().map(|&b| b as u64).sum::<u64>();
        assert_eq!(h.join().unwrap(), a);
        std::fs::remove_file(&path).ok();
    }
}
