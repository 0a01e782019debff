//! The process allocator of the `easypap`, `easyview` and `easyplot`
//! binaries. A block of at least 2 MiB (the x86-64 PMD size) gets an
//! anonymous mapping of its own, 2 MiB-aligned and advised
//! `MADV_HUGEPAGE`, so that the kernel can back each whole 2 MiB of it
//! with one huge page: a 1024² RGBA image then costs three first-touch
//! faults (two huge pages and a 4 KiB tail) instead of 1 025.
//! Everything smaller, and every build but
//! Linux x86-64, goes to [`System`]. A binary installs it with
//! `#[global_allocator]`; a library that did would impose it on every
//! test binary that links the library.

use std::alloc::{GlobalAlloc, Layout, System};

/// A [`GlobalAlloc`] that maps each large block on huge pages (see the
/// module docs) and hands every other block to [`System`].
pub struct HugePageAlloc;

impl HugePageAlloc {
    /// Whether a block of `layout` gets a mapping of its own.
    #[inline]
    fn maps(layout: Layout) -> bool {
        layout.size() >= sys::LARGE && layout.align() <= sys::LARGE
    }
}

// SAFETY: a block goes to `sys::map` or to `System` by its layout alone,
// and every method is handed the layout the block was made with (the
// `GlobalAlloc` contract), so each block is freed by whichever made it.
// `sys::map(size)` returns null or `size` writable, zeroed bytes aligned
// to `sys::LARGE` (≥ the layout's alignment), in a mapping nothing else
// uses until `sys::unmap` removes it.
unsafe impl GlobalAlloc for HugePageAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if Self::maps(layout) {
            sys::map(layout.size())
        } else {
            // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
            unsafe { System.alloc(layout) }
        }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if Self::maps(layout) {
            // A fresh anonymous mapping reads zero: no memset.
            sys::map(layout.size())
        } else {
            // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
            unsafe { System.alloc_zeroed(layout) }
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if Self::maps(layout) {
            // SAFETY: `ptr` was made under `layout`, so by `sys::map`
            // with this size, and the caller never uses it again.
            unsafe { sys::unmap(ptr, layout.size()) }
        } else {
            // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees that `new_size`, rounded up to
        // `layout.align()`, does not overflow `isize`.
        let new = unsafe { Layout::from_size_align_unchecked(new_size, layout.align()) };
        if !Self::maps(layout) && !Self::maps(new) {
            // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
            return unsafe { System.realloc(ptr, layout, new_size) };
        }
        // Map, copy, unmap: `mremap` may move a block off its alignment.
        // SAFETY: `new` has a non-zero size, as `new_size` must.
        let fresh = unsafe { self.alloc(new) };
        if !fresh.is_null() {
            // SAFETY: both blocks hold at least the bytes copied, are
            // distinct live blocks, and `ptr` is freed under the layout
            // it was made with and not used again.
            unsafe {
                std::ptr::copy_nonoverlapping(ptr, fresh, layout.size().min(new_size));
                self.dealloc(ptr, layout);
            }
        }
        fresh
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    use std::os::raw::{c_int, c_long, c_void};

    /// The x86-64 PMD size, what one huge page maps: the smallest
    /// block mapped, and the alignment of every mapping.
    pub(super) const LARGE: usize = 2 << 20;
    const PAGE: usize = 4 << 10;
    const PROT_READ_WRITE: c_int = 0x1 | 0x2;
    const MAP_PRIVATE_ANONYMOUS: c_int = 0x02 | 0x20;
    const MADV_HUGEPAGE: c_int = 14;
    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            off: c_long,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }

    /// The bytes mapped for a block of `size`: rounded up to a small
    /// page only, so that a tail under 2 MiB stays on small pages and
    /// the resident set is not rounded up.
    fn mapped_len(size: usize) -> usize {
        size.next_multiple_of(PAGE)
    }

    /// `size` zeroed bytes at the 2 MiB-aligned start of a private
    /// anonymous mapping of their own, or null if the kernel refuses.
    pub(super) fn map(size: usize) -> *mut u8 {
        let len = mapped_len(size);
        // Some start in the first 2 MiB less a page of a page-aligned
        // mapping is 2 MiB-aligned: map that much more, trim both ends.
        let span = len + LARGE - PAGE;
        // SAFETY: a new anonymous mapping at an address the kernel
        // picks overlaps no memory the program uses.
        let base = unsafe {
            mmap(
                std::ptr::null_mut(),
                span,
                PROT_READ_WRITE,
                MAP_PRIVATE_ANONYMOUS,
                -1,
                0,
            )
        };
        if base as usize == usize::MAX {
            return std::ptr::null_mut(); // MAP_FAILED
        }
        let head = (base as usize).next_multiple_of(LARGE) - base as usize;
        let start = base.wrapping_byte_add(head);
        let tail = span - head - len;
        // SAFETY: the head, the tail and the block all lie in the mapping
        // just made, which nothing else knows of yet. A failed `madvise`
        // leaves the block on small pages, still valid.
        unsafe {
            if head > 0 {
                munmap(base, head);
            }
            if tail > 0 {
                munmap(start.wrapping_byte_add(len), tail);
            }
            madvise(start, len, MADV_HUGEPAGE);
        }
        start.cast()
    }

    /// Removes a block's mapping.
    ///
    /// # Safety
    ///
    /// `ptr` is what [`map`] returned for this `size`, and nothing uses
    /// the block afterwards.
    pub(super) unsafe fn unmap(ptr: *mut u8, size: usize) {
        // SAFETY: the contract above: the range is exactly the block's
        // mapping, and no reference into it outlives this call.
        unsafe { munmap(ptr.cast(), mapped_len(size)) };
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod sys {
    /// No block is this large, so every one goes to `System`.
    pub(super) const LARGE: usize = usize::MAX;

    pub(super) fn map(_size: usize) -> *mut u8 {
        std::ptr::null_mut()
    }

    /// Never called, since no block is mapped here.
    ///
    /// # Safety
    ///
    /// The Linux `unmap`'s contract, so that callers are the same on
    /// every platform.
    pub(super) unsafe fn unmap(_ptr: *mut u8, _size: usize) {}
}
