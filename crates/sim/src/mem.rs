//! Byte-addressable little-endian memory with single-cycle access.
//!
//! The XiRisc evaluation in the paper runs from on-chip SRAM; there are no
//! caches, so every access completes in one cycle. [`Memory`] models that
//! with width/alignment-checked accessors over `size` bytes, every one of
//! which reads zero until written.
//!
//! Every simulator session opens a [`MEM_SIZE`](crate::MEM_SIZE) memory,
//! yet a typical run writes only a few pages of it. So a memory records
//! which 4 KiB pages have been written, and when it is dropped it zeroes
//! just those pages and keeps its buffer in a small per-thread pool; the
//! next [`Memory::new`] of the same size on that thread takes it from
//! there instead of allocating and zero-filling a fresh one. Memories
//! below 64 KiB are cheap to allocate and skip the pool.

use std::cell::RefCell;
use std::fmt;
use std::ops::Range;

/// Kinds of memory access failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum MemErrorKind {
    /// Address beyond the configured memory size.
    OutOfBounds,
    /// Address not aligned to the access width.
    Misaligned,
}

/// The error returned by memory accessors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemError {
    addr: u32,
    width: u8,
    kind: MemErrorKind,
}

impl MemError {
    /// The faulting byte address.
    pub fn addr(&self) -> u32 {
        self.addr
    }

    /// The access width in bytes (1, 2 or 4).
    pub fn width(&self) -> u8 {
        self.width
    }

    /// What went wrong.
    pub fn kind(&self) -> MemErrorKind {
        self.kind
    }
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            MemErrorKind::OutOfBounds => write!(
                f,
                "address {:#x} out of bounds ({}-byte access)",
                self.addr, self.width
            ),
            MemErrorKind::Misaligned => {
                write!(
                    f,
                    "misaligned {}-byte access at {:#x}",
                    self.width, self.addr
                )
            }
        }
    }
}

impl std::error::Error for MemError {}

/// log2 of the page size the write bitmap tracks (4 KiB).
const PAGE_SHIFT: usize = 12;
/// The most recycled buffers one thread keeps.
const POOL_CAP: usize = 4;
/// Memories smaller than this are allocated fresh and never recycled.
const POOL_MIN_SIZE: usize = 64 << 10;

thread_local! {
    /// All-zero buffers dropped on this thread, awaiting reuse.
    static POOL: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

/// Takes the most recently recycled all-zero buffer of exactly `size`
/// bytes, if this thread holds one.
fn take_pooled(size: usize) -> Option<Vec<u8>> {
    POOL.try_with(|pool| {
        let mut pool = pool.try_borrow_mut().ok()?;
        let i = pool.iter().rposition(|b| b.len() == size)?;
        Some(pool.swap_remove(i))
    })
    .ok()
    .flatten()
}

/// Little-endian memory of a fixed size in which every byte reads zero
/// until written.
///
/// A memory remembers which 4 KiB pages it has written; that history
/// does not take part in equality. Dropping a memory of 64 KiB or more
/// zeroes its written pages and keeps the buffer for the next
/// [`Memory::new`] of the same size on the same thread (see the module
/// docs), so opening a session costs a few page resets, not a
/// zero-filled allocation.
///
/// # Examples
///
/// ```
/// use zolc_sim::Memory;
/// let mut m = Memory::new(1024);
/// m.store_word(0x10, 0xdead_beef)?;
/// assert_eq!(m.load_word(0x10)?, 0xdead_beef);
/// assert_eq!(m.load_byte(0x10)?, 0xef);
/// # Ok::<(), zolc_sim::MemError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Memory {
    bytes: Vec<u8>,
    /// One bit per page, set by every write: a page whose bit is clear
    /// is all zero.
    dirty: Vec<u64>,
}

impl Memory {
    /// Creates a memory of `size` bytes that reads zero everywhere.
    pub fn new(size: usize) -> Memory {
        let bytes = (size >= POOL_MIN_SIZE)
            .then(|| take_pooled(size))
            .flatten()
            .unwrap_or_else(|| vec![0; size]);
        let pages = size.div_ceil(1 << PAGE_SHIFT);
        Memory {
            bytes,
            dirty: vec![0; pages.div_ceil(64)],
        }
    }

    /// Total size in bytes.
    pub fn size(&self) -> usize {
        self.bytes.len()
    }

    /// Records a write to the page holding byte `a`.
    #[inline]
    fn mark(&mut self, a: usize) {
        let page = a >> PAGE_SHIFT;
        self.dirty[page / 64] |= 1 << (page % 64);
    }

    fn check(&self, addr: u32, width: u8) -> Result<usize, MemError> {
        let a = addr as usize;
        if !addr.is_multiple_of(u32::from(width)) {
            return Err(MemError {
                addr,
                width,
                kind: MemErrorKind::Misaligned,
            });
        }
        if a + width as usize > self.bytes.len() {
            return Err(MemError {
                addr,
                width,
                kind: MemErrorKind::OutOfBounds,
            });
        }
        Ok(a)
    }

    /// The byte range `addr .. addr + len`, if it lies inside memory.
    fn region(&self, addr: u32, len: usize) -> Result<Range<usize>, MemError> {
        let a = addr as usize;
        match a.checked_add(len) {
            Some(end) if end <= self.bytes.len() => Ok(a..end),
            _ => Err(MemError {
                addr,
                width: 1,
                kind: MemErrorKind::OutOfBounds,
            }),
        }
    }

    /// Loads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] if the address is out of bounds.
    pub fn load_byte(&self, addr: u32) -> Result<u8, MemError> {
        let a = self.check(addr, 1)?;
        Ok(self.bytes[a])
    }

    /// Loads a 16-bit halfword (little-endian).
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] on misalignment or out-of-bounds access.
    pub fn load_half(&self, addr: u32) -> Result<u16, MemError> {
        let a = self.check(addr, 2)?;
        Ok(u16::from_le_bytes([self.bytes[a], self.bytes[a + 1]]))
    }

    /// Loads a 32-bit word (little-endian).
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] on misalignment or out-of-bounds access.
    pub fn load_word(&self, addr: u32) -> Result<u32, MemError> {
        let a = self.check(addr, 4)?;
        Ok(u32::from_le_bytes([
            self.bytes[a],
            self.bytes[a + 1],
            self.bytes[a + 2],
            self.bytes[a + 3],
        ]))
    }

    /// Stores one byte.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] if the address is out of bounds.
    pub fn store_byte(&mut self, addr: u32, value: u8) -> Result<(), MemError> {
        let a = self.check(addr, 1)?;
        self.mark(a);
        self.bytes[a] = value;
        Ok(())
    }

    /// Stores a 16-bit halfword.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] on misalignment or out-of-bounds access.
    pub fn store_half(&mut self, addr: u32, value: u16) -> Result<(), MemError> {
        let a = self.check(addr, 2)?;
        // Aligned, so both bytes share a page.
        self.mark(a);
        self.bytes[a..a + 2].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    /// Stores a 32-bit word.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] on misalignment or out-of-bounds access.
    pub fn store_word(&mut self, addr: u32, value: u32) -> Result<(), MemError> {
        let a = self.check(addr, 4)?;
        // Aligned, so all four bytes share a page.
        self.mark(a);
        self.bytes[a..a + 4].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    /// Copies a byte slice into memory at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] if the region does not fit.
    pub fn write_bytes(&mut self, addr: u32, data: &[u8]) -> Result<(), MemError> {
        let r = self.region(addr, data.len())?;
        if !r.is_empty() {
            for page in r.start >> PAGE_SHIFT..=(r.end - 1) >> PAGE_SHIFT {
                self.mark(page << PAGE_SHIFT);
            }
        }
        self.bytes[r].copy_from_slice(data);
        Ok(())
    }

    /// Reads `len` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] if the region does not fit.
    pub fn read_bytes(&self, addr: u32, len: usize) -> Result<&[u8], MemError> {
        let r = self.region(addr, len)?;
        Ok(&self.bytes[r])
    }

    /// Reads `count` consecutive 32-bit words starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] on misalignment or out-of-bounds access.
    pub fn read_words(&self, addr: u32, count: usize) -> Result<Vec<u32>, MemError> {
        (0..count)
            .map(|k| self.load_word(addr + 4 * k as u32))
            .collect()
    }
}

impl PartialEq for Memory {
    /// Content equality: which pages were written is history, not state.
    fn eq(&self, other: &Memory) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for Memory {}

impl Drop for Memory {
    /// Zeroes the written pages and hands the buffer to this thread's
    /// pool, unless the memory is too small to recycle or the pool is
    /// full.
    fn drop(&mut self) {
        if self.bytes.len() < POOL_MIN_SIZE {
            return;
        }
        let _ = POOL.try_with(|pool| {
            let Ok(mut pool) = pool.try_borrow_mut() else {
                return;
            };
            if pool.len() < POOL_CAP {
                let size = self.bytes.len();
                for (w, &bits) in self.dirty.iter().enumerate() {
                    for b in (0..64).filter(|b| bits >> b & 1 != 0) {
                        let start = (w * 64 + b) << PAGE_SHIFT;
                        self.bytes[start..(start + (1 << PAGE_SHIFT)).min(size)].fill(0);
                    }
                }
                pool.push(std::mem::take(&mut self.bytes));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_widths() {
        let mut m = Memory::new(64);
        m.store_word(0, 0x0102_0304).unwrap();
        assert_eq!(m.load_byte(0).unwrap(), 0x04);
        assert_eq!(m.load_byte(3).unwrap(), 0x01);
        assert_eq!(m.load_half(0).unwrap(), 0x0304);
        assert_eq!(m.load_half(2).unwrap(), 0x0102);
        m.store_half(4, 0xbeef).unwrap();
        assert_eq!(m.load_word(4).unwrap(), 0x0000_beef);
        m.store_byte(8, 0x7f).unwrap();
        assert_eq!(m.load_word(8).unwrap(), 0x0000_007f);
    }

    #[test]
    fn misalignment_detected() {
        let mut m = Memory::new(64);
        assert_eq!(m.load_word(2).unwrap_err().kind(), MemErrorKind::Misaligned);
        assert_eq!(
            m.store_half(1, 0).unwrap_err().kind(),
            MemErrorKind::Misaligned
        );
    }

    #[test]
    fn out_of_bounds_detected() {
        let mut m = Memory::new(8);
        assert_eq!(
            m.load_word(8).unwrap_err().kind(),
            MemErrorKind::OutOfBounds
        );
        assert_eq!(
            m.store_byte(8, 0).unwrap_err().kind(),
            MemErrorKind::OutOfBounds
        );
        assert_eq!(m.load_word(4).unwrap(), 0);
    }

    #[test]
    fn bulk_io() {
        let mut m = Memory::new(32);
        m.write_bytes(4, &[1, 2, 3, 4, 5]).unwrap();
        assert_eq!(m.read_bytes(4, 5).unwrap(), &[1, 2, 3, 4, 5]);
        assert!(m.write_bytes(30, &[0; 4]).is_err());
        assert!(m.read_bytes(30, 4).is_err());
        m.store_word(8, 7).unwrap();
        m.store_word(12, 9).unwrap();
        assert_eq!(m.read_words(8, 2).unwrap(), vec![7, 9]);
    }

    #[test]
    fn error_display() {
        let m = Memory::new(4);
        let e = m.load_word(5).unwrap_err();
        assert!(e.to_string().contains("misaligned"));
        assert_eq!(e.addr(), 5);
        assert_eq!(e.width(), 4);
    }

    /// A recycled size whose last page is partial.
    const BIG: usize = POOL_MIN_SIZE + 100;

    fn pool_len() -> usize {
        POOL.with(|p| p.borrow().len())
    }

    /// Drops `m`, then opens a new memory of its size: the new one must
    /// reuse the dropped buffer and read zero everywhere.
    fn assert_recycled_zero(m: Memory) {
        let size = m.size();
        let ptr = m.bytes.as_ptr();
        drop(m);
        let fresh = Memory::new(size);
        assert_eq!(fresh.bytes.as_ptr(), ptr, "the dropped buffer was reused");
        assert!(fresh.read_bytes(0, size).unwrap().iter().all(|&b| b == 0));
        assert!(fresh.dirty.iter().all(|&w| w == 0));
    }

    #[test]
    fn every_writer_is_reset_before_reuse() {
        let writers: [fn(&mut Memory); 5] = [
            |m| m.store_byte(BIG as u32 - 1, 0xff).unwrap(),
            |m| m.store_half(0x1002, 0xffff).unwrap(),
            |m| m.store_word((BIG - 4) as u32, u32::MAX).unwrap(),
            |m| m.write_bytes(0x3000, &[0xff; 8]).unwrap(),
            // A range that crosses from one page into the next two.
            |m| m.write_bytes(0x1ffe, &[0xff; 0x1004]).unwrap(),
        ];
        for write in writers {
            let mut m = Memory::new(BIG);
            write(&mut m);
            assert!(m.read_bytes(0, BIG).unwrap().contains(&0xff));
            assert_recycled_zero(m);
        }
    }

    #[test]
    fn pool_is_bounded() {
        let live: Vec<Memory> = (0..POOL_CAP + 3).map(|_| Memory::new(BIG)).collect();
        drop(live);
        assert_eq!(pool_len(), POOL_CAP);
        // Small memories never enter the pool.
        drop(Memory::new(POOL_MIN_SIZE - 1));
        let _taken: Vec<Memory> = (0..POOL_CAP).map(|_| Memory::new(BIG)).collect();
        assert_eq!(pool_len(), 0);
    }

    #[test]
    fn equality_ignores_write_history() {
        let mut a = Memory::new(BIG);
        let b = Memory::new(BIG);
        a.store_word(0x2000, 7).unwrap();
        assert_ne!(a, b);
        a.store_word(0x2000, 0).unwrap();
        assert_eq!(a, b);
        assert_eq!(b, a);
        let mut c = Memory::new(BIG);
        c.store_byte(0x5000, 1).unwrap();
        let mut d = Memory::new(BIG);
        d.write_bytes(0x4fff, &[0, 1]).unwrap();
        assert_eq!(c, d);
        assert_ne!(Memory::new(BIG), Memory::new(BIG + 1));
        assert_eq!(Memory::new(8), Memory::new(8));
    }

    #[test]
    fn clone_mid_run_recycles() {
        let mut m = Memory::new(BIG);
        m.store_word(0x10, 1).unwrap();
        m.write_bytes(0xfffe, &[2, 3, 4]).unwrap();
        let mut c = m.clone();
        assert_eq!(c, m);
        assert_eq!(c.read_bytes(0xfffe, 3).unwrap(), &[2, 3, 4]);
        c.store_word(0x8000, 5).unwrap();
        assert_ne!(c, m);
        m.store_word(0x10, 6).unwrap();
        assert_eq!(c.load_word(0x10).unwrap(), 1, "the clone is independent");
        assert_recycled_zero(c);
        assert_recycled_zero(m);
    }

    #[test]
    fn overflowing_lengths_are_out_of_bounds() {
        let mut m = Memory::new(64);
        for (addr, len) in [(8, usize::MAX), (u32::MAX, 2), (0, 65)] {
            let e = m.read_bytes(addr, len).unwrap_err();
            assert_eq!((e.kind(), e.addr()), (MemErrorKind::OutOfBounds, addr));
        }
        let e = m.write_bytes(u32::MAX, &[0; 2]).unwrap_err();
        assert_eq!(e.kind(), MemErrorKind::OutOfBounds);
        assert_eq!(m.read_bytes(64, 0).unwrap(), &[] as &[u8]);
        m.write_bytes(64, &[]).unwrap();
    }
}
