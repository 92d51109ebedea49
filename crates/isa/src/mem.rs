//! Sparse byte-addressable memory for the functional emulator.
//!
//! Pages are allocated lazily on first touch; reads of untouched memory
//! return zero, like an OS-zeroed address space.

use std::collections::HashMap;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = (PAGE_SIZE as u64) - 1;

/// Sparse, lazily allocated memory.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Memory {
    pages: HashMap<u64, Box<[u8; PAGE_SIZE]>>,
}

impl Memory {
    /// Empty memory; all addresses read as zero.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Number of 4 KiB pages currently materialized.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    #[inline]
    fn page_of(addr: u64) -> (u64, usize) {
        (addr >> PAGE_SHIFT, (addr & PAGE_MASK) as usize)
    }

    /// Read one byte.
    #[inline]
    pub fn read_u8(&self, addr: u64) -> u8 {
        let (pn, off) = Self::page_of(addr);
        self.pages.get(&pn).map_or(0, |p| p[off])
    }

    /// Write one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: u64, val: u8) {
        let (pn, off) = Self::page_of(addr);
        self.pages
            .entry(pn)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]))[off] = val;
    }

    /// Write `bytes` starting at `addr`, one page-sized chunk at a time.
    ///
    /// Equivalent to one [`Memory::write_u8`] per byte, with one page
    /// lookup per chunk: the same contents, and every page the range
    /// touches is materialized, zero bytes included.
    pub fn write_slice(&mut self, mut addr: u64, bytes: &[u8]) {
        let mut rest = bytes;
        while !rest.is_empty() {
            let (pn, off) = Self::page_of(addr);
            let (chunk, tail) = rest.split_at(rest.len().min(PAGE_SIZE - off));
            self.pages
                .entry(pn)
                .or_insert_with(|| Box::new([0u8; PAGE_SIZE]))[off..off + chunk.len()]
                .copy_from_slice(chunk);
            addr += chunk.len() as u64;
            rest = tail;
        }
    }

    /// Read `N` little-endian bytes starting at `addr` (may straddle pages).
    pub fn read_bytes<const N: usize>(&self, addr: u64) -> [u8; N] {
        let (pn, off) = Self::page_of(addr);
        // Fast path: the access fits inside one page.
        if off + N <= PAGE_SIZE {
            match self.pages.get(&pn) {
                Some(p) => {
                    let mut out = [0u8; N];
                    out.copy_from_slice(&p[off..off + N]);
                    out
                }
                None => [0u8; N],
            }
        } else {
            let mut out = [0u8; N];
            for (i, b) in out.iter_mut().enumerate() {
                *b = self.read_u8(addr + i as u64);
            }
            out
        }
    }

    /// Write `N` little-endian bytes starting at `addr` (may straddle pages).
    pub fn write_bytes<const N: usize>(&mut self, addr: u64, bytes: [u8; N]) {
        let (pn, off) = Self::page_of(addr);
        if off + N <= PAGE_SIZE {
            let page = self
                .pages
                .entry(pn)
                .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
            page[off..off + N].copy_from_slice(&bytes);
        } else {
            for (i, b) in bytes.iter().enumerate() {
                self.write_u8(addr + i as u64, *b);
            }
        }
    }

    /// Read a zero-extended integer of `size` ∈ {1, 2, 4, 8} bytes.
    pub fn read_uint(&self, addr: u64, size: u8) -> u64 {
        match size {
            1 => self.read_u8(addr) as u64,
            2 => u16::from_le_bytes(self.read_bytes::<2>(addr)) as u64,
            4 => u32::from_le_bytes(self.read_bytes::<4>(addr)) as u64,
            8 => u64::from_le_bytes(self.read_bytes::<8>(addr)),
            s => panic!("unsupported integer access size {s}"),
        }
    }

    /// Write the low `size` ∈ {1, 2, 4, 8} bytes of `val`.
    pub fn write_uint(&mut self, addr: u64, val: u64, size: u8) {
        match size {
            1 => self.write_u8(addr, val as u8),
            2 => self.write_bytes::<2>(addr, (val as u16).to_le_bytes()),
            4 => self.write_bytes::<4>(addr, (val as u32).to_le_bytes()),
            8 => self.write_bytes::<8>(addr, val.to_le_bytes()),
            s => panic!("unsupported integer access size {s}"),
        }
    }

    /// Read an `f64`.
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read_uint(addr, 8))
    }

    /// Write an `f64`.
    pub fn write_f64(&mut self, addr: u64, val: f64) {
        self.write_uint(addr, val.to_bits(), 8)
    }

    /// Read a 128-bit SIMD value as 4 × f32 lanes.
    pub fn read_v128(&self, addr: u64) -> [f32; 4] {
        let raw = self.read_bytes::<16>(addr);
        let mut lanes = [0f32; 4];
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = f32::from_le_bytes(raw[i * 4..i * 4 + 4].try_into().unwrap());
        }
        lanes
    }

    /// Write a 128-bit SIMD value from 4 × f32 lanes.
    pub fn write_v128(&mut self, addr: u64, lanes: [f32; 4]) {
        let mut raw = [0u8; 16];
        for (i, lane) in lanes.iter().enumerate() {
            raw[i * 4..i * 4 + 4].copy_from_slice(&lane.to_le_bytes());
        }
        self.write_bytes::<16>(addr, raw);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_memory_reads_zero() {
        let m = Memory::new();
        assert_eq!(m.read_uint(0xdead_beef, 8), 0);
        assert_eq!(m.page_count(), 0);
    }

    #[test]
    fn roundtrip_all_sizes() {
        let mut m = Memory::new();
        for (size, val) in [
            (1u8, 0xabu64),
            (2, 0xbeef),
            (4, 0xdead_beef),
            (8, 0x0123_4567_89ab_cdef),
        ] {
            m.write_uint(0x1000, val, size);
            assert_eq!(m.read_uint(0x1000, size), val);
        }
    }

    #[test]
    fn page_straddling_access() {
        let mut m = Memory::new();
        let addr = (1 << 12) - 3; // 3 bytes before a page boundary
        m.write_uint(addr, 0x1122_3344_5566_7788, 8);
        assert_eq!(m.read_uint(addr, 8), 0x1122_3344_5566_7788);
        assert_eq!(m.page_count(), 2);
    }

    #[test]
    fn float_and_vector_roundtrip() {
        let mut m = Memory::new();
        m.write_f64(64, -3.75);
        assert_eq!(m.read_f64(64), -3.75);
        m.write_v128(128, [1.0, -2.0, 3.5, 0.25]);
        assert_eq!(m.read_v128(128), [1.0, -2.0, 3.5, 0.25]);
    }

    #[test]
    fn slice_writes_match_byte_writes() {
        let bytes: Vec<u8> = (0..3 * PAGE_SIZE as u32).map(|i| (i % 251) as u8).collect();
        let zeros = vec![0u8; 100];
        // (addr, bytes) segments: unaligned inside one page, straddling a
        // page boundary, empty, all-zero, page-aligned, and a multi-page
        // run that starts mid-page and overlaps an earlier segment.
        let segments: [(u64, &[u8]); 6] = [
            (0x1003, &bytes[..17]),
            (0x2ff0, &bytes[..40]),
            (0x9000, &bytes[..0]),
            (0x7ffa, &zeros),
            (0x5000, &bytes[..PAGE_SIZE]),
            (0x2ff8, &bytes[5..2 * PAGE_SIZE + 9]),
        ];
        let mut sliced = Memory::new();
        let mut bytewise = Memory::new();
        for (addr, seg) in segments {
            sliced.write_slice(addr, seg);
            for (i, &b) in seg.iter().enumerate() {
                bytewise.write_u8(addr + i as u64, b);
            }
            assert_eq!(sliced.page_count(), bytewise.page_count(), "{addr:#x}");
            assert!(sliced == bytewise, "contents differ after {addr:#x}");
        }
        // The empty segment materialized nothing; the all-zero one did.
        assert_eq!(sliced.read_uint(0x7ffa, 8), 0);
        assert_eq!(bytewise.page_count(), 7);
    }

    #[test]
    fn byte_writes_are_independent() {
        let mut m = Memory::new();
        m.write_u8(10, 0xaa);
        m.write_u8(11, 0xbb);
        assert_eq!(m.read_uint(10, 2), 0xbbaa);
    }
}
