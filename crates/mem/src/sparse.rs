//! Paged sparse storage: the executor's functional memory, and the
//! two-level page table behind it.

const PAGE_SHIFT: u32 = 12;
const PAGE_BYTES: usize = 1 << PAGE_SHIFT;

/// Bits of a page number resolved by each level of a [`PageTable`] below
/// the root.
const LEAF_BITS: u32 = 10;
const LEAF_LEN: usize = 1 << LEAF_BITS;

/// A sparse array of `T` over the whole `u32` key space, stored as pages
/// of `2^PAGE_BITS` elements allocated on first write. A two-level table
/// finds a page: the root indexes by the key's top bits, each leaf by the
/// next ten bits. Unwritten elements read as `T::default()`.
///
/// A lookup is two indexed loads and the table has no seeded state, so
/// its behaviour, like everything else in the simulator, is a pure
/// function of the accesses made.
///
/// ```
/// use codepack_mem::PageTable;
/// let mut t: PageTable<u64, 10> = PageTable::new();
/// t.set(0x3fff_ffff, 7);
/// assert_eq!(t.get(0x3fff_ffff), 7);
/// assert_eq!(t.get(0x1234), 0, "unwritten keys read as the default");
/// assert_eq!(t.pages(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct PageTable<T, const PAGE_BITS: u32> {
    root: Vec<Option<Leaf<T>>>,
    pages: usize,
}

/// One leaf of a [`PageTable`]: [`LEAF_LEN`] page slots.
type Leaf<T> = Box<[Option<Box<[T]>>]>;

impl<T: Copy + Default, const PAGE_BITS: u32> PageTable<T, PAGE_BITS> {
    const ROOT_SHIFT: u32 = PAGE_BITS + LEAF_BITS;

    /// Creates an empty table.
    pub fn new() -> Self {
        PageTable {
            root: vec![None; 1 << (32 - Self::ROOT_SHIFT)],
            pages: 0,
        }
    }

    /// Number of pages written so far.
    pub fn pages(&self) -> usize {
        self.pages
    }

    /// The page holding `key`, if it was ever written.
    #[inline]
    pub fn page(&self, key: u32) -> Option<&[T]> {
        let leaf = self.root[(key >> Self::ROOT_SHIFT) as usize].as_deref()?;
        leaf[(key >> PAGE_BITS) as usize & (LEAF_LEN - 1)].as_deref()
    }

    /// The page holding `key`, allocated (all defaults) on first use.
    #[inline]
    pub fn page_mut(&mut self, key: u32) -> &mut [T] {
        let leaf = self.root[(key >> Self::ROOT_SHIFT) as usize]
            .get_or_insert_with(|| vec![None; LEAF_LEN].into_boxed_slice());
        let slot = &mut leaf[(key >> PAGE_BITS) as usize & (LEAF_LEN - 1)];
        if slot.is_none() {
            self.pages += 1;
        }
        slot.get_or_insert_with(|| vec![T::default(); 1 << PAGE_BITS].into_boxed_slice())
    }

    /// The element at `key`.
    #[inline]
    pub fn get(&self, key: u32) -> T {
        self.page(key)
            .map_or_else(T::default, |p| p[Self::offset(key)])
    }

    /// Writes the element at `key`.
    #[inline]
    pub fn set(&mut self, key: u32, value: T) {
        self.page_mut(key)[Self::offset(key)] = value;
    }

    #[inline]
    fn offset(key: u32) -> usize {
        key as usize & ((1 << PAGE_BITS) - 1)
    }
}

impl<T: Copy + Default, const PAGE_BITS: u32> Default for PageTable<T, PAGE_BITS> {
    fn default() -> Self {
        PageTable::new()
    }
}

/// A byte-addressable sparse memory backed by 4 KiB pages allocated on first
/// touch. Unwritten bytes read as zero, like freshly mapped pages.
///
/// This is the *functional* data memory of the simulated machine; timing is
/// handled separately by the cache models and [`crate::MemoryTiming`].
///
/// Multi-byte accesses use little-endian byte order and may span pages.
///
/// ```
/// use codepack_mem::SparseMemory;
/// let mut m = SparseMemory::new();
/// m.write_u32(0x1000_0000, 0xdead_beef);
/// assert_eq!(m.read_u32(0x1000_0000), 0xdead_beef);
/// assert_eq!(m.read_u8(0x1000_0000), 0xef);
/// assert_eq!(m.read_u32(0x7fff_0000), 0, "untouched memory reads zero");
/// ```
#[derive(Clone, Debug, Default)]
pub struct SparseMemory {
    pages: PageTable<u8, PAGE_SHIFT>,
}

impl SparseMemory {
    /// Creates an empty memory.
    pub fn new() -> SparseMemory {
        SparseMemory::default()
    }

    /// Number of pages that have been touched by a write.
    pub fn resident_pages(&self) -> usize {
        self.pages.pages()
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&self, addr: u32) -> u8 {
        self.pages.get(addr)
    }

    /// Writes one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: u32, value: u8) {
        self.pages.set(addr, value);
    }

    /// Reads a little-endian 16-bit value.
    #[inline]
    pub fn read_u16(&self, addr: u32) -> u16 {
        u16::from(self.read_u8(addr)) | (u16::from(self.read_u8(addr.wrapping_add(1))) << 8)
    }

    /// Writes a little-endian 16-bit value.
    #[inline]
    pub fn write_u16(&mut self, addr: u32, value: u16) {
        self.write_u8(addr, value as u8);
        self.write_u8(addr.wrapping_add(1), (value >> 8) as u8);
    }

    /// Reads a little-endian 32-bit value.
    #[inline]
    pub fn read_u32(&self, addr: u32) -> u32 {
        // Fast path: access within one page.
        let offset = (addr as usize) & (PAGE_BYTES - 1);
        if offset + 4 <= PAGE_BYTES {
            if let Some(page) = self.pages.page(addr) {
                return u32::from_le_bytes(page[offset..offset + 4].try_into().expect("4 bytes"));
            }
            return 0;
        }
        u32::from(self.read_u16(addr)) | (u32::from(self.read_u16(addr.wrapping_add(2))) << 16)
    }

    /// Writes a little-endian 32-bit value.
    #[inline]
    pub fn write_u32(&mut self, addr: u32, value: u32) {
        let offset = (addr as usize) & (PAGE_BYTES - 1);
        if offset + 4 <= PAGE_BYTES {
            self.pages.page_mut(addr)[offset..offset + 4].copy_from_slice(&value.to_le_bytes());
            return;
        }
        self.write_u16(addr, value as u16);
        self.write_u16(addr.wrapping_add(2), (value >> 16) as u16);
    }

    /// Bulk-loads `bytes` starting at `addr` (used by the program loader).
    pub fn load(&mut self, addr: u32, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u32), b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_semantics() {
        let m = SparseMemory::new();
        assert_eq!(m.read_u8(12345), 0);
        assert_eq!(m.read_u32(0xffff_fffc), 0);
        assert_eq!(m.resident_pages(), 0, "reads never allocate");
    }

    #[test]
    fn little_endian_layout() {
        let mut m = SparseMemory::new();
        m.write_u32(0x100, 0x0403_0201);
        assert_eq!(m.read_u8(0x100), 1);
        assert_eq!(m.read_u8(0x103), 4);
        assert_eq!(m.read_u16(0x102), 0x0403);
    }

    #[test]
    fn cross_page_word_access() {
        let mut m = SparseMemory::new();
        let addr = (1 << PAGE_SHIFT) - 2;
        m.write_u32(addr, 0xaabb_ccdd);
        assert_eq!(m.read_u32(addr), 0xaabb_ccdd);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn bulk_load_round_trips() {
        let mut m = SparseMemory::new();
        let data: Vec<u8> = (0..=255).collect();
        m.load(0x2000_0000, &data);
        for (i, &b) in data.iter().enumerate() {
            assert_eq!(m.read_u8(0x2000_0000 + i as u32), b);
        }
    }

    #[test]
    fn wrapping_address_arithmetic() {
        let mut m = SparseMemory::new();
        m.write_u16(0xffff_ffff, 0xbeef);
        assert_eq!(m.read_u8(0xffff_ffff), 0xef);
        assert_eq!(m.read_u8(0x0000_0000), 0xbe);
    }
}
