//! Tofino-like pipeline externs: CRC units, RNG, register arrays.
//!
//! A P4 program cannot compute arbitrary functions; it calls fixed-
//! function *externs*. DART's prototype needs exactly three (§6):
//!
//! * the **CRC extern** — keyed hashing for collector choice, slot
//!   addresses, key checksums and the RoCEv2 iCRC;
//! * the **random number generator** — draws the copy index
//!   `n ∈ [0, N)` per report;
//! * **register arrays** — the only per-packet-writable state; DART
//!   stores one RoCEv2 PSN counter per collector (~20 B of SRAM per
//!   collector including the lookup-table entry).

use dta_wire::crc::{Crc16, Crc32};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Polynomials the CRC extern can be configured with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrcPoly {
    /// CRC-16/ARC.
    Crc16Arc,
    /// CRC-32 (IEEE 802.3).
    Crc32Ieee,
    /// CRC-32C (Castagnoli).
    Crc32C,
}

/// A configured CRC extern instance: a handle on one of the `static`
/// engines, whose tables are fixed like the hardware unit's.
#[derive(Debug, Clone, Copy)]
pub enum CrcExtern {
    /// 16-bit engine.
    C16(&'static Crc16),
    /// 32-bit engine.
    C32(&'static Crc32),
}

impl CrcExtern {
    /// Instantiate for a polynomial.
    pub fn new(poly: CrcPoly) -> CrcExtern {
        match poly {
            CrcPoly::Crc16Arc => CrcExtern::C16(Crc16::arc()),
            CrcPoly::Crc32Ieee => CrcExtern::C32(Crc32::ieee()),
            CrcPoly::Crc32C => CrcExtern::C32(Crc32::castagnoli()),
        }
    }

    /// Hash `data`, zero-extended to 32 bits.
    pub fn hash32(&self, data: &[u8]) -> u32 {
        match self {
            CrcExtern::C16(c) => u32::from(c.checksum(data)),
            CrcExtern::C32(c) => c.checksum(data),
        }
    }
}

/// The Tofino-native random number generator.
///
/// Hardware draws from a free-running LFSR; we use a seeded PRNG so
/// simulations are reproducible while keeping the same interface.
#[derive(Debug)]
pub struct RandomExtern {
    rng: StdRng,
}

impl RandomExtern {
    /// Seeded instance.
    pub fn new(seed: u64) -> RandomExtern {
        RandomExtern {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// A uniform draw from `[0, n)` — used for the copy index.
    pub fn next_below(&mut self, n: u8) -> u8 {
        debug_assert!(n >= 1);
        self.rng.gen_range(0..n)
    }

    /// A raw 16-bit draw (what the hardware primitive returns).
    pub fn next_u16(&mut self) -> u16 {
        self.rng.gen()
    }
}

/// Errors from register array access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegisterOutOfRange {
    /// Index requested.
    pub index: usize,
    /// Array size.
    pub size: usize,
}

impl core::fmt::Display for RegisterOutOfRange {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "register index {} out of range ({})",
            self.index, self.size
        )
    }
}

impl std::error::Error for RegisterOutOfRange {}

/// A fixed-size register array with Tofino stateful-ALU semantics:
/// one read-modify-write per packet per array.
#[derive(Debug, Clone)]
pub struct RegisterArray<T: Copy + Default> {
    cells: Vec<T>,
}

impl<T: Copy + Default> RegisterArray<T> {
    /// Allocate `size` zeroed registers.
    pub fn new(size: usize) -> RegisterArray<T> {
        RegisterArray {
            cells: vec![T::default(); size],
        }
    }

    /// Number of registers.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Read register `index`.
    pub fn read(&self, index: usize) -> Result<T, RegisterOutOfRange> {
        self.cells.get(index).copied().ok_or(RegisterOutOfRange {
            index,
            size: self.cells.len(),
        })
    }

    /// Write register `index`.
    pub fn write(&mut self, index: usize, value: T) -> Result<(), RegisterOutOfRange> {
        let size = self.cells.len();
        match self.cells.get_mut(index) {
            Some(cell) => {
                *cell = value;
                Ok(())
            }
            None => Err(RegisterOutOfRange { index, size }),
        }
    }

    /// Atomic read-modify-write (one stateful-ALU operation): stores
    /// `f(old)` and returns `old`.
    pub fn read_modify_write(
        &mut self,
        index: usize,
        f: impl FnOnce(T) -> T,
    ) -> Result<T, RegisterOutOfRange> {
        let size = self.cells.len();
        match self.cells.get_mut(index) {
            Some(cell) => {
                let old = *cell;
                *cell = f(old);
                Ok(old)
            }
            None => Err(RegisterOutOfRange { index, size }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc_externs_match_wire_engines() {
        assert_eq!(
            CrcExtern::new(CrcPoly::Crc32Ieee).hash32(b"123456789"),
            0xCBF4_3926
        );
        assert_eq!(
            CrcExtern::new(CrcPoly::Crc16Arc).hash32(b"123456789"),
            0xBB3D
        );
        assert_eq!(
            CrcExtern::new(CrcPoly::Crc32C).hash32(b"123456789"),
            0xE306_9283
        );
    }

    #[test]
    fn rng_is_seed_deterministic_and_bounded() {
        let mut a = RandomExtern::new(9);
        let mut b = RandomExtern::new(9);
        for _ in 0..100 {
            let x = a.next_below(4);
            assert_eq!(x, b.next_below(4));
            assert!(x < 4);
        }
    }

    #[test]
    fn rng_covers_range() {
        let mut r = RandomExtern::new(1);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[r.next_below(4) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all copy indices drawn");
    }

    #[test]
    fn register_read_write() {
        let mut regs: RegisterArray<u32> = RegisterArray::new(4);
        assert_eq!(regs.read(0).unwrap(), 0);
        regs.write(2, 77).unwrap();
        assert_eq!(regs.read(2).unwrap(), 77);
        assert_eq!(regs.len(), 4);
        assert!(!regs.is_empty());
    }

    #[test]
    fn register_rmw_returns_old() {
        let mut regs: RegisterArray<u32> = RegisterArray::new(2);
        // PSN-counter idiom: post-increment.
        assert_eq!(regs.read_modify_write(0, |v| v + 1).unwrap(), 0);
        assert_eq!(regs.read_modify_write(0, |v| v + 1).unwrap(), 1);
        assert_eq!(regs.read(0).unwrap(), 2);
    }

    #[test]
    fn register_bounds() {
        let mut regs: RegisterArray<u8> = RegisterArray::new(2);
        assert!(regs.read(2).is_err());
        assert!(regs.write(5, 1).is_err());
        assert!(regs.read_modify_write(9, |v| v).is_err());
        let err = regs.read(2).unwrap_err();
        assert_eq!(err.to_string(), "register index 2 out of range (2)");
    }
}
