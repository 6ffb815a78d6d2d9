//! Table-driven cyclic redundancy checks.
//!
//! Two deployments of CRC exist in DART and both must be bit-exact between
//! the switch pipeline and the collector NIC:
//!
//! * the **Tofino CRC extern** the switch uses to hash telemetry keys into
//!   collector IDs and memory addresses (§6 of the paper), modelled by
//!   [`Crc32`] and [`Crc16`] with configurable polynomials, and
//! * the **RoCEv2 invariant CRC (iCRC)** trailer appended to every RDMA
//!   packet, computed with the Ethernet polynomial over the packet with
//!   variant fields masked (see [`crate::roce::icrc`]).
//!
//! All engines are reflected (LSB-first) implementations driven by
//! 256-entry lookup tables (eight per CRC-32 engine, see [`Crc32`]),
//! matching the behaviour of the common `CRC-32` (poly `0x04C11DB7`,
//! reflected `0xEDB88320`) and `CRC-16/ARC` (poly `0x8005`, reflected
//! `0xA001`) definitions. The constructors are
//! `const fn`, so the named engines ([`Crc32::ieee`], [`Crc16::arc`], …)
//! are `static`s whose tables are built at compile time: like the
//! fixed-function CRC units of a switch or NIC, computing a checksum never
//! builds a table.

/// Reflected polynomial of the IEEE 802.3 CRC-32 (used by RoCEv2 iCRC).
pub const CRC32_IEEE: u32 = 0xEDB8_8320;
/// Reflected polynomial of CRC-32C (Castagnoli), available as a Tofino
/// extern configuration.
pub const CRC32_CASTAGNOLI: u32 = 0x82F6_3B78;
/// Reflected polynomial of CRC-32K (Koopman).
pub const CRC32_KOOPMAN: u32 = 0xEB31_D82E;
/// Reflected polynomial of CRC-32Q (aviation; 0x814141AB reversed).
pub const CRC32_Q: u32 = 0xD582_8281;
/// Reflected polynomial of CRC-16/ARC.
pub const CRC16_ARC: u16 = 0xA001;
/// Reflected polynomial of CRC-16/CCITT (KERMIT).
pub const CRC16_CCITT: u16 = 0x8408;

/// A reflected, table-driven 32-bit CRC engine.
///
/// Input is consumed eight bytes per step ("slicing-by-8"): table `k`
/// advances the register over a byte followed by `k` zero bytes, so the
/// eight lookups of a step are independent instead of one long chain.
///
/// ```
/// use dta_wire::crc::Crc32;
/// // CRC-32 of "123456789" is the classic check value 0xCBF43926.
/// assert_eq!(Crc32::ieee().checksum(b"123456789"), 0xCBF43926);
/// ```
#[derive(Debug, Clone)]
pub struct Crc32 {
    tables: [[u32; 256]; 8],
    init: u32,
    xorout: u32,
}

static IEEE: Crc32 = Crc32::new(CRC32_IEEE, 0xFFFF_FFFF, 0xFFFF_FFFF);
static CASTAGNOLI: Crc32 = Crc32::new(CRC32_CASTAGNOLI, 0xFFFF_FFFF, 0xFFFF_FFFF);
static KOOPMAN: Crc32 = Crc32::new(CRC32_KOOPMAN, 0xFFFF_FFFF, 0xFFFF_FFFF);
static Q: Crc32 = Crc32::new(CRC32_Q, 0xFFFF_FFFF, 0xFFFF_FFFF);
static ARC: Crc16 = Crc16::new(CRC16_ARC, 0, 0);
static KERMIT: Crc16 = Crc16::new(CRC16_CCITT, 0, 0);

impl Crc32 {
    /// Build an engine for an arbitrary reflected polynomial. The tables
    /// are computed here, once; in a `static` or `const` that happens at
    /// compile time.
    pub const fn new(poly_reflected: u32, init: u32, xorout: u32) -> Self {
        let mut tables = [[0u32; 256]; 8];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u32;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ poly_reflected
                } else {
                    crc >> 1
                };
                bit += 1;
            }
            tables[0][i] = crc;
            i += 1;
        }
        let mut k = 1;
        while k < 8 {
            let mut i = 0;
            while i < 256 {
                let prev = tables[k - 1][i];
                tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
                i += 1;
            }
            k += 1;
        }
        Crc32 {
            tables,
            init,
            xorout,
        }
    }

    /// The IEEE 802.3 CRC-32 (`init = xorout = 0xFFFFFFFF`), as required
    /// by the RoCEv2 iCRC.
    pub fn ieee() -> &'static Crc32 {
        &IEEE
    }

    /// CRC-32C (Castagnoli).
    pub fn castagnoli() -> &'static Crc32 {
        &CASTAGNOLI
    }

    /// CRC-32K (Koopman).
    pub fn koopman() -> &'static Crc32 {
        &KOOPMAN
    }

    /// CRC-32Q.
    pub fn q() -> &'static Crc32 {
        &Q
    }

    /// Begin an incremental computation.
    pub fn digest(&self) -> Digest32<'_> {
        Digest32 {
            crc: self.init,
            engine: self,
        }
    }

    /// One-shot checksum of `data`.
    pub fn checksum(&self, data: &[u8]) -> u32 {
        let mut d = self.digest();
        d.update(data);
        d.finalize()
    }
}

/// Incremental state for [`Crc32`].
#[derive(Debug, Clone)]
pub struct Digest32<'a> {
    crc: u32,
    engine: &'a Crc32,
}

impl Digest32<'_> {
    /// Feed more bytes.
    pub fn update(&mut self, data: &[u8]) {
        let t = &self.engine.tables;
        let mut crc = self.crc;
        let mut blocks = data.chunks_exact(8);
        for block in &mut blocks {
            let lo = crc ^ u32::from_le_bytes([block[0], block[1], block[2], block[3]]);
            let hi = u32::from_le_bytes([block[4], block[5], block[6], block[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][(lo >> 8 & 0xFF) as usize]
                ^ t[5][(lo >> 16 & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][(hi >> 8 & 0xFF) as usize]
                ^ t[1][(hi >> 16 & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in blocks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        self.crc = crc;
    }

    /// Finish and return the checksum.
    pub fn finalize(self) -> u32 {
        self.crc ^ self.engine.xorout
    }
}

/// A reflected, table-driven 16-bit CRC engine.
///
/// ```
/// use dta_wire::crc::Crc16;
/// // CRC-16/ARC of "123456789" is the classic check value 0xBB3D.
/// assert_eq!(Crc16::arc().checksum(b"123456789"), 0xBB3D);
/// ```
#[derive(Debug, Clone)]
pub struct Crc16 {
    table: [u16; 256],
    init: u16,
    xorout: u16,
}

impl Crc16 {
    /// Build an engine for an arbitrary reflected polynomial (see
    /// [`Crc32::new`]).
    pub const fn new(poly_reflected: u16, init: u16, xorout: u16) -> Self {
        let mut table = [0u16; 256];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u16;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ poly_reflected
                } else {
                    crc >> 1
                };
                bit += 1;
            }
            table[i] = crc;
            i += 1;
        }
        Crc16 {
            table,
            init,
            xorout,
        }
    }

    /// CRC-16/ARC (`init = 0`, `xorout = 0`).
    pub fn arc() -> &'static Crc16 {
        &ARC
    }

    /// CRC-16/KERMIT (CCITT, `init = 0`, `xorout = 0`).
    pub fn kermit() -> &'static Crc16 {
        &KERMIT
    }

    /// Begin an incremental computation.
    pub fn digest(&self) -> Digest16<'_> {
        Digest16 {
            crc: self.init,
            engine: self,
        }
    }

    /// One-shot checksum of `data`.
    pub fn checksum(&self, data: &[u8]) -> u16 {
        let mut d = self.digest();
        d.update(data);
        d.finalize()
    }
}

/// Incremental state for [`Crc16`].
#[derive(Debug, Clone)]
pub struct Digest16<'a> {
    crc: u16,
    engine: &'a Crc16,
}

impl Digest16<'_> {
    /// Feed more bytes.
    pub fn update(&mut self, data: &[u8]) {
        for &b in data {
            let idx = ((self.crc ^ u16::from(b)) & 0xFF) as usize;
            self.crc = (self.crc >> 8) ^ self.engine.table[idx];
        }
    }

    /// Finish and return the checksum.
    pub fn finalize(self) -> u16 {
        self.crc ^ self.engine.xorout
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_ieee_check_value() {
        assert_eq!(Crc32::ieee().checksum(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc32_castagnoli_check_value() {
        assert_eq!(Crc32::castagnoli().checksum(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn crc16_arc_check_value() {
        assert_eq!(Crc16::arc().checksum(b"123456789"), 0xBB3D);
    }

    #[test]
    fn crc16_kermit_check_value() {
        assert_eq!(Crc16::kermit().checksum(b"123456789"), 0x2189);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let engine = Crc32::ieee();
        let data = b"direct telemetry access";
        let mut d = engine.digest();
        d.update(&data[..7]);
        d.update(&data[7..]);
        assert_eq!(d.finalize(), engine.checksum(data));
    }

    #[test]
    fn crc16_incremental_matches_oneshot() {
        let engine = Crc16::arc();
        let data = b"direct telemetry access";
        let mut d = engine.digest();
        d.update(&data[..5]);
        d.update(&data[5..]);
        assert_eq!(d.finalize(), engine.checksum(data));
    }

    #[test]
    fn empty_input() {
        // init ^ xorout for IEEE => 0.
        assert_eq!(Crc32::ieee().checksum(&[]), 0);
        assert_eq!(Crc16::arc().checksum(&[]), 0);
    }

    #[test]
    fn crc_differs_on_single_bit_flip() {
        let engine = Crc32::ieee();
        let mut data = *b"telemetry report";
        let base = engine.checksum(&data);
        data[3] ^= 0x01;
        assert_ne!(engine.checksum(&data), base);
    }
}
