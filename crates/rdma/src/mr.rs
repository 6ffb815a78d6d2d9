//! Registered memory regions.
//!
//! A memory region (MR) is a range of host memory the NIC may access on
//! behalf of remote peers. Registration pins the pages and yields an
//! *rkey*; every inbound RDMA operation names an rkey and a virtual
//! address, and the NIC validates `[va, va+len)` against the region's
//! bounds and access flags before touching memory — the hardware analogue
//! of the checks in [`MemoryRegion::check_access`].
//!
//! The backing storage is shared ([`MemoryHandle`]) so the collector's
//! query engine can read the same bytes the NIC writes, mirroring how a
//! host CPU reads DMA'd memory.

use parking_lot::RwLock;
use std::sync::Arc;

/// Access permissions for a memory region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessFlags {
    /// Remote peers may RDMA WRITE.
    pub remote_write: bool,
    /// Remote peers may RDMA READ.
    pub remote_read: bool,
    /// Remote peers may execute atomics.
    pub remote_atomic: bool,
}

impl AccessFlags {
    /// Write + atomic (what a DART collector region grants switches).
    pub const DART_COLLECTOR: AccessFlags = AccessFlags {
        remote_write: true,
        remote_read: false,
        remote_atomic: true,
    };

    /// All permissions.
    pub const ALL: AccessFlags = AccessFlags {
        remote_write: true,
        remote_read: true,
        remote_atomic: true,
    };
}

/// Why an access was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessError {
    /// The virtual address range is not contained in the region.
    OutOfBounds,
    /// The region does not grant the requested operation.
    Permission,
    /// Atomic target not 8-byte aligned.
    Misaligned,
}

/// The kind of access being validated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// RDMA WRITE.
    Write,
    /// RDMA READ.
    Read,
    /// FETCH_ADD / COMPARE_SWAP.
    Atomic,
}

/// The commit semantics a region was registered for — how the NIC
/// classifies inbound operations that land in it. Purely an accounting
/// and dispatch tag: Key-Write and Append regions both receive RDMA
/// WRITEs on the wire, but a NIC serving an Append region counts ring
/// commits separately so cross-layer metric identities can distinguish
/// the primitives.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CommitKind {
    /// Last-writer-wins slot writes (Key-Write).
    #[default]
    Write,
    /// Ring-entry commits (Append).
    Append,
    /// FETCH_ADD counter commits (Key-Increment).
    FetchAdd,
}

/// Shared, lock-protected backing storage of a region.
#[derive(Debug, Clone)]
pub struct MemoryHandle {
    bytes: Arc<RwLock<Vec<u8>>>,
}

impl MemoryHandle {
    /// Snapshot the full contents (copies; used by the query path, which
    /// in hardware is an ordinary cache-coherent CPU read).
    pub fn snapshot(&self) -> Vec<u8> {
        self.bytes.read().clone()
    }

    /// Run a closure over the raw bytes without copying.
    pub fn with<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        f(&self.bytes.read())
    }

    /// Region length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.read().len()
    }

    /// Whether the region is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A registered memory region.
#[derive(Debug, Clone)]
pub struct MemoryRegion {
    base_va: u64,
    rkey: u32,
    access: AccessFlags,
    commit: CommitKind,
    /// Length of `bytes`, which never changes after registration (kept
    /// here so access checks need no lock).
    len: usize,
    bytes: Arc<RwLock<Vec<u8>>>,
}

impl MemoryRegion {
    /// Register a zeroed region of `len` bytes at virtual address
    /// `base_va` with remote key `rkey` (commit kind
    /// [`CommitKind::Write`]).
    pub fn new(base_va: u64, len: usize, rkey: u32, access: AccessFlags) -> MemoryRegion {
        MemoryRegion {
            base_va,
            rkey,
            access,
            commit: CommitKind::default(),
            len,
            bytes: Arc::new(RwLock::new(vec![0u8; len])),
        }
    }

    /// Tag the region with its commit semantics.
    pub fn with_commit(mut self, commit: CommitKind) -> MemoryRegion {
        self.commit = commit;
        self
    }

    /// The commit semantics the region was registered for.
    pub fn commit(&self) -> CommitKind {
        self.commit
    }

    /// The region's virtual base address.
    pub fn base_va(&self) -> u64 {
        self.base_va
    }

    /// The remote key.
    pub fn rkey(&self) -> u32 {
        self.rkey
    }

    /// Region length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the region is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A shareable handle to the backing bytes.
    pub fn handle(&self) -> MemoryHandle {
        MemoryHandle {
            bytes: Arc::clone(&self.bytes),
        }
    }

    /// Validate an access of `len` bytes at `va`.
    pub fn check_access(&self, va: u64, len: usize, kind: AccessKind) -> Result<(), AccessError> {
        let permitted = match kind {
            AccessKind::Write => self.access.remote_write,
            AccessKind::Read => self.access.remote_read,
            AccessKind::Atomic => self.access.remote_atomic,
        };
        if !permitted {
            return Err(AccessError::Permission);
        }
        if kind == AccessKind::Atomic {
            if len != 8 {
                return Err(AccessError::OutOfBounds);
            }
            if va % 8 != 0 {
                return Err(AccessError::Misaligned);
            }
        }
        let end = va
            .checked_sub(self.base_va)
            .and_then(|off| off.checked_add(len as u64))
            .ok_or(AccessError::OutOfBounds)?;
        if end > self.len() as u64 {
            return Err(AccessError::OutOfBounds);
        }
        Ok(())
    }

    /// DMA write `data` at `va`.
    ///
    /// Returns whether the bytes it replaced were all zero — an empty
    /// slot, as opposed to an overwrite — read under the same lock as
    /// the write.
    pub fn write(&self, va: u64, data: &[u8]) -> Result<bool, AccessError> {
        self.check_access(va, data.len(), AccessKind::Write)?;
        let off = (va - self.base_va) as usize;
        let mut guard = self.bytes.write();
        let target = &mut guard[off..off + data.len()];
        let fresh = target.iter().all(|&b| b == 0);
        target.copy_from_slice(data);
        Ok(fresh)
    }

    /// DMA read `len` bytes at `va`.
    pub fn read(&self, va: u64, len: usize) -> Result<Vec<u8>, AccessError> {
        self.check_access(va, len, AccessKind::Read)?;
        let off = (va - self.base_va) as usize;
        Ok(self.bytes.read()[off..off + len].to_vec())
    }

    /// Host-side zeroing of `[va, va+len)` — the tombstone operation of
    /// the recovery re-replication sweep. Only bounds are checked (the
    /// owning host may always write its own memory), so a stranded
    /// failover slot can be retired without granting remote READ/WRITE.
    pub fn zero_range(&self, va: u64, len: usize) -> Result<(), AccessError> {
        let end = va
            .checked_sub(self.base_va)
            .and_then(|off| off.checked_add(len as u64))
            .ok_or(AccessError::OutOfBounds)?;
        if end > self.len() as u64 {
            return Err(AccessError::OutOfBounds);
        }
        let off = (va - self.base_va) as usize;
        self.bytes.write()[off..off + len].fill(0);
        Ok(())
    }

    /// Atomic fetch-and-add on the big-endian u64 at `va`; returns the
    /// value before the add.
    pub fn fetch_add(&self, va: u64, addend: u64) -> Result<u64, AccessError> {
        self.check_access(va, 8, AccessKind::Atomic)?;
        let off = (va - self.base_va) as usize;
        let mut guard = self.bytes.write();
        let old = u64::from_be_bytes(guard[off..off + 8].try_into().unwrap());
        let new = old.wrapping_add(addend);
        guard[off..off + 8].copy_from_slice(&new.to_be_bytes());
        Ok(old)
    }

    /// Atomic compare-and-swap on the big-endian u64 at `va`; stores
    /// `swap` iff the current value equals `compare`. Returns the value
    /// before the operation.
    pub fn compare_swap(&self, va: u64, compare: u64, swap: u64) -> Result<u64, AccessError> {
        self.check_access(va, 8, AccessKind::Atomic)?;
        let off = (va - self.base_va) as usize;
        let mut guard = self.bytes.write();
        let old = u64::from_be_bytes(guard[off..off + 8].try_into().unwrap());
        if old == compare {
            guard[off..off + 8].copy_from_slice(&swap.to_be_bytes());
        }
        Ok(old)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region() -> MemoryRegion {
        MemoryRegion::new(0x1000, 256, 42, AccessFlags::ALL)
    }

    #[test]
    fn write_then_read() {
        let mr = region();
        mr.write(0x1010, b"dart").unwrap();
        assert_eq!(mr.read(0x1010, 4).unwrap(), b"dart");
    }

    #[test]
    fn bounds_enforced() {
        let mr = region();
        assert_eq!(
            mr.write(0x0FFF, b"x"),
            Err(AccessError::OutOfBounds),
            "below base"
        );
        assert_eq!(
            mr.write(0x1000 + 255, b"xy"),
            Err(AccessError::OutOfBounds),
            "crosses end"
        );
        assert!(mr.write(0x1000 + 255, b"x").is_ok(), "last byte");
        assert_eq!(mr.read(0x1100, 1), Err(AccessError::OutOfBounds));
    }

    #[test]
    fn permissions_enforced() {
        let mr = MemoryRegion::new(0, 64, 1, AccessFlags::DART_COLLECTOR);
        assert!(mr.write(0, b"ok").is_ok());
        assert_eq!(mr.read(0, 2), Err(AccessError::Permission));
        assert!(mr.fetch_add(0, 1).is_ok());
    }

    #[test]
    fn atomics_require_alignment() {
        let mr = region();
        assert_eq!(mr.fetch_add(0x1001, 1), Err(AccessError::Misaligned));
        assert_eq!(mr.compare_swap(0x1004, 0, 1), Err(AccessError::Misaligned));
    }

    #[test]
    fn fetch_add_semantics() {
        let mr = region();
        assert_eq!(mr.fetch_add(0x1000, 5).unwrap(), 0);
        assert_eq!(mr.fetch_add(0x1000, 3).unwrap(), 5);
        assert_eq!(mr.read(0x1000, 8).unwrap(), 8u64.to_be_bytes());
        // Wrapping.
        let mr2 = region();
        mr2.write(0x1000, &u64::MAX.to_be_bytes()).unwrap();
        assert_eq!(mr2.fetch_add(0x1000, 1).unwrap(), u64::MAX);
        assert_eq!(mr2.read(0x1000, 8).unwrap(), 0u64.to_be_bytes());
    }

    #[test]
    fn compare_swap_semantics() {
        let mr = region();
        // Succeeds against the zeroed word.
        assert_eq!(mr.compare_swap(0x1008, 0, 7).unwrap(), 0);
        assert_eq!(mr.read(0x1008, 8).unwrap(), 7u64.to_be_bytes());
        // Fails now that the word is 7.
        assert_eq!(mr.compare_swap(0x1008, 0, 9).unwrap(), 7);
        assert_eq!(mr.read(0x1008, 8).unwrap(), 7u64.to_be_bytes());
    }

    #[test]
    fn handle_sees_nic_writes() {
        let mr = region();
        let handle = mr.handle();
        mr.write(0x1000, b"zero-cpu").unwrap();
        assert_eq!(&handle.snapshot()[..8], b"zero-cpu");
        handle.with(|bytes| assert_eq!(&bytes[..8], b"zero-cpu"));
        assert_eq!(handle.len(), 256);
        assert!(!handle.is_empty());
    }

    #[test]
    fn zero_range_is_bounds_checked_host_access() {
        // A collector-grade region (no remote READ) can still tombstone
        // its own slots.
        let mr = MemoryRegion::new(0x1000, 64, 9, AccessFlags::DART_COLLECTOR);
        mr.write(0x1010, b"stranded").unwrap();
        mr.zero_range(0x1010, 8).unwrap();
        assert_eq!(mr.handle().snapshot()[0x10..0x18], [0u8; 8]);
        assert_eq!(mr.zero_range(0x0FFF, 1), Err(AccessError::OutOfBounds));
        assert_eq!(mr.zero_range(0x1000 + 63, 2), Err(AccessError::OutOfBounds));
        assert!(mr.zero_range(0x1000 + 63, 1).is_ok());
    }

    #[test]
    fn overflow_arithmetic_rejected() {
        // Length so large that `offset + len` overflows u64 — the
        // checked arithmetic must refuse rather than wrap.
        let mr = MemoryRegion::new(0x1000, 16, 1, AccessFlags::ALL);
        assert_eq!(
            mr.check_access(0x1008, usize::MAX, AccessKind::Write),
            Err(AccessError::OutOfBounds)
        );
        // Address below the base underflows the offset subtraction.
        assert_eq!(
            mr.check_access(0x0FFF, 1, AccessKind::Write),
            Err(AccessError::OutOfBounds)
        );
    }
}
