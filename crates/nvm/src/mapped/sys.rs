//! Raw `mmap` / `munmap` / `flock` (no libc in this workspace; the build
//! environment has no registry access). Linux x86_64 + aarch64; every other
//! target answers `ENOSYS`, which surfaces as [`MapError::Unsupported`].
//!
//! Invariants this file owns:
//!
//! * **One mapping per heap.** [`map_file`] is the only function in
//!   `nvm::mapped` that maps the heap file, and every attacher calls it once
//!   for its *whole* VA reservation from file offset 0 (file offset == heap
//!   offset), wherever the kernel puts it: the image holds offsets, never
//!   addresses, so no attacher needs a particular base.
//!   Pages of a `MAP_SHARED` file mapping become readable the instant the
//!   file covers them, so growth is an `ftruncate` and nothing else — nobody
//!   maps a second time. Pages past EOF are plain address space; nothing
//!   points into them until a growth has extended the file underneath.
//! * **The attach flock is attach-time only.** [`flock_ex`] serializes
//!   create/attach/join decisions (and catalog appends) across
//!   processes, never the operation hot path, and the kernel releases it when
//!   its holder dies — a SIGKILLed peer cannot wedge it.

use super::MapError;
use std::fs::File;
use std::os::fd::AsRawFd;

const PROT_READ: usize = 1;
const PROT_WRITE: usize = 2;
const MAP_SHARED: usize = 0x01;
const LOCK_EX: usize = 2;
const LOCK_UN: usize = 8;
const ENOSYS: isize = -38;
const EINTR: isize = -4;

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod nr {
    pub const MMAP: usize = 9; // takes a byte offset
    pub const MUNMAP: usize = 11;
    pub const FLOCK: usize = 73;
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
mod nr {
    pub const MMAP: usize = 222; // takes a byte offset
    pub const MUNMAP: usize = 215;
    pub const FLOCK: usize = 32;
}

#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
mod nr {
    pub const MMAP: usize = 0;
    pub const MUNMAP: usize = 0;
    pub const FLOCK: usize = 0;
}

/// One raw syscall; returns the kernel's value (`-errno` on failure). Calls
/// with fewer than six arguments pass zeros the kernel never reads.
///
/// # Safety
/// `nr` and `a` must be a call that is sound to make: this file makes only
/// `mmap` without `MAP_FIXED` (it never replaces a mapping), `munmap` of a
/// range the caller owns, and `flock` on an open file.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
unsafe fn syscall(nr: usize, a: [usize; 6]) -> isize {
    let ret: isize;
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") nr as isize => ret,
            in("rdi") a[0],
            in("rsi") a[1],
            in("rdx") a[2],
            in("r10") a[3],
            in("r8") a[4],
            in("r9") a[5],
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack)
        );
    }
    ret
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
unsafe fn syscall(nr: usize, a: [usize; 6]) -> isize {
    let ret: isize;
    unsafe {
        core::arch::asm!(
            "svc 0",
            in("x8") nr,
            inlateout("x0") a[0] => ret,
            in("x1") a[1],
            in("x2") a[2],
            in("x3") a[3],
            in("x4") a[4],
            in("x5") a[5],
            options(nostack)
        );
    }
    ret
}

#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
unsafe fn syscall(_nr: usize, _a: [usize; 6]) -> isize {
    ENOSYS
}

/// `true` iff the raw-syscall return value is an error (`-errno`).
fn is_sys_err(r: isize) -> bool {
    (-4095..0).contains(&r)
}

fn sys_to_err(r: isize) -> MapError {
    if r == ENOSYS {
        MapError::Unsupported
    } else {
        MapError::MapFailed(-r as i32)
    }
}

/// Maps `len` bytes of `file` from offset 0, read-write and `MAP_SHARED`,
/// wherever the kernel puts them — the heap's one mapping (see the module
/// docs).
pub(super) fn map_file(file: &File, len: usize) -> Result<*mut u8, MapError> {
    let args = [0, len, PROT_READ | PROT_WRITE, MAP_SHARED, file.as_raw_fd() as usize, 0];
    // SAFETY: a new mapping at an address of the kernel's choosing.
    let r = unsafe { syscall(nr::MMAP, args) };
    if is_sys_err(r) {
        return Err(sys_to_err(r));
    }
    Ok(r as *mut u8)
}

/// Unmaps `[base, base + len)`. All completed stores of a `MAP_SHARED`
/// mapping are already in the page cache and reach the file regardless.
pub(super) fn munmap(base: *mut u8, len: usize) {
    // SAFETY: callers pass a mapping they created and no longer use.
    unsafe { syscall(nr::MUNMAP, [base as usize, len, 0, 0, 0, 0]) };
}

/// Takes the advisory exclusive lock on `file` (blocking; retried on EINTR).
pub(super) fn flock_ex(file: &File) -> Result<(), MapError> {
    loop {
        // SAFETY: `flock` on an open descriptor touches no memory.
        let r = unsafe { syscall(nr::FLOCK, [file.as_raw_fd() as usize, LOCK_EX, 0, 0, 0, 0]) };
        if !is_sys_err(r) {
            return Ok(());
        }
        if r != EINTR {
            return Err(sys_to_err(r));
        }
    }
}

pub(super) fn flock_un(file: &File) {
    // SAFETY: as `flock_ex`.
    unsafe { syscall(nr::FLOCK, [file.as_raw_fd() as usize, LOCK_UN, 0, 0, 0, 0]) };
}

/// Test hook: one anonymous `PROT_NONE` page squatting exactly at an address
/// (where a heap was mapped before), so the next attach lands elsewhere.
#[cfg(test)]
pub(super) struct Squat(usize);

#[cfg(test)]
impl Squat {
    /// `None` when the page could not be placed there — something else
    /// already occupies the address, which serves the same purpose.
    pub(super) fn at(addr: usize) -> Option<Squat> {
        const MAP_PRIVATE_ANON: usize = 0x02 | 0x20;
        const MAP_FIXED_NOREPLACE: usize = 0x10_0000;
        let flags = MAP_PRIVATE_ANON | MAP_FIXED_NOREPLACE;
        // SAFETY: a new anonymous page; NOREPLACE never clobbers a mapping.
        let r = unsafe { syscall(nr::MMAP, [addr, super::PAGE, 0, flags, usize::MAX, 0]) };
        if is_sys_err(r) {
            return None;
        }
        if r as usize != addr {
            munmap(r as *mut u8, super::PAGE);
            return None;
        }
        Some(Squat(addr))
    }
}

#[cfg(test)]
impl Drop for Squat {
    fn drop(&mut self) {
        munmap(self.0 as *mut u8, super::PAGE);
    }
}
