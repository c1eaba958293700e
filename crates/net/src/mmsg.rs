//! Batched UDP syscalls: `recvmmsg`/`sendmmsg` plus `SO_REUSEPORT` helpers.
//!
//! PR 1 coalesced *frames* into datagrams and PR 3 made the *decision*
//! lock-free, which leaves one `recvfrom`/`sendto` syscall pair per
//! datagram as the dominant remaining hot-path cost. Linux has had the
//! fix since 2.6.33/3.0: `recvmmsg(2)` and `sendmmsg(2)` move up to a
//! whole batch of datagrams per kernel crossing. This module exposes
//! them as [`recv_batch`]/[`send_batch`] without adding a crate
//! dependency — the handful of syscalls and sockaddr structs
//! are declared by hand against the system libc, in the same spirit as
//! the repo's hand-rolled DNS/HTTP/SQL substrates.
//!
//! Portability: every public entry point compiles on every platform. On
//! non-Linux targets the batched calls degrade to a loop of plain
//! `recv_from`/`send_to` over the std socket — byte-identical traffic,
//! one syscall per datagram. The fallback also compiles *on* Linux (see
//! [`Backend`]) so the parity suite can pin "batched syscalls produce
//! exactly the frames the portable loop produces" on one box.
//!
//! Also here, because they share the FFI plumbing:
//!
//! * [`reuseport_socket`] — bind N sockets to one UDP address with
//!   `SO_REUSEPORT`, letting the kernel steer flows to per-core sockets
//!   (the `SocketMode::PerCore` data plane in `janus-server`),
//! * [`wait_readable`] — a `ppoll(2)` wait with a nanosecond timeout,
//!   because the attempt timeout is 100 µs and `SO_RCVTIMEO` rounds to
//!   a scheduler tick.
//!
//! Every `unsafe` block carries a `// SAFETY:` comment; DESIGN.md's
//! safety appendix walks through all of them.

use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Most datagrams moved per `recvmmsg`/`sendmmsg` call. 16 matches the
/// listener's observed burst sizes under the bench harness and stays
/// comfortably under the buffer pool's per-thread freelist cap (32), so
/// a full batch of scratch buffers still recycles without allocating.
pub const MAX_BATCH: usize = 16;

/// One received datagram: how many bytes landed in the caller's buffer
/// at the same index, and who sent them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvSlot {
    /// Valid prefix length of the corresponding scratch buffer.
    pub len: usize,
    /// Sender address.
    pub peer: SocketAddr,
}

/// Which syscall strategy a batched call uses.
///
/// [`Backend::native`] picks the best available at compile time; the
/// parity tests exercise both explicitly on Linux.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Linux `recvmmsg`/`sendmmsg`: one kernel crossing per batch.
    /// Returns `Unsupported` at runtime on other platforms.
    Mmsg,
    /// Loop of plain `recv_from`/`send_to`: one crossing per datagram,
    /// available everywhere, byte-identical traffic.
    Portable,
}

impl Backend {
    /// The best backend this build supports.
    pub fn native() -> Backend {
        if cfg!(target_os = "linux") {
            Backend::Mmsg
        } else {
            Backend::Portable
        }
    }
}

/// Counters for the batched data plane, shared via `Arc` with
/// `ServerStats` so syscall amortization shows up in snapshots next to
/// the shed/dedup counters.
///
/// `recv_lens` is an exact histogram of receive batch lengths (index
/// `n-1` counts batches of exactly `n` datagrams, `1 ≤ n ≤ MAX_BATCH`),
/// which is cheap because the support is tiny and fixed.
#[derive(Debug, Default)]
pub struct BatchStats {
    recv_syscalls: AtomicU64,
    recv_datagrams: AtomicU64,
    send_syscalls: AtomicU64,
    send_datagrams: AtomicU64,
    recv_lens: [AtomicU64; MAX_BATCH],
}

impl BatchStats {
    /// A fresh counter set, all zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one receive call that returned `n` datagrams (`n ≥ 1`).
    pub fn record_recv(&self, n: usize) {
        if n == 0 {
            return;
        }
        self.recv_syscalls.fetch_add(1, Ordering::Relaxed);
        self.recv_datagrams.fetch_add(n as u64, Ordering::Relaxed);
        let bucket = n.min(MAX_BATCH) - 1;
        self.recv_lens[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Record a send of `datagrams` datagrams that took `syscalls`
    /// kernel crossings.
    pub fn record_send(&self, datagrams: usize, syscalls: usize) {
        if datagrams == 0 {
            return;
        }
        self.send_syscalls
            .fetch_add(syscalls as u64, Ordering::Relaxed);
        self.send_datagrams
            .fetch_add(datagrams as u64, Ordering::Relaxed);
    }

    /// Datagrams moved minus kernel crossings spent — how many
    /// per-datagram syscalls batching amortized away, on both
    /// directions combined.
    pub fn syscalls_saved(&self) -> u64 {
        let rd = self.recv_datagrams.load(Ordering::Relaxed);
        let rs = self.recv_syscalls.load(Ordering::Relaxed);
        let sd = self.send_datagrams.load(Ordering::Relaxed);
        let ss = self.send_syscalls.load(Ordering::Relaxed);
        rd.saturating_sub(rs) + sd.saturating_sub(ss)
    }

    /// Receive batch-length quantile (`q` in `[0, 1]`), from the exact
    /// histogram. 0 when nothing has been received.
    pub fn recv_len_quantile(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .recv_lens
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, count) in counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return (i + 1) as u64;
            }
        }
        MAX_BATCH as u64
    }

    /// Total datagrams received through batched calls.
    pub fn recv_datagrams(&self) -> u64 {
        self.recv_datagrams.load(Ordering::Relaxed)
    }

    /// Total receive syscalls spent.
    pub fn recv_syscalls(&self) -> u64 {
        self.recv_syscalls.load(Ordering::Relaxed)
    }
}

/// Receive up to `bufs.len()` datagrams (capped at [`MAX_BATCH`]),
/// blocking until at least one arrives (honouring the socket's read
/// timeout), using the best backend this build supports.
///
/// Fills `out` with one [`RecvSlot`] per datagram; `bufs[i]`'s first
/// `out[i].len` bytes are the payload. Returns the datagram count.
pub fn recv_batch<B: AsMut<[u8]>>(
    socket: &UdpSocket,
    bufs: &mut [B],
    out: &mut Vec<RecvSlot>,
    stats: Option<&BatchStats>,
) -> io::Result<usize> {
    recv_batch_with(Backend::native(), socket, bufs, out, stats)
}

/// [`recv_batch`] with an explicit backend — the parity tests' entry
/// point. `Backend::Mmsg` fails with `Unsupported` off Linux.
pub fn recv_batch_with<B: AsMut<[u8]>>(
    backend: Backend,
    socket: &UdpSocket,
    bufs: &mut [B],
    out: &mut Vec<RecvSlot>,
    stats: Option<&BatchStats>,
) -> io::Result<usize> {
    out.clear();
    if bufs.is_empty() {
        return Ok(0);
    }
    let n = match backend {
        Backend::Mmsg => recv_batch_mmsg(socket, bufs, out)?,
        Backend::Portable => recv_batch_portable(socket, bufs, out)?,
    };
    if let Some(stats) = stats {
        stats.record_recv(n);
    }
    Ok(n)
}

/// Send every `(payload, destination)` pair, using the best backend
/// this build supports. Returns the number of kernel crossings spent.
pub fn send_batch(
    socket: &UdpSocket,
    msgs: &[(&[u8], SocketAddr)],
    stats: Option<&BatchStats>,
) -> io::Result<usize> {
    send_batch_with(Backend::native(), socket, msgs, stats)
}

/// [`send_batch`] with an explicit backend — the parity tests' entry
/// point. `Backend::Mmsg` fails with `Unsupported` off Linux.
pub fn send_batch_with(
    backend: Backend,
    socket: &UdpSocket,
    msgs: &[(&[u8], SocketAddr)],
    stats: Option<&BatchStats>,
) -> io::Result<usize> {
    if msgs.is_empty() {
        return Ok(0);
    }
    let syscalls = match backend {
        Backend::Mmsg => send_batch_mmsg(socket, msgs)?,
        Backend::Portable => {
            for (payload, peer) in msgs {
                socket.send_to(payload, peer)?;
            }
            msgs.len()
        }
    };
    if let Some(stats) = stats {
        stats.record_send(msgs.len(), syscalls);
    }
    Ok(syscalls)
}

/// Portable receive: one *blocking* `recv_from` for the first datagram
/// (so the call honours the socket's read timeout exactly like the mmsg
/// path honours it on its first datagram), then a non-blocking drain of
/// whatever else is already queued, up to the buffer count. The socket's
/// blocking mode is restored before returning.
fn recv_batch_portable<B: AsMut<[u8]>>(
    socket: &UdpSocket,
    bufs: &mut [B],
    out: &mut Vec<RecvSlot>,
) -> io::Result<usize> {
    let limit = bufs.len().min(MAX_BATCH);
    let (len, peer) = socket.recv_from(bufs[0].as_mut())?;
    out.push(RecvSlot { len, peer });
    if limit == 1 {
        return Ok(1);
    }
    socket.set_nonblocking(true)?;
    let mut n = 1;
    while n < limit {
        match socket.recv_from(bufs[n].as_mut()) {
            Ok((len, peer)) => {
                out.push(RecvSlot { len, peer });
                n += 1;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) => {
                socket.set_nonblocking(false)?;
                return Err(e);
            }
        }
    }
    socket.set_nonblocking(false)?;
    Ok(n)
}

// ---------------------------------------------------------------------------
// Linux FFI surface
// ---------------------------------------------------------------------------
//
// Declared by hand so `janus-net` stays off the `libc` crate. Constants
// are the x86-64/aarch64 Linux values (both architectures agree on every
// one used here); struct layouts match `bits/socket.h`.

#[cfg(target_os = "linux")]
mod ffi {
    #![allow(non_camel_case_types)]

    pub const AF_INET: u16 = 2;
    pub const AF_INET6: u16 = 10;
    pub const SOCK_DGRAM: i32 = 2;
    pub const SOCK_CLOEXEC: i32 = 0x80000;
    pub const SOL_SOCKET: i32 = 1;
    pub const SO_REUSEPORT: i32 = 15;
    /// recvmmsg: return once at least one datagram has arrived instead
    /// of blocking for the full batch.
    pub const MSG_WAITFORONE: i32 = 0x10000;
    pub const POLLIN: i16 = 0x001;

    /// `struct iovec`.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct iovec {
        pub iov_base: *mut u8,
        pub iov_len: usize,
    }

    /// `struct msghdr` (Linux layout: size_t iovlen/controllen).
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct msghdr {
        pub msg_name: *mut u8,
        pub msg_namelen: u32,
        pub msg_iov: *mut iovec,
        pub msg_iovlen: usize,
        pub msg_control: *mut u8,
        pub msg_controllen: usize,
        pub msg_flags: i32,
    }

    /// `struct mmsghdr`.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct mmsghdr {
        pub msg_hdr: msghdr,
        pub msg_len: u32,
    }

    /// `struct sockaddr_in`. Port and address are big-endian.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct sockaddr_in {
        pub sin_family: u16,
        pub sin_port: u16,
        pub sin_addr: u32,
        pub sin_zero: [u8; 8],
    }

    /// `struct sockaddr_in6`. Port is big-endian, the address is a
    /// 16-byte big-endian blob.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct sockaddr_in6 {
        pub sin6_family: u16,
        pub sin6_port: u16,
        pub sin6_flowinfo: u32,
        pub sin6_addr: [u8; 16],
        pub sin6_scope_id: u32,
    }

    /// `struct pollfd`.
    #[repr(C)]
    pub struct pollfd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    /// `struct timespec` as `ppoll` takes it: `time_t` and `long` are
    /// both `long` on every Linux ABI this crate builds for.
    #[repr(C)]
    pub struct timespec {
        pub tv_sec: std::ffi::c_long,
        pub tv_nsec: std::ffi::c_long,
    }

    /// `struct sockaddr_storage`: opaque 128-byte blob, 8-aligned,
    /// large enough for any address family.
    #[repr(C)]
    #[repr(align(8))]
    #[derive(Clone, Copy)]
    pub struct sockaddr_storage {
        pub data: [u8; 128],
    }

    impl sockaddr_storage {
        pub fn zeroed() -> Self {
            sockaddr_storage { data: [0u8; 128] }
        }
    }

    // `timespec*` in recvmmsg is passed as a const pointer we always
    // leave null (the socket's SO_RCVTIMEO governs blocking instead),
    // so its exact layout never matters here.
    extern "C" {
        pub fn recvmmsg(
            sockfd: i32,
            msgvec: *mut mmsghdr,
            vlen: u32,
            flags: i32,
            timeout: *mut u8,
        ) -> i32;
        pub fn sendmmsg(sockfd: i32, msgvec: *mut mmsghdr, vlen: u32, flags: i32) -> i32;
        pub fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        pub fn bind(sockfd: i32, addr: *const u8, addrlen: u32) -> i32;
        pub fn setsockopt(
            sockfd: i32,
            level: i32,
            optname: i32,
            optval: *const u8,
            optlen: u32,
        ) -> i32;
        // The signal mask is always null (no mask change), so its type
        // never matters here.
        pub fn ppoll(
            fds: *mut pollfd,
            nfds: std::ffi::c_ulong,
            timeout: *const timespec,
            sigmask: *const u8,
        ) -> i32;
    }
}

/// Serialize a `SocketAddr` into a `sockaddr_storage`, returning the
/// valid length for the kernel's `addrlen` argument.
#[cfg(target_os = "linux")]
fn addr_to_storage(addr: &SocketAddr, storage: &mut ffi::sockaddr_storage) -> u32 {
    match addr {
        SocketAddr::V4(v4) => {
            let sin = ffi::sockaddr_in {
                sin_family: ffi::AF_INET,
                sin_port: v4.port().to_be(),
                sin_addr: u32::from(*v4.ip()).to_be(),
                sin_zero: [0u8; 8],
            };
            let bytes = std::mem::size_of::<ffi::sockaddr_in>();
            // SAFETY: sockaddr_in is plain-old-data of `bytes` bytes and
            // sockaddr_storage is a 128-byte buffer (bytes = 16 ≤ 128);
            // both are valid for the copy and do not overlap.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    (&sin as *const ffi::sockaddr_in).cast::<u8>(),
                    storage.data.as_mut_ptr(),
                    bytes,
                );
            }
            bytes as u32
        }
        SocketAddr::V6(v6) => {
            let sin6 = ffi::sockaddr_in6 {
                sin6_family: ffi::AF_INET6,
                sin6_port: v6.port().to_be(),
                sin6_flowinfo: v6.flowinfo().to_be(),
                sin6_addr: v6.ip().octets(),
                sin6_scope_id: v6.scope_id(),
            };
            let bytes = std::mem::size_of::<ffi::sockaddr_in6>();
            // SAFETY: sockaddr_in6 is plain-old-data of `bytes` bytes
            // (28 ≤ 128); source and destination are valid and disjoint.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    (&sin6 as *const ffi::sockaddr_in6).cast::<u8>(),
                    storage.data.as_mut_ptr(),
                    bytes,
                );
            }
            bytes as u32
        }
    }
}

/// Parse the peer address the kernel wrote into a `sockaddr_storage`.
#[cfg(target_os = "linux")]
fn storage_to_addr(storage: &ffi::sockaddr_storage) -> io::Result<SocketAddr> {
    let family = u16::from_ne_bytes([storage.data[0], storage.data[1]]);
    match family {
        ffi::AF_INET => {
            // SAFETY: the kernel wrote a complete sockaddr_in (family
            // checked above) into this 128-byte buffer, which is large
            // and aligned enough to read the 16-byte POD back out.
            let sin: ffi::sockaddr_in =
                unsafe { std::ptr::read_unaligned(storage.data.as_ptr().cast()) };
            Ok(SocketAddr::new(
                IpAddr::V4(Ipv4Addr::from(u32::from_be(sin.sin_addr))),
                u16::from_be(sin.sin_port),
            ))
        }
        ffi::AF_INET6 => {
            // SAFETY: as above, for the 28-byte sockaddr_in6 POD.
            let sin6: ffi::sockaddr_in6 =
                unsafe { std::ptr::read_unaligned(storage.data.as_ptr().cast()) };
            Ok(SocketAddr::new(
                IpAddr::V6(Ipv6Addr::from(sin6.sin6_addr)),
                u16::from_be(sin6.sin6_port),
            ))
        }
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("recvmmsg returned unknown address family {other}"),
        )),
    }
}

/// Blocking `recvmmsg`: waits for the first datagram (honouring the
/// socket's read timeout via `SO_RCVTIMEO`), returns with however many
/// arrived together (`MSG_WAITFORONE`), appending a [`RecvSlot`] per
/// datagram.
#[cfg(target_os = "linux")]
fn recv_batch_mmsg<B: AsMut<[u8]>>(
    socket: &UdpSocket,
    bufs: &mut [B],
    out: &mut Vec<RecvSlot>,
) -> io::Result<usize> {
    use std::os::fd::AsRawFd;
    let fd = socket.as_raw_fd();
    let vlen = bufs.len().min(MAX_BATCH);
    // SAFETY: mmsghdr/iovec/sockaddr_storage are plain-old-data for
    // which an all-zero bit pattern is a valid (if useless) value;
    // every field the kernel reads is overwritten below before the
    // syscall.
    let mut hdrs: [ffi::mmsghdr; MAX_BATCH] = unsafe { std::mem::zeroed() };
    // SAFETY: iovec is POD; base/len are set for every used slot below.
    let mut iovecs: [ffi::iovec; MAX_BATCH] = unsafe { std::mem::zeroed() };
    let mut addrs = [ffi::sockaddr_storage::zeroed(); MAX_BATCH];

    for i in 0..vlen {
        let buf = bufs[i].as_mut();
        iovecs[i] = ffi::iovec {
            iov_base: buf.as_mut_ptr(),
            iov_len: buf.len(),
        };
        hdrs[i].msg_hdr = ffi::msghdr {
            msg_name: addrs[i].data.as_mut_ptr(),
            msg_namelen: std::mem::size_of::<ffi::sockaddr_storage>() as u32,
            msg_iov: &mut iovecs[i],
            msg_iovlen: 1,
            msg_control: std::ptr::null_mut(),
            msg_controllen: 0,
            msg_flags: 0,
        };
    }

    // SAFETY: `fd` is a live UDP socket owned by the caller; `hdrs` holds
    // `vlen` fully-initialized mmsghdrs whose iovecs point into `bufs`
    // (alive across the call, one exclusive buffer per slot) and whose
    // msg_names point into `addrs` (alive across the call); the null
    // timeout selects the socket's own blocking discipline. The kernel
    // writes only within the lengths we declared.
    let rc = unsafe {
        ffi::recvmmsg(
            fd,
            hdrs.as_mut_ptr(),
            vlen as u32,
            ffi::MSG_WAITFORONE,
            std::ptr::null_mut(),
        )
    };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    let n = rc as usize;
    for (hdr, addr) in hdrs.iter().zip(addrs.iter()).take(n) {
        out.push(RecvSlot {
            len: hdr.msg_len as usize,
            peer: storage_to_addr(addr)?,
        });
    }
    Ok(n)
}

#[cfg(not(target_os = "linux"))]
fn recv_batch_mmsg<B: AsMut<[u8]>>(
    _socket: &UdpSocket,
    _bufs: &mut [B],
    _out: &mut Vec<RecvSlot>,
) -> io::Result<usize> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "Backend::Mmsg requires Linux",
    ))
}

/// The core of the Linux send path: `sendmmsg` in chunks of
/// [`MAX_BATCH`], tolerating partial progress (the kernel may accept
/// fewer than `vlen`; the remainder is retried in the next chunk).
/// Returns the number of kernel crossings spent.
#[cfg(target_os = "linux")]
fn sendmmsg_all(fd: i32, msgs: &[(&[u8], SocketAddr)]) -> io::Result<usize> {
    let mut sent = 0usize;
    let mut syscalls = 0usize;
    while sent < msgs.len() {
        let chunk = &msgs[sent..(sent + MAX_BATCH).min(msgs.len())];
        // SAFETY: POD arrays; every field the kernel reads is set below.
        let mut hdrs: [ffi::mmsghdr; MAX_BATCH] = unsafe { std::mem::zeroed() };
        // SAFETY: iovec is POD; base/len are set for every used slot.
        let mut iovecs: [ffi::iovec; MAX_BATCH] = unsafe { std::mem::zeroed() };
        let mut addrs = [ffi::sockaddr_storage::zeroed(); MAX_BATCH];
        for (i, (payload, peer)) in chunk.iter().enumerate() {
            let addrlen = addr_to_storage(peer, &mut addrs[i]);
            iovecs[i] = ffi::iovec {
                // sendmmsg never writes through iov_base; the mut cast
                // only satisfies the shared iovec declaration.
                iov_base: payload.as_ptr() as *mut u8,
                iov_len: payload.len(),
            };
            hdrs[i].msg_hdr = ffi::msghdr {
                msg_name: addrs[i].data.as_mut_ptr(),
                msg_namelen: addrlen,
                msg_iov: &mut iovecs[i],
                msg_iovlen: 1,
                msg_control: std::ptr::null_mut(),
                msg_controllen: 0,
                msg_flags: 0,
            };
        }
        // SAFETY: `fd` is a live UDP socket; `hdrs` holds `chunk.len()`
        // fully-initialized mmsghdrs whose iovecs and msg_names point
        // into `chunk`'s payloads and the local `addrs`, all alive
        // across the call. sendmmsg only reads through these pointers.
        let rc = unsafe { ffi::sendmmsg(fd, hdrs.as_mut_ptr(), chunk.len() as u32, 0) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            // Partial progress before EAGAIN still counts; the caller
            // sees the error and knows `sent` datagrams already left.
            if sent > 0 && err.kind() == io::ErrorKind::WouldBlock {
                return Ok(syscalls);
            }
            return Err(err);
        }
        syscalls += 1;
        sent += rc as usize;
        if rc == 0 {
            // Defensive: the kernel should never accept zero without
            // erroring, but an infinite loop would be worse than a lie.
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "sendmmsg accepted zero datagrams",
            ));
        }
    }
    Ok(syscalls)
}

/// Blocking batched send over a std socket.
#[cfg(target_os = "linux")]
fn send_batch_mmsg(socket: &UdpSocket, msgs: &[(&[u8], SocketAddr)]) -> io::Result<usize> {
    use std::os::fd::AsRawFd;
    sendmmsg_all(socket.as_raw_fd(), msgs)
}

#[cfg(not(target_os = "linux"))]
fn send_batch_mmsg(_socket: &UdpSocket, _msgs: &[(&[u8], SocketAddr)]) -> io::Result<usize> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "Backend::Mmsg requires Linux",
    ))
}

/// Block until `socket` has a datagram (or a pending error) to read, or
/// `timeout` elapses. `Ok(true)` means a receive will not block.
///
/// This is how the RPC client waits out the paper's 100 µs attempt
/// timeout. `SO_RCVTIMEO` cannot: the kernel rounds it up to a scheduler
/// tick (1–4 ms), which would silently turn 100 µs × 5 into 5–20 ms.
/// `ppoll(2)` takes a nanosecond `timespec` and sleeps on a
/// high-resolution timer.
#[cfg(target_os = "linux")]
pub fn wait_readable(socket: &UdpSocket, timeout: Duration) -> io::Result<bool> {
    use std::os::fd::AsRawFd;
    let deadline = Instant::now() + timeout;
    let mut left = timeout;
    loop {
        let mut fd = ffi::pollfd {
            fd: socket.as_raw_fd(),
            events: ffi::POLLIN,
            revents: 0,
        };
        let ts = ffi::timespec {
            tv_sec: left.as_secs().min(i32::MAX as u64) as std::ffi::c_long,
            tv_nsec: left.subsec_nanos() as std::ffi::c_long,
        };
        // SAFETY: `fd` is one fully-initialized pollfd for a socket that
        // outlives the call, and nfds = 1 matches it; `ts` is a valid
        // timespec alive across the call, which the kernel only reads;
        // the null sigmask leaves the signal mask untouched. The kernel
        // writes only `fd.revents`.
        let rc = unsafe { ffi::ppoll(&mut fd, 1, &ts, std::ptr::null()) };
        if rc >= 0 {
            // Any revents (POLLIN, or POLLERR for a queued ICMP error)
            // means the next receive returns at once.
            return Ok(rc > 0);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
        left = deadline.saturating_duration_since(Instant::now());
    }
}

/// Portable fallback: a read timeout plus a peek. Coarser (the kernel
/// rounds `SO_RCVTIMEO` to its tick) but semantically identical.
#[cfg(not(target_os = "linux"))]
pub fn wait_readable(socket: &UdpSocket, timeout: Duration) -> io::Result<bool> {
    socket.set_read_timeout(Some(timeout.max(Duration::from_micros(1))))?;
    match socket.peek_from(&mut [0u8; 1]) {
        Ok(_) => Ok(true),
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) =>
        {
            Ok(false)
        }
        Err(e) => Err(e),
    }
}

/// Create a UDP socket with `SO_REUSEPORT` set *before* bind, bound to
/// `addr` — the building block of the per-core socket group. Linux
/// steers each flow (by 4-tuple hash) to exactly one member socket, so
/// N of these on one address shard the ingress across N owning threads
/// with no user-space hand-off.
#[cfg(target_os = "linux")]
pub fn reuseport_socket(addr: SocketAddr) -> io::Result<UdpSocket> {
    use std::os::fd::FromRawFd;

    let family = match addr {
        SocketAddr::V4(_) => ffi::AF_INET as i32,
        SocketAddr::V6(_) => ffi::AF_INET6 as i32,
    };
    // SAFETY: socket(2) with valid constant arguments; the returned fd
    // (checked below) is owned by this function until from_raw_fd.
    let fd = unsafe { ffi::socket(family, ffi::SOCK_DGRAM | ffi::SOCK_CLOEXEC, 0) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // Everything below must close `fd` on failure — wrap early so Drop
    // handles it.
    // SAFETY: `fd` was just returned by socket(2) and nothing else owns
    // it; UdpSocket takes ownership and closes it on drop.
    let socket = unsafe { UdpSocket::from_raw_fd(fd) };

    let one: i32 = 1;
    // SAFETY: setsockopt(2) on the live fd with a valid 4-byte optval
    // that outlives the call.
    let rc = unsafe {
        ffi::setsockopt(
            fd,
            ffi::SOL_SOCKET,
            ffi::SO_REUSEPORT,
            (&one as *const i32).cast(),
            std::mem::size_of::<i32>() as u32,
        )
    };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }

    let mut storage = ffi::sockaddr_storage::zeroed();
    let addrlen = addr_to_storage(&addr, &mut storage);
    // SAFETY: bind(2) on the live fd with a sockaddr serialized by
    // addr_to_storage, valid for `addrlen` bytes and alive across the
    // call.
    let rc = unsafe { ffi::bind(fd, storage.data.as_ptr(), addrlen) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(socket)
}

/// Non-Linux stub: `SO_REUSEPORT` flow steering is Linux-specific here.
#[cfg(not(target_os = "linux"))]
pub fn reuseport_socket(_addr: SocketAddr) -> io::Result<UdpSocket> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "reuseport_socket requires Linux",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (UdpSocket, UdpSocket, SocketAddr, SocketAddr) {
        let a = UdpSocket::bind("127.0.0.1:0").unwrap();
        let b = UdpSocket::bind("127.0.0.1:0").unwrap();
        let a_addr = a.local_addr().unwrap();
        let b_addr = b.local_addr().unwrap();
        (a, b, a_addr, b_addr)
    }

    fn recv_all(
        backend: Backend,
        socket: &UdpSocket,
        expected: usize,
    ) -> Vec<(Vec<u8>, SocketAddr)> {
        socket
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let mut bufs: Vec<Vec<u8>> = (0..MAX_BATCH).map(|_| vec![0u8; 2048]).collect();
        let mut slots = Vec::new();
        let mut got = Vec::new();
        while got.len() < expected {
            let n = recv_batch_with(backend, socket, &mut bufs, &mut slots, None).unwrap();
            assert!(n >= 1);
            for (i, slot) in slots.iter().enumerate().take(n) {
                got.push((bufs[i][..slot.len].to_vec(), slot.peer));
            }
        }
        got
    }

    #[test]
    fn portable_send_recv_round_trips() {
        let (a, b, _a_addr, b_addr) = pair();
        let payloads: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 10 + i as usize]).collect();
        let msgs: Vec<(&[u8], SocketAddr)> =
            payloads.iter().map(|p| (p.as_slice(), b_addr)).collect();
        send_batch_with(Backend::Portable, &a, &msgs, None).unwrap();
        let got = recv_all(Backend::Portable, &b, payloads.len());
        let bodies: Vec<Vec<u8>> = got.into_iter().map(|(body, _)| body).collect();
        assert_eq!(bodies, payloads);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn mmsg_and_portable_traffic_is_byte_identical() {
        // Same payload set through each backend pairing; the receiver
        // must observe identical bytes and peers regardless of which
        // side batched its syscalls.
        let payloads: Vec<Vec<u8>> = (0..7u8).map(|i| vec![0xA0 | i; 33 + i as usize]).collect();
        for (send_backend, recv_backend) in [
            (Backend::Mmsg, Backend::Portable),
            (Backend::Portable, Backend::Mmsg),
            (Backend::Mmsg, Backend::Mmsg),
        ] {
            let (a, b, a_addr, b_addr) = pair();
            let msgs: Vec<(&[u8], SocketAddr)> =
                payloads.iter().map(|p| (p.as_slice(), b_addr)).collect();
            send_batch_with(send_backend, &a, &msgs, None).unwrap();
            let got = recv_all(recv_backend, &b, payloads.len());
            for ((body, peer), expected) in got.iter().zip(payloads.iter()) {
                assert_eq!(body, expected, "{send_backend:?}->{recv_backend:?}");
                assert_eq!(*peer, a_addr);
            }
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn mmsg_recv_honours_read_timeout() {
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        socket
            .set_read_timeout(Some(Duration::from_millis(30)))
            .unwrap();
        let mut bufs = [[0u8; 64]; 2];
        let mut out = Vec::new();
        let err = recv_batch_with(Backend::Mmsg, &socket, &mut bufs, &mut out, None).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "unexpected kind {:?}",
            err.kind()
        );
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn reuseport_sockets_share_one_port() {
        let first = reuseport_socket("127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = first.local_addr().unwrap();
        let second = reuseport_socket(addr).unwrap();
        assert_eq!(second.local_addr().unwrap(), addr);
        // A plain bind to the same port (no SO_REUSEPORT) must fail.
        assert!(UdpSocket::bind(addr).is_err());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn reuseport_group_receives_every_datagram_exactly_once() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        let first = reuseport_socket("127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = first.local_addr().unwrap();
        let second = reuseport_socket(addr).unwrap();
        let total = Arc::new(AtomicU64::new(0));

        let readers: Vec<_> = [first, second]
            .into_iter()
            .map(|socket| {
                socket
                    .set_read_timeout(Some(Duration::from_millis(100)))
                    .unwrap();
                let total = Arc::clone(&total);
                std::thread::spawn(move || {
                    let mut bufs = [[0u8; 64]; MAX_BATCH];
                    let mut out = Vec::new();
                    loop {
                        match recv_batch(&socket, &mut bufs, &mut out, None) {
                            Ok(n) => {
                                total.fetch_add(n as u64, Ordering::Relaxed);
                            }
                            Err(_) => return, // timeout: sender is done
                        }
                    }
                })
            })
            .collect();

        // Many distinct source sockets, so the 4-tuple hash spreads.
        const SENDERS: u64 = 8;
        const PER_SENDER: u64 = 20;
        for _ in 0..SENDERS {
            let s = UdpSocket::bind("127.0.0.1:0").unwrap();
            for i in 0..PER_SENDER {
                s.send_to(&[i as u8; 4], addr).unwrap();
            }
        }
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), SENDERS * PER_SENDER);
    }

    #[test]
    fn sub_millisecond_wait_on_a_silent_socket_times_out_on_time() {
        // Why `wait_readable` is `ppoll` and not `set_read_timeout`: the
        // paper's 100 us attempt timeout must stay sub-millisecond.
        // `SO_RCVTIMEO` rounds up to a scheduler tick, which turns every
        // one of these waits into 1-4 ms.
        let silent = UdpSocket::bind("127.0.0.1:0").unwrap();
        let mut waits: Vec<Duration> = (0..100)
            .map(|_| {
                let started = Instant::now();
                let readable = wait_readable(&silent, Duration::from_micros(100)).unwrap();
                assert!(!readable, "nothing was sent");
                started.elapsed()
            })
            .collect();
        waits.sort();
        let median = waits[waits.len() / 2];
        assert!(
            median >= Duration::from_micros(100),
            "woke early: {median:?}"
        );
        if cfg!(target_os = "linux") {
            assert!(
                median < Duration::from_millis(1),
                "median 100 us wait took {median:?}"
            );
        }
    }

    #[test]
    fn wait_readable_sees_a_queued_datagram_at_once() {
        let (a, b, _a_addr, b_addr) = pair();
        a.send_to(b"x", b_addr).unwrap();
        let started = Instant::now();
        assert!(wait_readable(&b, Duration::from_secs(5)).unwrap());
        assert!(started.elapsed() < Duration::from_secs(4));
        let mut buf = [0u8; 8];
        assert_eq!(b.recv_from(&mut buf).unwrap().0, 1);
    }

    #[test]
    fn batch_stats_quantiles_and_savings() {
        let stats = BatchStats::new();
        // 3 receive calls moving 1, 4 and 16 datagrams.
        stats.record_recv(1);
        stats.record_recv(4);
        stats.record_recv(16);
        // One send call covering 10 datagrams in 1 syscall.
        stats.record_send(10, 1);
        assert_eq!(stats.recv_datagrams(), 21);
        assert_eq!(stats.recv_syscalls(), 3);
        // (21 - 3) recv + (10 - 1) send.
        assert_eq!(stats.syscalls_saved(), 27);
        assert_eq!(stats.recv_len_quantile(0.0), 1);
        assert_eq!(stats.recv_len_quantile(0.5), 4);
        assert_eq!(stats.recv_len_quantile(1.0), 16);
    }

    #[test]
    fn empty_batches_are_no_ops() {
        let (a, _b, _aa, ba) = pair();
        assert_eq!(send_batch(&a, &[], None).unwrap(), 0);
        let mut out = vec![RecvSlot { len: 1, peer: ba }];
        let mut bufs: [[u8; 8]; 0] = [];
        assert_eq!(recv_batch(&a, &mut bufs, &mut out, None).unwrap(), 0);
        assert!(out.is_empty(), "recv_batch must clear stale slots");
    }

    #[test]
    fn backend_native_matches_platform() {
        #[cfg(target_os = "linux")]
        assert_eq!(Backend::native(), Backend::Mmsg);
        #[cfg(not(target_os = "linux"))]
        assert_eq!(Backend::native(), Backend::Portable);
    }
}
