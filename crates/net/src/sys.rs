//! The handful of socket calls `std::net` does not expose, declared by
//! hand against the system libc so `janus-net` stays off the `libc`
//! crate, in the same spirit as the repo's hand-rolled DNS/HTTP/SQL
//! substrates:
//!
//! * [`reuseport_socket`] — bind N sockets to one UDP address with
//!   `SO_REUSEPORT`, letting the kernel steer flows to per-core sockets
//!   (the `SocketMode::PerCore` data plane in `janus-server`),
//! * [`wait_readable`] — a `ppoll(2)` wait with a nanosecond timeout,
//!   because the attempt timeout is 100 µs and `SO_RCVTIMEO` rounds to
//!   a scheduler tick.
//!
//! Both compile on every platform: off Linux, `reuseport_socket` fails
//! with `Unsupported` and `wait_readable` falls back to a read timeout
//! plus a peek. Moving datagrams is plain `std` (`recv_from`/`send_to`,
//! one frame per datagram, one datagram per syscall).
//!
//! Every `unsafe` block carries a `// SAFETY:` comment; DESIGN.md §7
//! lists all of them.

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

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
    pub const POLLIN: i16 = 0x001;

    /// `struct sockaddr_in`. Port and address are big-endian.
    #[repr(C)]
    pub struct sockaddr_in {
        pub sin_family: u16,
        pub sin_port: u16,
        pub sin_addr: u32,
        pub sin_zero: [u8; 8],
    }

    /// `struct sockaddr_in6`. Port is big-endian, the address is a
    /// 16-byte big-endian blob.
    #[repr(C)]
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
    pub struct sockaddr_storage {
        pub data: [u8; 128],
    }

    impl sockaddr_storage {
        pub fn zeroed() -> Self {
            sockaddr_storage { data: [0u8; 128] }
        }
    }

    extern "C" {
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
                    let mut buf = [0u8; 64];
                    // A timeout means the senders are done.
                    while socket.recv_from(&mut buf).is_ok() {
                        total.fetch_add(1, Ordering::Relaxed);
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
        let a = UdpSocket::bind("127.0.0.1:0").unwrap();
        let b = UdpSocket::bind("127.0.0.1:0").unwrap();
        a.send_to(b"x", b.local_addr().unwrap()).unwrap();
        let started = Instant::now();
        assert!(wait_readable(&b, Duration::from_secs(5)).unwrap());
        assert!(started.elapsed() < Duration::from_secs(4));
        let mut buf = [0u8; 8];
        assert_eq!(b.recv_from(&mut buf).unwrap().0, 1);
    }
}
