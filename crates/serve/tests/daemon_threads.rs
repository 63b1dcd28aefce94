//! The daemon joins the handler thread of every closed connection, so a
//! long-lived daemon does not keep one thread stack mapped per connection
//! it ever served. Alone in its test binary on purpose: `/proc/self/status`
//! describes the whole process, and no other test may map thread stacks
//! while this one measures.

use chaser_serve::{drain, status, Daemon, ServeConfig};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;

/// The `VmSize:` line of `/proc/self/status`, in KiB.
fn vm_size_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmSize:"))?;
    line["VmSize:".len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

#[test]
fn closed_connections_do_not_keep_their_thread_stacks() {
    if vm_size_kib().is_none() {
        eprintln!("no /proc/self/status on this platform; skipped");
        return;
    }
    let dir = std::env::temp_dir().join(format!("chaser-daemon-threads-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let endpoint = dir.join("sock").display().to_string();
    let daemon =
        Daemon::start(&endpoint, &dir.join("state"), ServeConfig::default()).expect("starts");

    // Warm up with 32 connections open at once. A thread's first
    // allocation maps a fresh 64 MiB malloc arena unless an exited
    // thread's arena is free to reuse; a handler that starts before the
    // previous one has exited would map one mid-measurement. The warm-up
    // leaves 32 arenas to reuse.
    let open: Vec<UnixStream> = (0..32)
        .map(|_| {
            let mut conn = UnixStream::connect(&endpoint).expect("connect");
            conn.write_all(b"{\"frame\":\"status\"}\n").expect("send");
            let mut reply = String::new();
            BufReader::new(&conn).read_line(&mut reply).expect("reply");
            conn
        })
        .collect();
    drop(open);
    for _ in 0..50 {
        status(&endpoint).expect("status");
    }
    let before = vm_size_kib().expect("read before");
    for _ in 0..500 {
        status(&endpoint).expect("status");
    }
    let grown_kib = vm_size_kib().expect("read after").saturating_sub(before);

    drain(&endpoint).expect("drain");
    daemon.wait();
    let _ = std::fs::remove_dir_all(&dir);
    // An unjoined handler keeps its whole stack (2 MiB by default) mapped.
    assert!(
        grown_kib < 64 << 10,
        "500 status connections grew VmSize by {grown_kib} KiB"
    );
}
