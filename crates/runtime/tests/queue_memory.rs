//! What a host's queues cost before anything is queued: a commit
//! subscription and a transport's per-peer outboxes allocate per queued
//! item, so their bounds (65 536 events, 4 096 frames per peer) reserve
//! nothing. A ring sized by the bound would allocate ~13 MB for the
//! subscription and ~0.9 MB for seven outboxes.
//!
//! The binary counts every byte the process allocates through a
//! `#[global_allocator]` over [`System`]; its tests hold one lock so they
//! never measure each other.

use narwhal::{NoExt, NodeBuilder};
use nt_crypto::Scheme;
use nt_runtime::Transport;
use nt_types::{Committee, WorkerId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Bytes allocated so far (never decremented: frees are not subtracted).
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);
static SERIAL: Mutex<()> = Mutex::new(());

struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counter is a side effect that allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size.saturating_sub(layout.size()), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What may be allocated before the first item is queued.
const BUDGET: usize = 64 * 1024;

/// Runs `f` and reports the bytes allocated meanwhile.
fn allocated_by<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCATED.load(Ordering::SeqCst);
    let out = f();
    (out, ALLOCATED.load(Ordering::SeqCst) - before)
}

fn loopback() -> SocketAddr {
    "127.0.0.1:0".parse().expect("loopback address")
}

#[test]
fn a_deep_commit_subscription_reserves_nothing() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (committee, _) = Committee::deterministic(4, 1, Scheme::Insecure);
    let mut node = NodeBuilder::new(committee, 0).worker_node::<NoExt>(WorkerId(0));
    let (stream, bytes) = allocated_by(|| node.subscribe_commits(1 << 16));
    assert!(
        bytes < BUDGET,
        "subscribe_commits(1 << 16) allocated {bytes} B before its first event"
    );
    drop(stream);
}

#[test]
fn outboxes_reserve_nothing() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Writers connect lazily, so these addresses are never dialled.
    let peers: Vec<(usize, SocketAddr)> = (1..=7)
        .map(|peer| (peer, format!("127.0.0.1:{}", 9 + peer).parse().unwrap()))
        .collect();
    let (alone, alone_bytes) = allocated_by(|| Transport::start(0, loopback(), &[]));
    let (full, full_bytes) = allocated_by(|| Transport::start(0, loopback(), &peers));
    alone.expect("bind").shutdown();
    full.expect("bind").shutdown();
    let extra = full_bytes.saturating_sub(alone_bytes);
    assert!(
        extra < BUDGET,
        "7 peers allocated {extra} B more than none ({full_bytes} B against {alone_bytes} B)"
    );
}
