//! Hostile `.skw` and `.sksn` files: a header that claims more than the
//! file holds is its container's typed error, never a panic, and decoding
//! it allocates no more than the file's bytes can back.
//!
//! A counting global allocator records the largest single allocation this
//! test's own thread makes around each load. The file loaders read the
//! whole file first, so every count and length in it can be checked
//! against the bytes that remain before anything is sized by it; the bound
//! asserted here (64 KiB) is far above what a file of a few dozen bytes
//! needs and far below what the headers claim (up to 1 GiB).
//!
//! Run it in a release build too: a debug build panics on an overflowing
//! shape product, a release build wraps it silently, so the two take
//! different paths through the same header.

use skipper_core::{read_snapshot, SkipperError};
use skipper_snn::{custom_net, load_params, ModelConfig, SnnError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

struct Counting;

thread_local! {
    /// Largest single allocation on this thread while armed; `None` while
    /// not armed.
    static LARGEST: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note(size: usize) {
    // `try_with`: the slot is gone while this thread is being torn down.
    let _ = LARGEST.try_with(|l| {
        if let Some(max) = l.get() {
            l.set(Some(max.max(size)));
        }
    });
}

// SAFETY: every call forwards to `System` unchanged; `note` only reads and
// writes a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The bound on any single allocation made while decoding a hostile file.
const MAX_ALLOCATION: usize = 64 << 10;

/// Run `f` and return its result with the largest single allocation it
/// made on this thread.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|l| l.set(Some(0)));
    let out = f();
    (out, LARGEST.with(|l| l.replace(None)).unwrap_or(0))
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// A `.skw` v2 header and one record named `w` with `dims`, cut off
/// before any tensor data.
fn skw_record_header(dims: &[u32]) -> Vec<u8> {
    let mut buf = b"SKPRW\x02".to_vec();
    put_u32(&mut buf, 1); // record count
    put_u32(&mut buf, 1); // name length
    buf.push(b'w');
    put_u32(&mut buf, dims.len() as u32);
    for &d in dims {
        put_u32(&mut buf, d);
    }
    buf
}

/// Write `bytes` to a file of this test's own under the temp directory.
fn hostile_file(name: &str, bytes: &[u8]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("skipper_hostile_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, bytes).unwrap();
    path
}

/// Load `bytes` as a `.skw` into a small model: it must be a format error
/// and allocate at most [`MAX_ALLOCATION`] in one piece.
fn assert_skw_refused(name: &str, bytes: &[u8]) {
    let path = hostile_file(name, bytes);
    let mut net = custom_net(&ModelConfig {
        input_hw: 8,
        width_mult: 0.25,
        ..ModelConfig::default()
    });
    let (result, largest) = largest_allocation(|| load_params(net.params_mut(), &path));
    std::fs::remove_file(&path).unwrap();
    match result {
        Err(SnnError::Format(detail)) => eprintln!("{name}: {detail}"),
        other => panic!("{name}: expected a format error, got {other:?}"),
    }
    assert!(
        largest <= MAX_ALLOCATION,
        "{name}: decoding {} bytes allocated {largest} bytes at once",
        bytes.len()
    );
}

#[test]
fn a_skw_claiming_2_to_the_28_elements_is_a_format_error() {
    let bytes = skw_record_header(&[1 << 28]);
    assert_eq!(bytes.len(), 23);
    assert_skw_refused("elements.skw", &bytes);
}

#[test]
fn a_skw_whose_shape_product_overflows_is_a_format_error() {
    // Rank 4, 65536 per dim: the product is 2^64. A decoder that wraps it
    // reads an empty tensor; the record's CRC and the trailer are valid,
    // so such a decoder would accept the file and fail only on the model.
    let mut bytes = skw_record_header(&[65536; 4]);
    let crc = skipper_snn::crc32(&bytes[10..]);
    put_u32(&mut bytes, crc);
    put_u32(&mut bytes, 1); // trailing record count
    assert_skw_refused("overflow.skw", &bytes);
}

#[test]
fn a_skw_whose_record_count_exceeds_its_bytes_is_a_format_error() {
    let mut bytes = b"SKPRW\x02".to_vec();
    put_u32(&mut bytes, 1 << 20); // a million records in no bytes
    assert_skw_refused("count.skw", &bytes);
}

#[test]
fn a_sksn_claiming_a_2_to_the_30_byte_section_is_a_snapshot_error() {
    let mut bytes = b"SKSNP\x01".to_vec();
    put_u32(&mut bytes, 1); // section count
    put_u32(&mut bytes, 4); // name length
    bytes.extend_from_slice(b"meta");
    put_u32(&mut bytes, 1 << 30); // payload length
    assert_eq!(bytes.len(), 22);
    let path = hostile_file("section.sksn", &bytes);
    let (result, largest) = largest_allocation(|| read_snapshot(&path));
    std::fs::remove_file(&path).unwrap();
    match result {
        Err(SkipperError::Snapshot(detail)) => eprintln!("section.sksn: {detail}"),
        other => panic!("expected a snapshot error, got {other:?}"),
    }
    assert!(
        largest <= MAX_ALLOCATION,
        "decoding 22 bytes allocated {largest} bytes at once"
    );
}
