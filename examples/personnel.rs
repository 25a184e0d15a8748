//! The §4.3 deployment story: a *security filter* retrofitted in front of a
//! commercial off-the-shelf DBMS that offers no low-level access.
//!
//! A personnel database stores salary records. The DBMS below the filter is
//! a perfectly ordinary plaintext B-tree — it never sees a real employee id
//! or a plaintext salary — yet range queries still work because the
//! sum-of-treatments substitution preserves key order. The demo is `repro`'s
//! E9 section (`sks_bench::experiments::e9_security_filter`), whose text
//! `tests/golden/e9.txt` pins.
//!
//! ```sh
//! cargo run --example personnel
//! ```

fn main() {
    print!("{}", sks_bench::experiments::e9_security_filter());
}
