//! Records the rustflags the benchmark was compiled with, so every report
//! states whether it ran a `target-cpu=native` build.

fn main() {
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    println!(
        "cargo:rustc-env=ABSBENCH_RUSTFLAGS={}",
        flags.replace('\u{1f}', " ")
    );
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
}
