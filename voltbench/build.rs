//! Records how the benchmark binary was compiled, so every result can
//! state its build profile (in particular whether the workspace's
//! `target-cpu=native` flag reached the kernels).

fn main() {
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS")
        .unwrap_or_default()
        .split('\u{1f}')
        .collect::<Vec<_>>()
        .join(" ");
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".into());
    println!("cargo:rustc-env=VOLTBENCH_RUSTFLAGS={flags}");
    println!("cargo:rustc-env=VOLTBENCH_PROFILE={profile}");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
}
