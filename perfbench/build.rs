//! Records the build profile so every result can state what it measured.

fn main() {
    for key in ["PROFILE", "OPT_LEVEL"] {
        let value = std::env::var(key).unwrap_or_else(|_| "unknown".into());
        println!("cargo:rustc-env=PERFBENCH_{key}={value}");
    }
    println!("cargo:rerun-if-changed=build.rs");
}
