//! Offline stand-in for `serde`, kept only for its lockfile entry.
//!
//! Nothing in the workspace derives or imports serde any more, and these
//! derives expand to nothing. The crate and the `serde` entries in the
//! Cargo manifests stay only because the benchmark's lockfile
//! (`perfbench/Cargo.lock`) lists it; the change that next updates that
//! lockfile removes the crate together with its entry there.

use proc_macro::TokenStream;

/// No-op stand-in for `serde::Serialize`.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// No-op stand-in for `serde::Deserialize`.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
