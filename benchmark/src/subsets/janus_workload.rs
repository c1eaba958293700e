//! The std-only module of `janus-workload`: the key picker.
#[path = "../../../crates/workload/src/keys.rs"]
pub mod keys;
pub use keys::KeyPicker;
