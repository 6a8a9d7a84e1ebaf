//! Offline stand-in for the `serde` crate.
//!
//! The build environment has no crates.io access, so the workspace vendors
//! a compact serde replacement sufficient for this project: a
//! [`Serialize`] trait that writes JSON straight into a [`Serializer`], a
//! [`Deserialize`] trait that reads JSON straight from a pull
//! [`Deserializer`], and `#[derive(Serialize, Deserialize)]` macros
//! (re-exported from the sibling `serde_derive` shim). Neither direction
//! builds a tree; [`Value`] is one more type that (de)serializes, for
//! callers that want a document's tree. `serde_json` (also vendored) drives
//! both.
//!
//! ## Data model
//!
//! * structs with named fields -> JSON objects (declaration order)
//! * one-field tuple structs (newtypes) -> their inner value
//! * multi-field tuple structs and tuples -> JSON arrays
//! * unit enum variants -> the variant name as a string
//! * maps -> JSON objects with stringified keys (numeric keys round-trip)
//! * `Option` -> value or `null`; absent struct fields deserialize to `None`
//!
//! The `#[serde(with = "module")]` field attribute is supported; the named
//! module must provide
//! `serialize(&T, &mut Serializer) -> Result<(), DeError>`, which writes
//! exactly one JSON value, and
//! `deserialize(&mut Deserializer) -> Result<T, DeError>`, which reads one.

mod de;
mod ser;
mod value;

pub use de::{element, end_elements, DeError, Deserialize, Deserializer, MAX_DEPTH};
pub use ser::{Serialize, Serializer};
pub use serde_derive::{Deserialize, Serialize};
pub use value::Value;
