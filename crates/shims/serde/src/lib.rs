//! Offline stand-in for the `serde` crate.
//!
//! The build environment has no crates.io access, so the workspace vendors
//! a compact serde replacement sufficient for this project: a
//! [`Serialize`] trait that writes JSON straight into a [`Serializer`], a
//! [`Deserialize`] trait that reads a JSON-shaped [`Value`] tree, and
//! `#[derive(Serialize, Deserialize)]` macros (re-exported from the sibling
//! `serde_derive` shim). `serde_json` (also vendored) drives the writer
//! and parses text into the tree.
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
//! exactly one JSON value, and `from_value(&Value) -> Result<T, DeError>`.

mod de;
mod ser;
mod value;

pub use de::{field, DeError, Deserialize};
pub use ser::{Serialize, Serializer};
pub use serde_derive::{Deserialize, Serialize};
pub use value::Value;
