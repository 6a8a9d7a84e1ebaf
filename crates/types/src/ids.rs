//! Strongly-typed identifiers.
//!
//! Every entity in the system (jobs, users, servers, GPU generations, models) is
//! referred to by a newtype around a small integer. The newtypes prevent the
//! classic "passed a job id where a server id was expected" bug while staying
//! `Copy` and hash-friendly for use as map keys throughout the scheduler.

use serde::{Deserialize, Serialize};
use std::fmt;

macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident, $prefix:expr) => {
        $(#[$meta])*
        #[derive(
            Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
        )]
        pub struct $name(pub u32);

        impl $name {
            /// Creates an identifier from a raw index.
            pub const fn new(raw: u32) -> Self {
                Self(raw)
            }

            /// Returns the raw index backing this identifier.
            pub const fn raw(self) -> u32 {
                self.0
            }

            /// Returns the raw index as a `usize`, for indexing into vectors.
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(raw: u32) -> Self {
                Self(raw)
            }
        }

        impl From<$name> for u32 {
            fn from(id: $name) -> u32 {
                id.0
            }
        }
    };
}

id_type!(
    /// Identifier of a deep-learning training job.
    JobId,
    "J"
);

id_type!(
    /// Identifier of a user (tenant) sharing the cluster.
    UserId,
    "U"
);

id_type!(
    /// Identifier of a physical server hosting GPUs.
    ServerId,
    "S"
);

id_type!(
    /// Identifier of a GPU generation (e.g. K80, P100, V100).
    GenId,
    "G"
);

id_type!(
    /// Identifier of a model within one simulation: the rank of its name
    /// among the trace's distinct model names in `str` order, so ids are
    /// dense and id order is name order.
    ModelId,
    "M"
);

/// Allocates monotonically increasing identifiers of one kind.
///
/// Used by trace generators and tests to mint fresh ids without collisions.
///
/// # Examples
///
/// ```
/// use gfair_types::ids::{IdAllocator, JobId};
///
/// let mut alloc = IdAllocator::<JobId>::new();
/// assert_eq!(alloc.next(), JobId::new(0));
/// assert_eq!(alloc.next(), JobId::new(1));
/// ```
#[derive(Debug, Clone)]
pub struct IdAllocator<T> {
    next: u32,
    _marker: std::marker::PhantomData<T>,
}

impl<T: From<u32>> IdAllocator<T> {
    /// Creates an allocator starting at id 0.
    pub fn new() -> Self {
        Self {
            next: 0,
            _marker: std::marker::PhantomData,
        }
    }

    /// Creates an allocator starting at the given raw id.
    pub fn starting_at(raw: u32) -> Self {
        Self {
            next: raw,
            _marker: std::marker::PhantomData,
        }
    }

    /// Mints the next identifier.
    // The allocator is deliberately not an `Iterator` (it never ends and is
    // used imperatively), so the familiar name stays.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> T {
        let id = T::from(self.next);
        self.next += 1;
        id
    }

    /// Returns how many identifiers have been minted.
    pub fn minted(&self) -> u32 {
        self.next
    }
}

impl<T: From<u32>> Default for IdAllocator<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn ids_display_with_prefix() {
        assert_eq!(JobId::new(7).to_string(), "J7");
        assert_eq!(UserId::new(3).to_string(), "U3");
        assert_eq!(ServerId::new(12).to_string(), "S12");
        assert_eq!(GenId::new(0).to_string(), "G0");
    }

    #[test]
    fn ids_debug_matches_display() {
        assert_eq!(format!("{:?}", JobId::new(9)), "J9");
    }

    #[test]
    fn ids_round_trip_through_u32() {
        let id = ServerId::from(42u32);
        assert_eq!(u32::from(id), 42);
        assert_eq!(id.raw(), 42);
        assert_eq!(id.index(), 42usize);
    }

    #[test]
    fn ids_are_ordered_by_raw_value() {
        assert!(JobId::new(1) < JobId::new(2));
        assert!(GenId::new(0) < GenId::new(1));
    }

    #[test]
    fn ids_work_as_map_keys() {
        let mut m = HashMap::new();
        m.insert(UserId::new(1), "alice");
        m.insert(UserId::new(2), "bob");
        assert_eq!(m[&UserId::new(1)], "alice");
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn allocator_mints_sequential_ids() {
        let mut alloc = IdAllocator::<JobId>::new();
        assert_eq!(alloc.next(), JobId::new(0));
        assert_eq!(alloc.next(), JobId::new(1));
        assert_eq!(alloc.minted(), 2);
    }

    #[test]
    fn allocator_starting_at_offset() {
        let mut alloc = IdAllocator::<ServerId>::starting_at(100);
        assert_eq!(alloc.next(), ServerId::new(100));
        assert_eq!(alloc.next(), ServerId::new(101));
    }

    #[test]
    fn ids_serialize_as_plain_integers() {
        let id = JobId::new(5);
        let json = serde_json::to_string(&id).unwrap();
        assert_eq!(json, "5");
        let back: JobId = serde_json::from_str(&json).unwrap();
        assert_eq!(back, id);
    }
}
