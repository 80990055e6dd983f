//! Named elsewhere only by a `pub use` re-export.

pub fn reexported_only() {}
