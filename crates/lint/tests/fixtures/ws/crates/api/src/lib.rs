//! Dead-api fixture crate.

#![forbid(unsafe_code)]

pub mod inner;

pub use inner::reexported_only;

pub fn never_called() {}

pub fn test_only() {}

pub const FORMAT_ONLY: u32 = 3;

pub fn used() -> u32 {
    4
}

pub fn example_only() {}

// lint:allow(dead-api) fixture: a reasoned suppression keeps this item
pub fn kept_for_tests() {}

pub(crate) fn crate_only() -> u32 {
    7
}

pub fn describe() -> String {
    format!("v{FORMAT_ONLY} {}", used() + crate_only())
}

#[cfg(test)]
mod tests {
    #[test]
    fn calls_test_only() {
        super::test_only();
    }
}
