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

/// The field `rate`, the struct-literal key and the `new` parameter of the same
/// name do not keep the uncalled method `rate` alive; `x.used()` and
/// `Meter::assoc` keep theirs.
pub struct Meter {
    rate: u32,
}

impl Meter {
    pub fn new(rate: u32) -> Meter {
        Meter { rate }
    }

    pub fn rate(&self) -> u32 {
        self.rate
    }

    pub fn used(&self) -> u32 {
        self.rate * 2
    }

    pub fn assoc() -> u32 {
        5
    }
}

pub fn describe() -> String {
    let x = Meter::new(crate_only());
    let assoc: fn() -> u32 = Meter::assoc;
    format!("v{FORMAT_ONLY} {} {}", used() + x.used(), assoc())
}

#[cfg(test)]
mod tests {
    #[test]
    fn calls_test_only() {
        super::test_only();
    }
}
