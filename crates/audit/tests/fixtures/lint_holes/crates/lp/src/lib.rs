//! Blind spots of the two pre-merge source checkers, one case each.
//! `expected.txt` next to the manifest is the exact `ffc audit lint`
//! output; `analysis_fixtures.rs` pins it and the analyzer keys.

#![forbid(unsafe_code)]

/* A block comment is prose: x.unwrap() and a == 0.5 and
   std::process::exit(1) are not code. */

/// Multi-line and raw strings are data on every line they span.
pub fn prose() -> (&'static str, &'static str) {
    (
        "first line
         x.unwrap() on the second line of a string; a == 0.5",
        r#"a " quote, then x.unwrap() and std::process::exit(3)"#,
    )
}

mod my_env {
    pub fn variable() -> u32 {
        7
    }
}

/// `my_env::variable` is not `env::var`.
pub fn not_an_env_read() -> u32 {
    my_env::variable()
}

/// A call split over two lines is still a call.
pub fn split_unwrap(x: Option<u32>) -> u32 {
    x.unwrap
        ()
}

/// A comparison split over two lines is still a comparison.
pub fn split_eq(a: f64) -> bool {
    a ==
        1.5
}

/// `all(test, …)` needs `test`: these items are test-only.
#[cfg(all(test, debug_assertions))]
pub fn only_in_tests(x: Option<u32>) -> u32 {
    x.unwrap()
}

#[cfg(all(test, debug_assertions))]
const HALF_IS_HALF: bool = 0.5 == 0.5;

/// `not(test)` is production: linted and analyzed.
#[cfg(not(test))]
pub fn helper_a(x: Option<u32>) -> u32 {
    x.unwrap()
}

/// Marker text inside a string literal suppresses nothing.
pub fn marker_in_string(x: Option<u32>) -> u32 {
    let _s = ["audit:allow(no-unwrap): no", "audit:allow(panic-reachable/unwrap): no"]; x.unwrap()
}

/// One comma-separated marker covers both engines' findings from two
/// comment lines above its site.
pub fn reviewed(x: Option<u32>, a: f64) -> bool {
    // audit:allow(no-unwrap, float-eq, panic-reachable/unwrap): fixture —
    // the reason may run on over the rest of the comment block,
    // as long as the block stays contiguous down to the site.
    x.unwrap() > 0 && a == 0.5
}

/// Analyzer root: everything it calls is on the hot path.
pub fn hot_loop(x: Option<u32>) -> u32 {
    #[cfg(not(test))]
    let a = helper_a(x);
    #[cfg(test)]
    let a = 0;
    a + marker_in_string(x) + split_unwrap(x) + u32::from(reviewed(x, 0.5))
}

#[cfg(test)]
mod tests {
    /// A `"}"` literal closed the old brace counter early …
    #[test]
    fn close_brace_literal() {
        let close = "}";
        assert_eq!(close.len(), Some(1usize).unwrap());
    }

    /// … and a `"{"` literal left it open to the end of the file.
    #[test]
    fn open_brace_literals() {
        let open = ["{", "{"];
        assert_eq!(open.len(), Some(2usize).unwrap());
        assert!(super::split_eq(1.5) == (0.25 + 0.25 == 0.5));
    }
}

/// Production code after the test module, one rule each.
pub fn after_unwrap(x: Option<u32>) -> u32 {
    x.unwrap()
}

pub fn after_float_eq(a: f64) -> bool {
    a == 0.5
}

pub fn after_exit() -> ! {
    std::process::exit(3)
}
