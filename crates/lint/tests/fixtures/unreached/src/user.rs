//! `only_here` in a doc comment does not reach it.

use crate::{used_elsewhere, Named};

// Nor does only_here in a line comment.
pub fn caller() -> Named {
    used_elsewhere();
    let _ = "only_here";
    Named { field_only_here: 0 }
}

#[cfg(test)]
mod tests {
    #[test]
    fn reaches_only_from_a_test() {
        crate::only_here();
    }
}
