//! Reach-report fixture: `used_elsewhere` and `Named` are used from
//! `user.rs`; `only_here` is named elsewhere only in comments, a string
//! and a test module.

pub fn used_elsewhere() {}

pub fn only_here() {}

pub(crate) fn crate_only() {}

pub struct Named {
    pub field_only_here: u32,
}

pub const fn const_only_here() -> u32 {
    1
}

pub use self::used_elsewhere as again;
