//! One declaration per JSON shape.
//!
//! Every object the workspace writes and reads back — each
//! [`ScenarioSpec`](crate::scenario::ScenarioSpec) section and each
//! [`RunArtifact`](crate::artifact::RunArtifact) record — implements
//! [`Codec`]. Structs and tagged enums get that impl from one `codec!`
//! table, one row per field:
//!
//! ```text
//! field: Type = "key" [, default EXPR | , omit EXPR] [, check CHECK];
//! ```
//!
//! `default` is what a missing key decodes to (without it the key is
//! required); `omit` is a default that is also left out of the output
//! (`omit None` for an optional member); `check` names a [`Check`] that
//! numbers must pass. From the
//! table come the writer (floats in Rust's shortest round-trip form, so
//! write → read → write is byte-identical), the strict reader (unknown
//! keys rejected per variant, integers exact and in range for their type,
//! tags strings), and under `cfg(test)` a random generator for property
//! tests. Reader errors name the key path, e.g.
//! `"stop"."max_rounds" must fit in u32, got 4294967297`.

use crate::scenario::Json;
#[cfg(test)]
use rand::{rngs::SmallRng, Rng};

/// A value with one JSON form.
pub(crate) trait Codec: Sized {
    /// The JSON text of `self`.
    fn encode(&self) -> String;
    /// Decodes a value; errors start with the key path they concern.
    fn decode(v: &Json) -> Result<Self, String>;
    /// The number a [`Check`] tests, if any.
    fn number(&self) -> Option<f64> {
        None
    }
    /// A random value (the property tests' generator).
    #[cfg(test)]
    fn arbitrary(rng: &mut SmallRng) -> Self;
}

/// A range check on a numeric field: the predicate and what it requires.
pub(crate) type Check = (fn(f64) -> bool, &'static str);
/// Probabilities that exclude certainty.
pub(crate) const PROB: Check = (|x| (0.0..1.0).contains(&x), "a probability in [0, 1)");
/// Probabilities that allow certainty.
pub(crate) const UNIT: Check = (|x| (0.0..=1.0).contains(&x), "a probability in [0, 1]");
/// Rates, intervals and means.
pub(crate) const POSITIVE: Check = (|x| x.is_finite() && x > 0.0, "positive and finite");
/// Delays and churn rates.
pub(crate) const NON_NEGATIVE: Check = (|x| x.is_finite() && x >= 0.0, "non-negative and finite");
/// Counts and factors that cannot be zero.
pub(crate) const AT_LEAST_ONE: Check = (|x| x.is_finite() && x >= 1.0, "at least 1");

/// Object layout: opening text, member separator, closing text.
pub(crate) type Layout = (&'static str, &'static str, &'static str);
/// The one-line form every nested object uses.
pub(crate) const INLINE: Layout = ("{", ", ", "}");

/// Joins the present `members` (`"key": value` texts) into an object.
pub(crate) fn object<const N: usize>(
    (open, sep, close): Layout,
    members: [Option<String>; N],
) -> String {
    format!("{open}{}{close}", members.into_iter().flatten().collect::<Vec<_>>().join(sep))
}

/// The member `"key": value`, unless the value equals `omit`.
pub(crate) fn member<T: Codec + PartialEq>(key: &str, v: &T, omit: Option<T>) -> Option<String> {
    (omit.as_ref() != Some(v)).then(|| format!("\"{key}\": {}", v.encode()))
}

/// Prefixes error `e` with the place (`"key"` or `[i]`) it was found at.
pub(crate) fn under(place: &str, e: String) -> String {
    match e.as_bytes().first() {
        Some(b'"') => format!("{place}.{e}"),
        Some(b'[') => format!("{place}{e}"),
        _ => format!("{place} {e}"),
    }
}

/// Decodes member `key` of object `v` (`default` when absent, else an
/// error), then applies `check` to its number.
pub(crate) fn field<T: Codec>(
    v: &Json,
    key: &str,
    default: Option<T>,
    check: Option<Check>,
) -> Result<T, String> {
    let place = format!("\"{key}\"");
    let value = match v.get(key) {
        Some(j) => T::decode(j).map_err(|e| under(&place, e))?,
        None => default.ok_or_else(|| format!("{place} is missing"))?,
    };
    match (check, value.number()) {
        (Some((ok, what)), Some(x)) if !ok(x) => Err(format!("{place} must be {what}, got {x}")),
        _ => Ok(value),
    }
}

/// Rejects a non-object, and any member whose key is not in `keys`.
pub(crate) fn keys_only(v: &Json, keys: &[&str]) -> Result<(), String> {
    let Json::Obj(members) = v else { return Err("must be an object".into()) };
    match members.iter().find(|(k, _)| !keys.contains(&k.as_str())) {
        Some((k, _)) => Err(format!("{k:?} is not a key here (expected {})", keys.join(", "))),
        None => Ok(()),
    }
}

/// The tag of a tagged object: its `tag` member, which must be a string,
/// or `default` when absent.
pub(crate) fn tag_of<'a>(
    v: &'a Json,
    tag: &str,
    default: Option<&'a str>,
) -> Result<&'a str, String> {
    if !matches!(v, Json::Obj(_)) {
        return Err("must be an object".into());
    }
    match v.get(tag) {
        Some(t) => t.as_str().ok_or_else(|| format!("\"{tag}\" must be a string")),
        None => default.ok_or_else(|| format!("\"{tag}\" is missing")),
    }
}

/// The error for a string outside `names`.
pub(crate) fn not_one_of(names: &[&str], got: &str) -> String {
    format!("must be one of {}, got {got:?}", names.join(", "))
}

/// `v` without its `"schema"` member, which must be `schema` (and present
/// when `required`).
pub(crate) fn without_schema(v: &Json, schema: &str, required: bool) -> Result<Json, String> {
    let Json::Obj(members) = v else { return Err("must be an object".into()) };
    match v.get("schema") {
        None if !required => {}
        Some(s) if s.as_str() == Some(schema) => {}
        _ => return Err(format!("\"schema\" must be {schema:?}")),
    }
    Ok(Json::Obj(members.iter().filter(|(k, _)| k != "schema").cloned().collect()))
}

/// A random unsigned integer: mostly small, sometimes up to 2^20.
#[cfg(test)]
fn small(rng: &mut SmallRng) -> u32 {
    match rng.gen_range(0..8) {
        0 => 0,
        1..=5 => rng.gen_range(1..65),
        6 => rng.gen_range(0..4097),
        _ => rng.gen_range(0..(1 << 20) + 1),
    }
}

/// A random field value that passes `check`.
#[cfg(test)]
pub(crate) fn arbitrary_field<T: Codec>(rng: &mut SmallRng, check: Option<Check>) -> T {
    loop {
        let v = T::arbitrary(rng);
        if let (Some((ok, _)), Some(x)) = (check, v.number()) {
            if !ok(x) {
                continue;
            }
        }
        return v;
    }
}

macro_rules! unsigned {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            fn encode(&self) -> String {
                self.to_string()
            }
            fn decode(v: &Json) -> Result<Self, String> {
                let x = v.as_u64().ok_or("must be a non-negative integer below 2^53")?;
                <$t>::try_from(x).map_err(|_| format!("must fit in {}, got {x}", stringify!($t)))
            }
            fn number(&self) -> Option<f64> {
                Some(*self as f64)
            }
            #[cfg(test)]
            fn arbitrary(rng: &mut SmallRng) -> Self {
                small(rng) as $t
            }
        }
    )*};
}
unsigned!(u32, u64, usize);

impl Codec for f64 {
    fn encode(&self) -> String {
        self.to_string()
    }
    fn decode(v: &Json) -> Result<Self, String> {
        v.as_f64().ok_or_else(|| "must be a number".into())
    }
    fn number(&self) -> Option<f64> {
        Some(*self)
    }
    #[cfg(test)]
    fn arbitrary(rng: &mut SmallRng) -> Self {
        match rng.gen_range(0..4) {
            0 => 0.0,
            1 | 2 => rng.gen(),
            _ => f64::from(rng.gen_range(1..400)) / 4.0,
        }
    }
}

impl Codec for bool {
    fn encode(&self) -> String {
        self.to_string()
    }
    fn decode(v: &Json) -> Result<Self, String> {
        v.as_bool().ok_or_else(|| "must be a boolean".into())
    }
    #[cfg(test)]
    fn arbitrary(rng: &mut SmallRng) -> Self {
        rng.gen()
    }
}

impl Codec for String {
    fn encode(&self) -> String {
        crate::json_string(self)
    }
    fn decode(v: &Json) -> Result<Self, String> {
        v.as_str().map(str::to_string).ok_or_else(|| "must be a string".into())
    }
    #[cfg(test)]
    fn arbitrary(rng: &mut SmallRng) -> Self {
        const CHARS: [char; 14] =
            ['a', 'Z', '0', ' ', '_', '"', '\\', '/', '\n', '\t', '\u{1}', 'é', '→', '𝄞'];
        (0..rng.gen_range(0..9)).map(|_| CHARS[rng.gen_range(0..CHARS.len())]).collect()
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self) -> String {
        self.as_ref().map_or_else(|| "null".into(), T::encode)
    }
    fn decode(v: &Json) -> Result<Self, String> {
        T::decode(v).map(Some)
    }
    fn number(&self) -> Option<f64> {
        self.as_ref().and_then(T::number)
    }
    #[cfg(test)]
    fn arbitrary(rng: &mut SmallRng) -> Self {
        rng.gen_bool(0.5).then(|| T::arbitrary(rng))
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self) -> String {
        format!("[{}]", self.iter().map(T::encode).collect::<Vec<_>>().join(", "))
    }
    fn decode(v: &Json) -> Result<Self, String> {
        let Json::Arr(items) = v else { return Err("must be an array".into()) };
        let item = |(i, x)| T::decode(x).map_err(|e| under(&format!("[{i}]"), e));
        items.iter().enumerate().map(item).collect()
    }
    #[cfg(test)]
    fn arbitrary(rng: &mut SmallRng) -> Self {
        (0..rng.gen_range(0..4)).map(|_| T::arbitrary(rng)).collect()
    }
}

/// `Some(x)` for one argument, `None` for none.
macro_rules! opt {
    () => {
        None
    };
    ($x:expr) => {
        Some($x)
    };
}

/// A field's binding: its explicit name, else the member itself.
macro_rules! bind {
    ($m:tt) => {
        $m
    };
    ($m:tt $b:ident) => {
        $b
    };
}

/// The declaration table (see the module doc). Three forms:
///
/// - `struct T [, schema S REQUIRED] [, layout L] [, check F] { fields }`:
///   an object with a member per field; `schema` writes `"schema": S`
///   first and checks it on reading; `check` is a whole-value
///   `fn(&T) -> Result<(), String>`.
/// - `enum T "tag" [, default "variant"] [, check F] { V = "name" { fields } … }`:
///   an object whose `tag` member names the variant, then that variant's
///   fields. A tuple variant's field row starts with its index and a
///   binding name: `0 k: usize = "k";`.
/// - `names T { V = "name", … }`: a fieldless enum written as a string.
macro_rules! codec {
    (struct $ty:ident $(, schema $schema:ident $required:literal)? $(, layout $layout:ident)?
     $(, check $check:ident)? {
        $($m:tt: $fty:ty = $key:literal $(, default $def:expr)? $(, omit $omit:expr)?
          $(, check $chk:ident)?;)*
    }) => { const _: () = {
        use $crate::{codec::*, scenario::Json};
        impl Codec for $ty {
            fn encode(&self) -> String {
                object(opt!($($layout)?).unwrap_or(INLINE), [
                    $(Some(format!("\"schema\": {}", $crate::json_string($schema))),)?
                    $(member($key, &self.$m, opt!($($omit)?)),)*
                ])
            }
            fn decode(v: &Json) -> Result<Self, String> {
                $(let v = &without_schema(v, $schema, $required)?;)?
                keys_only(v, &[$($key),*])?;
                let value = Self {
                    $($m: field::<$fty>(v, $key, opt!($($def)? $($omit)?), opt!($($chk)?))?,)*
                };
                $($check(&value)?;)?
                Ok(value)
            }
            #[cfg(test)]
            fn arbitrary(rng: &mut rand::rngs::SmallRng) -> Self {
                loop {
                    let value = Self { $($m: arbitrary_field(rng, opt!($($chk)?)),)* };
                    if true $(&& $check(&value).is_ok())? {
                        return value;
                    }
                }
            }
        }
    }; };
    (enum $ty:ident $tag:literal $(, default $dtag:literal)? $(, check $check:ident)? {
        $($var:ident = $name:literal {
            $($m:tt $($b:ident)?: $fty:ty = $key:literal $(, default $def:expr)?
              $(, omit $omit:expr)? $(, check $chk:ident)?;)*
        })*
    }) => { const _: () = {
        use $crate::{codec::*, scenario::Json};
        impl Codec for $ty {
            fn encode(&self) -> String {
                match self {
                    $($ty::$var { $($m: bind!($m $($b)?)),* } => object(INLINE, [
                        Some(concat!("\"", $tag, "\": \"", $name, "\"").to_string()),
                        $(member($key, bind!($m $($b)?), opt!($($omit)?)),)*
                    ]),)*
                }
            }
            fn decode(v: &Json) -> Result<Self, String> {
                let value = match tag_of(v, $tag, opt!($($dtag)?))? {
                    $($name => {
                        keys_only(v, &[$tag, $($key),*])?;
                        $ty::$var { $($m: field::<$fty>(
                            v, $key, opt!($($def)? $($omit)?), opt!($($chk)?))?,)* }
                    })*
                    other => {
                        let e = not_one_of(&[$($name),*], other);
                        return Err(under(concat!("\"", $tag, "\""), e));
                    }
                };
                $($check(&value)?;)?
                Ok(value)
            }
            #[cfg(test)]
            fn arbitrary(rng: &mut rand::rngs::SmallRng) -> Self {
                use rand::{rngs::SmallRng, Rng};
                let variants: &[fn(&mut SmallRng) -> Self] = &[$(|_rng| $ty::$var {
                    $($m: arbitrary_field(_rng, opt!($($chk)?)),)*
                }),*];
                loop {
                    let value = variants[rng.gen_range(0..variants.len())](rng);
                    if true $(&& $check(&value).is_ok())? {
                        return value;
                    }
                }
            }
        }
    }; };
    (names $ty:ident { $($var:ident = $name:literal),* $(,)? }) => { const _: () = {
        use $crate::{codec::*, scenario::Json};
        impl Codec for $ty {
            fn encode(&self) -> String {
                match self {
                    $($ty::$var => concat!("\"", $name, "\"").to_string(),)*
                }
            }
            fn decode(v: &Json) -> Result<Self, String> {
                match v.as_str().ok_or("must be a string")? {
                    $($name => Ok($ty::$var),)*
                    other => Err(not_one_of(&[$($name),*], other)),
                }
            }
            #[cfg(test)]
            fn arbitrary(rng: &mut rand::rngs::SmallRng) -> Self {
                use rand::Rng;
                let all = [$($ty::$var),*];
                all[rng.gen_range(0..all.len())]
            }
        }
    }; };
}
pub(crate) use {bind, codec, opt};

/// The proptest [`Strategy`](proptest::Strategy) over a [`Codec`] type.
#[cfg(test)]
pub(crate) struct Arbitrary<T>(std::marker::PhantomData<T>);

/// Strategy generating `T`s from the table.
#[cfg(test)]
pub(crate) fn arbitrary<T: Codec>() -> Arbitrary<T> {
    Arbitrary(std::marker::PhantomData)
}

#[cfg(test)]
impl<T: Codec> proptest::Strategy for Arbitrary<T> {
    type Value = T;

    fn generate(&self, rng: &mut SmallRng) -> T {
        T::arbitrary(rng)
    }
}
