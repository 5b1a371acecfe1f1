//! Property tests for the JSON writer (`serde::JsonOut` behind
//! `serde_json::to_string{,_pretty}`): arbitrary `Value` trees must
//! read back unchanged from both layouts, and the pretty layout must
//! differ from the compact one only by whitespace outside strings.

use proptest::prelude::*;
use serde::Value;

/// Characters strings are drawn from: every control character, the
/// two characters JSON escapes, U+007F, and 1- to 4-byte UTF-8.
fn alphabet() -> Vec<char> {
    let mut chars: Vec<char> = (0u8..0x20).map(char::from).collect();
    chars.extend(['"', '\\', '\u{7f}', '/', ' ', 'a', 'Z', '0', '{', ':', ',']);
    chars.extend(['é', 'ß', '\u{7ff}', '€', '\u{ffff}', '😀', '\u{10ffff}']);
    chars
}

/// Floats at the edges of the format: signed zeros, subnormals, the
/// extremes, non-finite values, and values whose shortest form is an
/// exponent.
const FLOATS: [f64; 14] = [
    0.0,
    -0.0,
    f64::MIN_POSITIVE,
    f64::MIN_POSITIVE / 2.0,
    -5e-324,
    f64::MAX,
    f64::MIN,
    f64::EPSILON,
    1e16,
    1e-7,
    0.1,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

/// Arbitrary `Value` trees nested at most `depth` containers deep.
/// `I64` is drawn negative only: the parser reads a non-negative
/// integer back as `U64`.
struct Trees {
    depth: u32,
}

impl Trees {
    fn string(&self, rng: &mut TestRng) -> String {
        let chars = alphabet();
        (0..rng.below(9))
            .map(|_| chars[rng.below(chars.len() as u64) as usize])
            .collect()
    }

    fn scalar(&self, rng: &mut TestRng) -> Value {
        match rng.below(8) {
            0 => Value::Null,
            1 => Value::Bool(rng.below(2) == 1),
            2 => Value::U64(match rng.below(3) {
                0 => u64::MAX,
                1 => rng.below(1000),
                _ => rng.next_u64(),
            }),
            3 => Value::I64(match rng.below(3) {
                0 => i64::MIN,
                1 => -1 - rng.below(1000) as i64,
                _ => (rng.next_u64() | 1 << 63) as i64,
            }),
            4 => Value::F64(FLOATS[rng.below(FLOATS.len() as u64) as usize]),
            5 => Value::F64(f64::from_bits(rng.next_u64())),
            6 => Value::F64((rng.unit_f64() - 0.5) * 1e6),
            _ => Value::Str(self.string(rng)),
        }
    }

    fn tree(&self, rng: &mut TestRng, depth: u32) -> Value {
        if depth == 0 || rng.below(5) < 2 {
            return self.scalar(rng);
        }
        let len = rng.below(5);
        if rng.below(2) == 0 {
            Value::Seq((0..len).map(|_| self.tree(rng, depth - 1)).collect())
        } else {
            Value::Map(
                (0..len)
                    .map(|_| (self.string(rng), self.tree(rng, depth - 1)))
                    .collect(),
            )
        }
    }
}

impl Strategy for Trees {
    type Value = Value;

    fn generate(&self, rng: &mut TestRng) -> Value {
        self.tree(rng, self.depth)
    }
}

/// What `v` reads back as: non-finite floats become `Null`.
fn read_back(v: &Value) -> Value {
    match v {
        Value::F64(f) if !f.is_finite() => Value::Null,
        Value::Seq(items) => Value::Seq(items.iter().map(read_back).collect()),
        Value::Map(entries) => Value::Map(
            entries
                .iter()
                .map(|(k, v)| (k.clone(), read_back(v)))
                .collect(),
        ),
        other => other.clone(),
    }
}

/// Equality that tells `-0.0` from `0.0`.
fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::F64(x), Value::F64(y)) => x.to_bits() == y.to_bits(),
        (Value::Seq(xs), Value::Seq(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same(x, y))
        }
        (Value::Map(xs), Value::Map(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|((kx, x), (ky, y))| kx == ky && same(x, y))
        }
        _ => a == b,
    }
}

/// `json` with every whitespace byte outside string literals removed.
fn strip_layout(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    let (mut in_string, mut escaped) = (false, false);
    for c in json.chars() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
        } else if c == '"' {
            in_string = true;
        } else if c.is_ascii_whitespace() {
            continue;
        }
        out.push(c);
    }
    out
}

fn check(v: &Value) {
    let want = read_back(v);
    let compact = serde_json::to_string(v).unwrap();
    let pretty = serde_json::to_string_pretty(v).unwrap();
    for (layout, text) in [("compact", &compact), ("pretty", &pretty)] {
        let back: Value = serde_json::from_str(text)
            .unwrap_or_else(|e| panic!("{layout} output does not parse: {e}\n{text}"));
        assert!(
            same(&back, &want),
            "{layout} round trip changed the tree:\n{text}\n{back:?}\n{want:?}"
        );
    }
    assert_eq!(strip_layout(&pretty), compact);
}

#[test]
fn every_string_edge_round_trips() {
    let all: String = alphabet().into_iter().collect();
    check(&Value::Map(vec![
        (all.clone(), Value::Str(all.clone())),
        (String::new(), Value::Str(String::new())),
        ("edges".into(), Value::Seq(FLOATS.map(Value::F64).to_vec())),
        ("u".into(), Value::U64(u64::MAX)),
        ("i".into(), Value::I64(i64::MIN)),
        ("empty".into(), Value::Seq(vec![Value::Map(vec![])])),
    ]));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    #[test]
    fn trees_round_trip_through_both_layouts(v in Trees { depth: 8 }) {
        check(&v);
    }
}
