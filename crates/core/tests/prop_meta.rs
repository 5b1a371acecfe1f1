//! The JSON the tool parses back is the `.osn` footer metadata
//! ([`StoredRunMeta`]) and the configs inside it. A footer written by
//! any producer re-serializes to its own bytes, and arbitrary JSON or
//! one edit of a real footer gives `Ok` or a typed error — never a
//! panic — from every parser of it and from `analyze_store` on a store
//! that carries it.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use proptest::prelude::*;
use serde::Value;

use osn_core::cluster::{run_cluster_stored, ClusterConfig, RunOpts};
use osn_core::store::Options;
use osn_core::{analyze_store, record_app, run_app, ExperimentConfig, StoredRunMeta};
use osn_ftq::capture::CaptureConfig;
use osn_kernel::config::NodeConfig;
use osn_kernel::time::Nanos;
use osn_store::StoreReader;
use osn_trace::Trace;
use osn_workloads::App;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("osn-prop-meta-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tiny_config() -> ExperimentConfig {
    let mut config = ExperimentConfig::paper(App::Sphot, Nanos::from_millis(60)).with_seed(3);
    config.node.cpus = 2;
    config.nranks = 2;
    config
}

/// The footer bytes of the store at `path`.
fn footer(path: &Path) -> Vec<u8> {
    StoreReader::open(path).unwrap().metadata().to_vec()
}

#[test]
fn footers_reserialize_to_their_own_bytes() {
    let dir = tmpdir("footers");
    let recorded = dir.join("recorded.osn");
    record_app(tiny_config(), &recorded, Options::default()).unwrap();
    let captured = dir.join("captured.osn");
    let capture = CaptureConfig {
        duration: Nanos::from_millis(40),
        ..CaptureConfig::default()
    };
    osn_core::capture_to_store(capture, &captured, Options::default()).unwrap();
    let mut cluster = ClusterConfig::new(App::Sphot, 2, Nanos::from_millis(60));
    cluster.cpus = Some(2);
    let (_, ranks) = run_cluster_stored(
        &cluster,
        &dir.join("ranks"),
        Options::default(),
        RunOpts::default(),
    )
    .unwrap();
    assert_eq!(ranks.len(), 2);

    for path in [recorded, captured].iter().chain(&ranks) {
        let bytes = footer(path);
        let meta = StoredRunMeta::from_bytes(&bytes).unwrap();
        assert_eq!(meta.to_bytes(), bytes, "{}", path.display());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A real run's trace and the three documents parsed back from its
/// footer: the metadata, its experiment config and its node config.
struct Base {
    trace: Trace,
    docs: [Vec<u8>; 3],
}

fn base() -> &'static Base {
    static BASE: OnceLock<Base> = OnceLock::new();
    BASE.get_or_init(|| {
        let run = run_app(tiny_config());
        let meta = StoredRunMeta {
            config: run.config.clone(),
            result: run.result.clone(),
            ranks: run.ranks.clone(),
            source: None,
        };
        Base {
            trace: run.trace,
            docs: [
                meta.to_bytes(),
                serde_json::to_vec(&run.config).unwrap(),
                serde_json::to_vec(&run.config.node).unwrap(),
            ],
        }
    })
}

/// Send `doc` through every parser of footer JSON and through
/// `analyze_store` on a store at `path` that carries it as its footer.
fn consume(doc: &[u8], path: &Path) {
    if let Err(e) = StoredRunMeta::from_bytes(doc) {
        assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
    }
    let text = String::from_utf8_lossy(doc);
    let _: Result<ExperimentConfig, serde_json::Error> = serde_json::from_str(&text);
    let _: Result<NodeConfig, serde_json::Error> = serde_json::from_str(&text);
    osn_store::writer::write_store(path, &base().trace, doc, Options::default()).unwrap();
    let reader = StoreReader::open(path).unwrap();
    if let Err(e) = analyze_store(&reader) {
        assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
    }
}

/// Keys of the footer's documents, so arbitrary trees reach past the
/// top-level field lookup.
const KEYS: [&str; 16] = [
    "config", "result", "ranks", "source", "node", "app", "duration", "cpus", "tasks", "tid",
    "end_time", "stats", "perturb", "dvfs", "Mix", "parts",
];

/// Values that replace one node of a real footer: every JSON type,
/// integers at the edges of `u64`, and shapes the config enums use.
fn replacement(k: usize) -> Value {
    let map = |key: &str, v: Value| Value::Map(vec![(key.to_string(), v)]);
    match k % 14 {
        0 => Value::Null,
        1 => Value::Bool(true),
        2 => Value::U64(0),
        3 => Value::U64(u64::MAX),
        4 => Value::I64(-1),
        5 => Value::F64(-0.5),
        6 => Value::F64(1e300),
        7 => Value::Str(String::new()),
        8 => Value::Str("Amg".to_string()),
        9 => Value::Seq(Vec::new()),
        10 => Value::Seq(vec![Value::U64(1), Value::Null]),
        11 => Value::Map(Vec::new()),
        12 => map("Mix", map("parts", Value::Seq(vec![Value::Seq(vec![])]))),
        _ => map("Constant", map("ns", Value::I64(-7))),
    }
}

/// Number of nodes in `v`, itself included.
fn count(v: &Value) -> usize {
    1 + match v {
        Value::Seq(items) => items.iter().map(count).sum(),
        Value::Map(entries) => entries.iter().map(|(_, x)| count(x)).sum(),
        _ => 0,
    }
}

/// The same kind of value as `v`, at an edge of its range.
fn extreme(v: &Value, k: usize) -> Value {
    match v {
        Value::U64(_) => Value::U64([0, 1, u64::MAX][k % 3]),
        Value::I64(_) => Value::I64(i64::MIN),
        Value::F64(_) => Value::F64([-0.0, -1e300, 1e300][k % 3]),
        Value::Str(_) => Value::Str(["", "Amg", "\u{0}"][k % 3].to_string()),
        Value::Bool(b) => Value::Bool(!b),
        Value::Seq(_) => Value::Seq(Vec::new()),
        Value::Map(_) => Value::Map(Vec::new()),
        Value::Null => Value::Null,
    }
}

/// Replace the `n`-th node below `v` (pre-order, counting from 1)
/// with `with(node)`, or drop it from its container when that is
/// `None`. Returns 0 once done, else how many nodes are still to be
/// skipped.
fn edit(v: &mut Value, mut n: usize, with: &dyn Fn(&Value) -> Option<Value>) -> usize {
    let len = v.as_seq().map_or(0, <[Value]>::len) + v.as_map().map_or(0, <[_]>::len);
    for i in 0..len {
        n -= 1;
        let child = match v {
            Value::Seq(items) => &mut items[i],
            Value::Map(entries) => &mut entries[i].1,
            _ => unreachable!("only containers have children"),
        };
        if n > 0 {
            n = edit(child, n, with);
        } else if let Some(w) = with(child) {
            *child = w;
        } else {
            match v {
                Value::Seq(items) => drop(items.remove(i)),
                Value::Map(entries) => drop(entries.remove(i)),
                _ => unreachable!("only containers have children"),
            }
        }
        if n == 0 {
            return 0;
        }
    }
    n
}

/// JSON text drawn from a small token soup: mostly malformed, with the
/// footer's keys so well-formed fragments reach the typed decoders.
fn token_text() -> impl Strategy<Value = Vec<u8>> {
    const TOKENS: [&str; 16] = [
        "{",
        "}",
        "[",
        "]",
        ":",
        ",",
        "null",
        "true",
        "0",
        "-1",
        "1e400",
        "18446744073709551616",
        "\"",
        "\"\\ud800\"",
        "\"Amg\"",
        "\"x\"",
    ];
    prop::collection::vec((0..TOKENS.len() + KEYS.len(), any::<bool>()), 0..48).prop_map(|toks| {
        let mut text = String::new();
        for (t, colon) in toks {
            match TOKENS.get(t) {
                Some(tok) => text.push_str(tok),
                None => text.push_str(&format!("\"{}\"", KEYS[t - TOKENS.len()])),
            }
            if colon {
                text.push(':');
            }
        }
        text.into_bytes()
    })
}

/// A well-formed JSON tree keyed by the footer's keys, one node per
/// word of `bits`.
fn tree(bits: &mut impl Iterator<Item = u64>, depth: u32) -> Value {
    let b = bits.next().unwrap_or(0);
    let mut items = || {
        let len = (b >> 4) % 4;
        (0..len).map(|_| tree(bits, depth - 1)).collect::<Vec<_>>()
    };
    match (depth, b % 3) {
        (0, _) | (_, 0) => replacement((b >> 8) as usize),
        (_, 1) => Value::Seq(items()),
        _ => {
            let key = |i| KEYS[((b >> 16) + i) as usize % KEYS.len()].to_string();
            Value::Map((0..).map(key).zip(items()).collect())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn arbitrary_json_is_ok_or_a_typed_error(
        soup in token_text(),
        bits in prop::collection::vec(any::<u64>(), 1..64),
    ) {
        let path = tmpdir("arbitrary").join("store.osn");
        consume(&soup, &path);
        consume(&serde_json::to_vec(&tree(&mut bits.into_iter(), 5)).unwrap(), &path);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn one_edit_of_a_real_footer_is_ok_or_a_typed_error(
        doc in 0usize..3,
        at in any::<prop::sample::Index>(),
        op in 0u8..3,
        byte in prop_oneof![
            Just(b'{'), Just(b'}'), Just(b'['), Just(b']'), Just(b':'), Just(b','),
            Just(b'"'), Just(b'\\'), Just(b'-'), Just(b'9'), Just(b'e'), any::<u8>(),
        ],
        node in any::<prop::sample::Index>(),
        with in 0usize..15,
        k in 0usize..3,
    ) {
        let path = tmpdir("edit").join("store.osn");
        let original = &base().docs[doc];

        // A byte deleted, inserted or replaced.
        let mut bytes = original.clone();
        let i = at.index(bytes.len() + 1);
        match op {
            0 if i < bytes.len() => drop(bytes.remove(i)),
            1 => bytes.insert(i, byte),
            _ if i < bytes.len() => bytes[i] = byte,
            _ => bytes.push(byte),
        }
        consume(&bytes, &path);

        // One node of the parsed document replaced, dropped, or set to
        // an edge of its own kind.
        let value: Value = serde_json::from_slice(original).unwrap();
        let n = 1 + node.index(count(&value) - 1);
        let replace = |_: &Value| (with < 14).then(|| replacement(with));
        let to_edge = |v: &Value| Some(extreme(v, k));
        for with in [&replace as &dyn Fn(&Value) -> Option<Value>, &to_edge] {
            let mut value = value.clone();
            edit(&mut value, n, with);
            consume(&serde_json::to_vec(&value).unwrap(), &path);
        }
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }
}
