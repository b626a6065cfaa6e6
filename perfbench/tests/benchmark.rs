//! The benchmark's own tests: `BENCHMARK.json` matches what the binary
//! prints, and the `ops_per_s` bound can register a known slowdown.
//!
//! Run from the repository root with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use poir_perfbench::measure::median;
use poir_perfbench::serve::{self, ServeConfig};
use poir_perfbench::{END_TO_END, PER_LAYER, WORKLOADS};

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// The `[...]` array that follows `"key":` in `json`.
fn array<'a>(json: &'a str, key: &str) -> &'a str {
    let at = json.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("{key} missing"));
    let open = at + json[at..].find('[').expect("array opens");
    let close = open + json[open..].find(']').expect("array closes");
    &json[open + 1..close]
}

/// Every string value of `"field": "..."` in `text`, in order.
fn strings(text: &str, field: &str) -> Vec<String> {
    let tag = format!("\"{field}\": \"");
    text.match_indices(&tag)
        .map(|(i, _)| {
            let rest = &text[i + tag.len()..];
            rest[..rest.find('"').expect("string closes")].to_string()
        })
        .collect()
}

/// The `bound` of end-to-end metric `name`.
fn bound(json: &str, name: &str) -> f64 {
    let section = array(json, "end_to_end");
    let at = section.find(&format!("\"name\": \"{name}\"")).expect("metric listed");
    let entry = &section[at..at + section[at..].find('}').expect("entry closes")];
    let value = entry.split("\"bound\":").nth(1).expect("bound given");
    value.trim().parse().expect("bound is a number")
}

/// `run_seconds` of `BENCHMARK.json`.
fn run_seconds(json: &str) -> f64 {
    let at = json.find("\"run_seconds\":").expect("run_seconds given") + "\"run_seconds\":".len();
    let value = &json[at..at + json[at..].find(',').expect("run_seconds ends")];
    value.trim().parse().expect("run_seconds is a number")
}

#[test]
fn benchmark_json_lists_what_the_binary_prints() {
    let json = benchmark_json();
    let pairs = |key: &str| {
        let section = array(&json, key);
        strings(section, "name").into_iter().zip(strings(section, "unit")).collect::<Vec<_>>()
    };
    let expect = |table: &[(&str, &str)]| {
        table.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect::<Vec<_>>()
    };
    assert_eq!(pairs("end_to_end"), expect(END_TO_END));
    assert_eq!(pairs("per_layer"), expect(PER_LAYER));
    assert_eq!(strings(array(&json, "workloads"), "name"), WORKLOADS);
}

/// `serve_hot` with the result cache and the decoded-block cache off must
/// lose more `ops_per_s` than the bound allows, or the bound could not
/// tell the caches' loss from noise. Medians of four seeds per side at the
/// benchmark's run length, the sides interleaved so a slow spell of the
/// host hits both.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing test: run with --release")]
fn caches_off_loses_more_ops_than_the_bound() {
    let json = benchmark_json();
    let (bound, seconds) = (bound(&json, "ops_per_s"), run_seconds(&json));
    let ops = |caches: bool, seed: u64| {
        let report = serve::run(ServeConfig { hot: true, caches }, seed, seconds, false);
        assert!(report.correct(), "serve_hot (caches {caches}) failed its checks");
        report.metrics.iter().find(|m| m.name == "ops_per_s").expect("ops_per_s").value
    };
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for seed in 1..=4 {
        on.push(ops(true, seed));
        off.push(ops(false, seed));
    }
    let loss = 1.0 - median(&off) / median(&on);
    println!("caches off lost {loss:.3} of ops_per_s (on {on:?}, off {off:?}); bound {bound}");
    assert!(
        loss > bound,
        "caches off lost {loss:.3} of ops_per_s (on {on:?}, off {off:?}); bound {bound}"
    );
}
