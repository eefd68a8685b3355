//! The metric catalogue: every metric the benchmark reports, by name, with
//! its unit and better direction, read from `BENCHMARK.json` so that the
//! file is the one place that defines them.

use std::sync::OnceLock;

use modsyn_obs::{parse_json, Json};

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
}

struct Catalogue {
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

fn catalogue() -> &'static Catalogue {
    static CATALOGUE: OnceLock<Catalogue> = OnceLock::new();
    CATALOGUE.get_or_init(|| {
        let doc =
            parse_json(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is valid JSON");
        let list = |key: &str| -> Vec<Metric> {
            let field = |entry: &Json, name: &str| {
                entry
                    .get(name)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("every {key} entry of BENCHMARK.json has a {name}"))
                    .to_string()
            };
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("BENCHMARK.json lists {key}"))
                .iter()
                .map(|entry| Metric {
                    name: field(entry, "name"),
                    unit: field(entry, "unit"),
                    better: field(entry, "better"),
                })
                .collect()
        };
        Catalogue {
            end_to_end: list("end_to_end"),
            per_layer: list("per_layer"),
        }
    })
}

/// What a user of the system sees, measured by an untraced run.
pub fn end_to_end() -> &'static [Metric] {
    &catalogue().end_to_end
}

/// The cost of each layer, measured by a traced run. Times and counts are
/// per pass over the workload's input set.
pub fn per_layer() -> &'static [Metric] {
    &catalogue().per_layer
}

/// The layer times that partition the traced wall; `unattributed_us` is
/// the rest. `core.resolve_us` is not among them: it is the sum of
/// `core.project_us`, `core.encode_us` and `sat.solve_us`.
pub const LAYER_TIMES: &[&str] = &[
    "stg.parse_us",
    "sg.derive_us",
    "core.project_us",
    "core.encode_us",
    "sat.solve_us",
    "logic.minimize_us",
    "check.netlist_us",
    "check.consistency_us",
    "check.csc_us",
    "check.si_us",
    "check.equiv_us",
];
