//! The paper's fourteen properties (Table 2, `Scale::Paper`) as wire traffic.

use wlac_atpg::{PropertyKind, Verification};
use wlac_circuits::{paper_suite, Expectation, Scale};
use wlac_server::Json;
use wlac_service::design_hash;

pub struct PaperCase {
    pub expectation: Expectation,
    /// The case with its monitor and environment nets marked as outputs,
    /// so the wire can name them; this is the netlist the server loads.
    pub verification: Verification,
    /// This property's entry of a `submit_batch` `jobs` array.
    pub job: Json,
}

pub fn cases() -> Vec<PaperCase> {
    paper_suite(Scale::Paper)
        .into_iter()
        .map(|case| {
            let mut verification = case.verification;
            let p = &case.property;
            let monitor = format!("mon_{p}");
            let netlist = &mut verification.netlist;
            netlist.mark_output(monitor.clone(), verification.property.monitor);
            let environment: Vec<Json> = verification
                .environment
                .iter()
                .enumerate()
                .map(|(i, &net)| {
                    let name = format!("env_{p}_{i}");
                    netlist.mark_output(name.clone(), net);
                    Json::Str(name)
                })
                .collect();
            let design = design_hash(&verification.netlist);
            let kind = match verification.property.kind {
                PropertyKind::Always => "always",
                PropertyKind::Eventually => "eventually",
            };
            let job = Json::obj(vec![
                ("design", Json::Str(design.to_string())),
                (
                    "property",
                    Json::obj(vec![
                        ("kind", Json::str(kind)),
                        ("monitor", Json::Str(monitor)),
                        ("name", Json::Str(p.clone())),
                    ]),
                ),
                ("environment", Json::Arr(environment)),
            ]);
            PaperCase {
                expectation: case.expectation,
                verification,
                job,
            }
        })
        .collect()
}

/// A `submit_batch` frame of the given jobs, in order.
pub fn submit_frame<'a>(jobs: impl Iterator<Item = &'a Json>) -> String {
    Json::obj(vec![
        ("op", Json::str("submit_batch")),
        ("jobs", Json::Arr(jobs.cloned().collect())),
    ])
    .to_string()
}

/// `Some(reason)` when the answer contradicts the paper's expectation: a
/// property expected to pass came back with a counterexample. A bounded
/// `no witness` where a witness is expected (p4: the witness needs 64
/// frames, the bound is 8) is weak, not wrong.
pub fn unsound(expectation: Expectation, label: &str) -> Option<String> {
    match (expectation, label) {
        (Expectation::Pass, "violated" | "witness") => Some(format!("expected pass, got {label}")),
        (Expectation::Witness, "violated" | "proved" | "holds(bound)") => {
            Some(format!("expected a witness, got {label}"))
        }
        _ => None,
    }
}

pub fn strong(label: &str) -> bool {
    matches!(label, "proved" | "violated" | "witness")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counterexamples_to_passing_properties_are_unsound() {
        assert_eq!(unsound(Expectation::Witness, "no witness"), None);
        assert!(unsound(Expectation::Pass, "violated").is_some());
        assert!(strong("witness") && !strong("holds(bound)"));
    }
}
