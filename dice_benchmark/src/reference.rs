//! Reference outputs for the default seed (`0xD1CE`) at the nominal sizes
//! (`--seconds 16`, not `--quick`).
//!
//! Every run prints its outputs as `output <name> = <value>` lines; a run in
//! the reference configuration must print exactly these, or it fails.
//! Digests are FNV-1a hashes of the library's own `digest()` renderings. To
//! regenerate after a change that is meant to alter an output, run each
//! workload on the default seed and copy its `output` lines here.

pub fn expected(workload: &str) -> &'static [(&'static str, &'static str)] {
    match workload {
        "table_load" => &[
            ("provider_prefixes", "319355"),
            ("customer_prefixes", "319355"),
            ("provider_loc_rib", "e404a4c6858ec7aa"),
            ("delivered", "638710"),
            ("steps", "128"),
        ],
        "live_replay" => &[
            ("live_digest", "58118fca9f5fbe7e"),
            ("rounds", "40"),
            ("total_runs", "1168"),
            ("faults", "8"),
            ("leak_rounds", "[2] [7] [12] [17] [22] [27] [32] [37]"),
        ],
        "explore_heavy" => &[
            ("report_digest", "0ea5c09f721850f5"),
            ("runs_per_pass", "43277"),
            ("queries_per_pass", "42224"),
            ("faults_per_pass", "3596"),
        ],
        "fault_search" => &[
            ("search_digests", "66ea08bda71b5657"),
            ("plans", "128"),
            ("repros", "68"),
            ("candidate_runs", "295"),
            ("control_digest", "de8cd23f074e246e"),
        ],
        _ => &[],
    }
}
