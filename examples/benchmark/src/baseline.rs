//! The baseline machine and the outputs pinned at the default seed. The
//! baseline figures themselves are in `baseline.json` and the README.

use crate::sys::Fingerprint;
use crate::workloads::Workload;

/// The machine `baseline.json` was measured on. The git revision is
/// left out: it names the code, not the machine.
const MACHINE: [(&str, &str); 5] = [
    ("rustc", "rustc 1.95.0 (59807616e 2026-04-14)"),
    ("cpu_model", "AMD EPYC"),
    ("nproc", "2"),
    ("kernel", "6.18.44-fc-v130"),
    ("fs_type", "ext4"),
];

/// Fingerprint fields that differ from the baseline machine, as
/// `field: here vs baseline`. Reported with every result, never gated.
#[must_use]
pub fn mismatches(fingerprint: &Fingerprint) -> Vec<String> {
    let here = fingerprint.fields();
    MACHINE
        .iter()
        .filter_map(|(field, base)| {
            let (_, value) = here.iter().find(|(f, _)| f == field)?;
            (value != base).then(|| format!("{field}: {value} vs {base}"))
        })
        .collect()
}

/// FNV-1a digest of each workload's output at the default seed: the CSV
/// on stdout, or for a campaign its CSV files in name order (a warm run
/// reproduces the cold run's bytes).
#[must_use]
pub fn pinned_digest(workload: Workload) -> u64 {
    match workload {
        Workload::Fig3Compare => 0xcc11_b99a_81b3_3d9d,
        Workload::CascadingChurn => 0xa109_633c_4ad1_c1b2,
        Workload::LossyFleet => 0x041a_cf83_5b1e_aa9a,
        Workload::CampaignCold | Workload::CampaignWarm => 0xc882_0116_2dbd_744a,
    }
}
