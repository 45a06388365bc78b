//! Export/import in the Azure Public Dataset layout.
//!
//! Alongside the paper, the authors released sanitized traces at
//! `github.com/Azure/AzurePublicDataset`. Its `vmtable` schema carries,
//! per VM: identifiers (VM, subscription, deployment), creation/deletion
//! times, max/avg/P95-of-max CPU, a VM category, and the core/memory
//! allocation. This module writes synthetic traces in that layout (so
//! tools built against the public dataset can consume them) and reads
//! them back.
//!
//! Columns (CSV, with header):
//! `vmid,subscriptionid,deploymentid,vmcreated,vmdeleted,maxcpu,avgcpu,
//! p95maxcpu,vmcategory,vmcorecount,vmmemory`
//!
//! Times are seconds since the trace start; CPU values are percentages;
//! `vmcategory` is the public dataset's `Delay-insensitive` /
//! `Interactive` / `Unknown` labelling, which we fill from the FFT
//! classifier's inputs-equivalent (the generator's intent is *not* used).

use std::io::{BufRead, Write};

use rc_ml::fft::{PeriodicityConfig, PeriodicityDetector};
use rc_types::time::Timestamp;
use rc_types::vm::VmId;

use crate::trace::Trace;

/// One row of the `vmtable` export.
#[derive(Debug, Clone, PartialEq)]
pub struct VmTableRow {
    /// VM identifier.
    pub vmid: u64,
    /// Owning subscription.
    pub subscriptionid: u32,
    /// Deployment identifier.
    pub deploymentid: u64,
    /// Creation time, seconds since trace start.
    pub vmcreated: u64,
    /// Deletion time, seconds since trace start.
    pub vmdeleted: u64,
    /// Maximum observed CPU, percent.
    pub maxcpu: f64,
    /// Average observed CPU, percent.
    pub avgcpu: f64,
    /// 95th percentile of the per-interval max CPU, percent.
    pub p95maxcpu: f64,
    /// `Delay-insensitive`, `Interactive`, or `Unknown`.
    pub vmcategory: String,
    /// Core allocation.
    pub vmcorecount: u32,
    /// Memory allocation in GB.
    pub vmmemory: f64,
}

/// The CSV header line.
pub const VMTABLE_HEADER: &str = "vmid,subscriptionid,deploymentid,vmcreated,vmdeleted,maxcpu,avgcpu,p95maxcpu,vmcategory,vmcorecount,vmmemory";

/// Errors raised when parsing a `vmtable` file.
#[derive(Debug)]
pub enum DatasetError {
    /// I/O failure.
    Io(std::io::Error),
    /// A malformed line, with its 1-based line number.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
}

impl std::fmt::Display for DatasetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DatasetError::Io(e) => write!(f, "dataset I/O error: {e}"),
            DatasetError::Malformed { line, reason } => {
                write!(f, "malformed vmtable line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for DatasetError {}

impl From<std::io::Error> for DatasetError {
    fn from(e: std::io::Error) -> Self {
        DatasetError::Io(e)
    }
}

/// Builds the export rows for a trace.
///
/// `max_util_samples` bounds the telemetry read per VM for the CPU
/// summary columns; the category column is [`Trace::workload_class`]
/// (VMs observed less than 3 days are `Unknown`).
pub fn vm_table(trace: &Trace, max_util_samples: usize) -> Vec<VmTableRow> {
    let mut detector = PeriodicityDetector::new(PeriodicityConfig::default());
    let mut rows = Vec::with_capacity(trace.n_vms());
    for id in trace.vm_ids() {
        let vm = trace.vm(id);
        let (avg, p95) = trace.vm_util_summary(id, max_util_samples);
        // Max over the sampled window: approximate with the p95 level's
        // burst ceiling, which the model can exceed by at most 15%.
        let (first, last) = trace.vm_slots(id);
        let max = if last > first {
            let params = trace.util_params(id);
            let stride = ((last - first) as usize / max_util_samples.max(1)).max(1) as u64;
            let mut m: f64 = 0.0;
            let mut slot = first;
            while slot < last {
                m = m.max(params.reading(slot).max);
                slot += stride;
            }
            m
        } else {
            p95
        };
        let category = match trace.workload_class(id, &mut detector) {
            None => "Unknown",
            Some(true) => "Interactive",
            Some(false) => "Delay-insensitive",
        };
        rows.push(VmTableRow {
            vmid: id.0,
            subscriptionid: vm.subscription.0,
            deploymentid: vm.deployment.0,
            vmcreated: vm.created.as_secs(),
            vmdeleted: vm.deleted.as_secs(),
            maxcpu: max * 100.0,
            avgcpu: avg * 100.0,
            p95maxcpu: p95 * 100.0,
            vmcategory: category.to_string(),
            vmcorecount: vm.sku.cores,
            vmmemory: vm.sku.memory_gb,
        });
    }
    rows
}

/// Writes rows as CSV (with header) to any writer.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_vm_table<W: Write>(rows: &[VmTableRow], mut out: W) -> std::io::Result<()> {
    writeln!(out, "{VMTABLE_HEADER}")?;
    for r in rows {
        writeln!(
            out,
            "{},{},{},{},{},{:.2},{:.2},{:.2},{},{},{}",
            r.vmid,
            r.subscriptionid,
            r.deploymentid,
            r.vmcreated,
            r.vmdeleted,
            r.maxcpu,
            r.avgcpu,
            r.p95maxcpu,
            r.vmcategory,
            r.vmcorecount,
            r.vmmemory
        )?;
    }
    Ok(())
}

/// Parses a `vmtable` CSV (with or without header) from any reader.
///
/// # Errors
///
/// Returns [`DatasetError::Malformed`] on the first bad line.
pub fn read_vm_table<R: BufRead>(input: R) -> Result<Vec<VmTableRow>, DatasetError> {
    let mut rows = Vec::new();
    for (i, line) in input.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with("vmid") {
            continue;
        }
        let fields: Vec<&str> = trimmed.split(',').collect();
        if fields.len() != 11 {
            return Err(DatasetError::Malformed {
                line: i + 1,
                reason: format!("expected 11 fields, got {}", fields.len()),
            });
        }
        let parse_u64 = |s: &str, what: &str| -> Result<u64, DatasetError> {
            s.parse().map_err(|_| DatasetError::Malformed {
                line: i + 1,
                reason: format!("bad {what}: {s:?}"),
            })
        };
        let parse_f64 = |s: &str, what: &str| -> Result<f64, DatasetError> {
            s.parse().map_err(|_| DatasetError::Malformed {
                line: i + 1,
                reason: format!("bad {what}: {s:?}"),
            })
        };
        rows.push(VmTableRow {
            vmid: parse_u64(fields[0], "vmid")?,
            subscriptionid: parse_u64(fields[1], "subscriptionid")? as u32,
            deploymentid: parse_u64(fields[2], "deploymentid")?,
            vmcreated: parse_u64(fields[3], "vmcreated")?,
            vmdeleted: parse_u64(fields[4], "vmdeleted")?,
            maxcpu: parse_f64(fields[5], "maxcpu")?,
            avgcpu: parse_f64(fields[6], "avgcpu")?,
            p95maxcpu: parse_f64(fields[7], "p95maxcpu")?,
            vmcategory: fields[8].to_string(),
            vmcorecount: parse_u64(fields[9], "vmcorecount")? as u32,
            vmmemory: parse_f64(fields[10], "vmmemory")?,
        });
    }
    Ok(rows)
}

/// Writes the per-VM 5-minute readings of one VM in the public dataset's
/// `vm_cpu_readings` layout: `timestamp,vmid,mincpu,maxcpu,avgcpu`.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_cpu_readings<W: Write>(trace: &Trace, id: VmId, mut out: W) -> std::io::Result<u64> {
    let (first, last) = trace.vm_slots(id);
    let params = trace.util_params(id);
    let mut n = 0;
    for slot in first..last {
        let r = params.reading(slot);
        writeln!(
            out,
            "{},{},{:.2},{:.2},{:.2}",
            Timestamp::from_secs(slot * 300).as_secs(),
            id.0,
            r.min * 100.0,
            r.avg * 100.0,
            r.max * 100.0
        )?;
        n += 1;
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::TraceConfig;

    fn small_trace() -> Trace {
        Trace::generate(&TraceConfig {
            target_vms: 1_500,
            n_subscriptions: 100,
            days: 15,
            ..TraceConfig::small()
        })
    }

    #[test]
    fn vm_table_covers_all_vms_with_sane_columns() {
        let t = small_trace();
        let rows = vm_table(&t, 60);
        assert_eq!(rows.len(), t.n_vms());
        for r in rows.iter().take(300) {
            assert!(r.vmdeleted > r.vmcreated);
            assert!((0.0..=115.0).contains(&r.maxcpu), "{r:?}");
            assert!(r.avgcpu <= r.p95maxcpu + 1.0, "{r:?}");
            assert!(matches!(
                r.vmcategory.as_str(),
                "Delay-insensitive" | "Interactive" | "Unknown"
            ));
            assert!(r.vmcorecount >= 1);
        }
    }

    #[test]
    fn csv_round_trip_preserves_rows() {
        let t = small_trace();
        let rows = vm_table(&t, 60);
        let mut buf = Vec::new();
        write_vm_table(&rows, &mut buf).unwrap();
        let parsed = read_vm_table(std::io::BufReader::new(&buf[..])).unwrap();
        assert_eq!(parsed.len(), rows.len());
        for (a, b) in rows.iter().zip(&parsed) {
            assert_eq!(a.vmid, b.vmid);
            assert_eq!(a.subscriptionid, b.subscriptionid);
            assert_eq!(a.vmcreated, b.vmcreated);
            assert_eq!(a.vmcategory, b.vmcategory);
            assert!((a.avgcpu - b.avgcpu).abs() < 0.01);
        }
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        let bad = "1,2,3,4\n";
        let err = read_vm_table(std::io::BufReader::new(bad.as_bytes())).unwrap_err();
        assert!(matches!(err, DatasetError::Malformed { line: 1, .. }), "{err}");
        let bad_num = "x,2,3,0,10,50,10,60,Unknown,2,3.5\n";
        let err = read_vm_table(std::io::BufReader::new(bad_num.as_bytes())).unwrap_err();
        assert!(err.to_string().contains("vmid"));
    }

    #[test]
    fn header_and_blank_lines_are_skipped() {
        let input = format!("{VMTABLE_HEADER}\n\n7,1,2,0,600,50.00,10.00,45.00,Unknown,2,3.5\n");
        let rows = read_vm_table(std::io::BufReader::new(input.as_bytes())).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].vmid, 7);
    }

    #[test]
    fn cpu_readings_export_matches_slot_count() {
        let t = small_trace();
        // Find a VM with a decent number of readings.
        let id = t
            .vm_ids()
            .find(|&id| {
                let (a, b) = t.vm_slots(id);
                b - a > 10
            })
            .expect("some VM has readings");
        let mut buf = Vec::new();
        let n = write_cpu_readings(&t, id, &mut buf).unwrap();
        let (a, b) = t.vm_slots(id);
        assert_eq!(n, b - a);
        assert_eq!(buf.iter().filter(|&&c| c == b'\n').count() as u64, n);
    }
}
