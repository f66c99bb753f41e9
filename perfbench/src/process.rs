//! `process` layer: `campaign::process::ProcessBackend::run_supervised`,
//! with workers spawned from the shipped `perfjson fleet-campaign-worker`.

use std::path::{Path, PathBuf};

use greener_core::campaign::process::artifact_file_name;
use greener_core::campaign::{
    partition, CampaignReport, CampaignRunReport, ProcessBackend, SupervisorConfig, WorkerCommand,
};
use greener_core::fleet::FleetCellResult;

/// One supervised run's outputs.
pub struct Supervised {
    pub report: CampaignReport<FleetCellResult>,
    pub run: CampaignRunReport,
}

/// Supervise a fleet manifest process-per-shard into `dir`, which must
/// not exist yet: with a shared directory, resume would satisfy every
/// shard from the previous run's artifacts and no work would be measured.
/// Workers get no fault plan (the supervisor clears `GREENER_FAULT` in
/// their environment).
pub fn run_supervised(
    manifest_text: &str,
    worker: &Path,
    dir: &Path,
    shards: usize,
) -> Result<Supervised, String> {
    if dir.exists() {
        return Err(format!("artifact dir `{}` is not fresh", dir.display()));
    }
    let command = WorkerCommand {
        program: PathBuf::from(worker),
        args: vec!["fleet-campaign-worker".into()],
    };
    let config = SupervisorConfig {
        fault: None,
        ..SupervisorConfig::default()
    };
    let backend = ProcessBackend::new_fleet(manifest_text, command, dir, config)
        .map_err(|e| e.to_string())?;
    let (report, run) = backend.run_supervised(shards).map_err(|e| e.to_string())?;
    Ok(Supervised { report, run })
}

/// The shard artifacts a supervised run of `cells` cells at `shards`
/// shards published into `dir`, in shard order.
pub fn published_artifacts(dir: &Path, cells: usize, shards: usize) -> Result<Vec<String>, String> {
    partition(cells, shards)
        .iter()
        .map(|s| {
            let path = dir.join(artifact_file_name(s.shard, s.of));
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))
        })
        .collect()
}
