//! Monte-Carlo fleet campaigns: M seed-derived replications of one
//! [`FleetSpec`], run across a worker pool, aggregated by exact merge.
//!
//! The determinism contract: each replication is an independent world whose
//! seed is a pure function of the campaign seed and the replication index,
//! and [`FleetReport::merge`] is an integer-exact associative/commutative
//! fold. Worker count and shard grouping are therefore pure implementation
//! detail — any configuration produces byte-identical JSON.

use mpw_metrics::{par_map, FleetReport};

use crate::engine::run_fleet;
use crate::spec::FleetSpec;

/// Derive the world seed for replication `r` from the campaign seed —
/// the same splitmix-style derivation the handover campaign uses.
pub fn replication_seed(seed: u64, r: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(r)
}

/// A campaign description: `replications` independent worlds built from
/// `base` (same spec, derived seeds), run on `workers` threads, aggregated
/// through `shards` intermediate partial reports.
#[derive(Clone, Debug)]
pub struct FleetCampaign {
    /// Spec every replication shares (its `seed` is the campaign seed).
    pub base: FleetSpec,
    /// Number of replications.
    pub replications: u32,
    /// Worker threads (0 = one per core).
    pub workers: usize,
    /// Number of contiguous shard groups merged into partials before the
    /// final fold (1 = merge replications directly).
    pub shards: usize,
}

/// Run every replication and return (merged report, per-replication
/// reports in replication order).
pub fn run_campaign(campaign: &FleetCampaign) -> (FleetReport, Vec<FleetReport>) {
    let n = campaign.replications as usize;
    let reports = run_replications(campaign, n);

    // Shard merge: contiguous replication ranges fold into partials, the
    // partials fold in order. Exactness of `merge` makes the grouping
    // invisible in the output.
    let shards = campaign.shards.clamp(1, n.max(1));
    let bucket = campaign.base.goodput_bucket_ms;
    let mut merged = FleetReport::new(bucket);
    let per_shard = n.div_ceil(shards.max(1)).max(1);
    for chunk in reports.chunks(per_shard) {
        let mut partial = FleetReport::new(bucket);
        for r in chunk {
            partial.merge(r);
        }
        merged.merge(&partial);
    }
    (merged, reports)
}

fn run_one(campaign: &FleetCampaign, r: usize) -> FleetReport {
    let mut spec = campaign.base.clone();
    spec.seed = replication_seed(campaign.base.seed, r as u64);
    run_fleet(&spec).report
}

fn run_replications(campaign: &FleetCampaign, n: usize) -> Vec<FleetReport> {
    let reps: Vec<usize> = (0..n).collect();
    par_map(&reps, campaign.workers, |&r| run_one(campaign, r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpw_metrics::to_json;

    fn small_campaign(workers: usize, shards: usize) -> FleetCampaign {
        let mut base = crate::FleetSpec::smoke(4, 42);
        base.workload = crate::FleetWorkload::Download { size: 16 << 10 };
        base.horizon_ms = 30_000;
        FleetCampaign {
            base,
            replications: 3,
            workers,
            shards,
        }
    }

    #[test]
    fn workers_and_shards_do_not_change_bytes() {
        let (serial, reps_serial) = run_campaign(&small_campaign(1, 1));
        let (pooled, reps_pooled) = run_campaign(&small_campaign(4, 3));
        assert_eq!(reps_serial.len(), 3);
        for (a, b) in reps_serial.iter().zip(&reps_pooled) {
            assert_eq!(to_json(a), to_json(b));
        }
        assert_eq!(to_json(&serial), to_json(&pooled));
    }

    #[test]
    fn replication_seeds_differ() {
        let a = replication_seed(7, 0);
        let b = replication_seed(7, 1);
        let c = replication_seed(8, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
