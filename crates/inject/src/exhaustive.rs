//! Exhaustive fault injection — the ground truth used to validate aDVF
//! (paper §V-B, Fig. 6).
//!
//! An exhaustive campaign injects a fault at *every* valid fault-injection
//! site of the target data object: every enumerated error pattern of every
//! operand / store destination holding a value of the object, at every
//! dynamic occurrence (the classic campaign is the `single-bit` pattern
//! set: every bit of every site).  It is exact but astronomically expensive
//! at production scale (the paper counts trillions of sites for CG class
//! A); at our reduced problem sizes it is feasible and serves as the
//! reference ranking against which the aDVF ranking is checked.  A
//! deterministic stride makes sub-sampled "near-exhaustive" campaigns
//! possible for the larger objects.

use crate::campaign::{run_campaign_stats, Parallelism};
use crate::injector::DeterministicInjector;
use crate::stats::CampaignStats;
use moard_core::{ErrorPatternSet, ParticipationSite, PatternLists};
use moard_vm::FaultSpec;

/// Configuration of an exhaustive campaign.
#[derive(Debug, Clone)]
pub struct ExhaustiveConfig {
    /// Inject only every `site_stride`-th site (1 = truly exhaustive).
    pub site_stride: usize,
    /// Inject only every `pattern_stride`-th enumerated pattern of each
    /// site (1 = all patterns; under `single-bit` this is the classic
    /// every-N-th-bit stride).
    pub pattern_stride: usize,
    /// Error patterns enumerated per site (default: every single-bit flip).
    pub patterns: ErrorPatternSet,
    /// Worker threads.
    pub parallelism: Parallelism,
}

impl Default for ExhaustiveConfig {
    fn default() -> Self {
        ExhaustiveConfig {
            site_stride: 1,
            pattern_stride: 1,
            patterns: ErrorPatternSet::SingleBit,
            parallelism: Parallelism::Auto,
        }
    }
}

/// Enumerate the faults of an exhaustive campaign over the given sites:
/// the strided site × pattern cross-product, in site-major order.
pub fn enumerate_faults(sites: &[ParticipationSite], config: &ExhaustiveConfig) -> Vec<FaultSpec> {
    let site_stride = config.site_stride.max(1);
    let pattern_stride = config.pattern_stride.max(1);
    let mut pattern_lists = PatternLists::new(&config.patterns);
    let mut faults = Vec::new();
    for (i, site) in sites.iter().enumerate() {
        if i % site_stride != 0 {
            continue;
        }
        for pattern in pattern_lists
            .get(site.value.ty())
            .iter()
            .step_by(pattern_stride)
        {
            faults.push(site.fault(pattern));
        }
    }
    faults
}

/// Run an exhaustive (or strided near-exhaustive) campaign.
pub fn run_exhaustive(
    injector: &DeterministicInjector,
    sites: &[ParticipationSite],
    config: &ExhaustiveConfig,
) -> CampaignStats {
    let faults = enumerate_faults(sites, config);
    run_campaign_stats(injector, &faults, config.parallelism)
}

#[cfg(test)]
mod tests {
    use super::*;
    use moard_core::enumerate_sites;
    use moard_vm::{run_traced, Vm};
    use moard_workloads::MatMul;

    #[test]
    fn enumeration_counts_are_exact() {
        let injector = DeterministicInjector::new(Box::new(MatMul::default())).unwrap();
        let (_, trace) = run_traced(injector.module()).unwrap();
        let vm = Vm::with_defaults(injector.module()).unwrap();
        let c = vm.objects().by_name("C").unwrap().id;
        let sites = enumerate_sites(&trace, c);
        let all = enumerate_faults(&sites, &ExhaustiveConfig::default());
        assert_eq!(
            all.len() as u64,
            moard_core::count_fault_sites(&trace, c, &ErrorPatternSet::SingleBit)
        );
        let strided = enumerate_faults(
            &sites,
            &ExhaustiveConfig {
                site_stride: 2,
                pattern_stride: 8,
                ..Default::default()
            },
        );
        assert!(strided.len() < all.len());
        assert!(!strided.is_empty());
    }

    #[test]
    fn multibit_enumeration_covers_every_pattern() {
        let injector = DeterministicInjector::new(Box::new(MatMul::default())).unwrap();
        let (_, trace) = run_traced(injector.module()).unwrap();
        let vm = Vm::with_defaults(injector.module()).unwrap();
        let c = vm.objects().by_name("C").unwrap().id;
        let sites = enumerate_sites(&trace, c);
        let patterns = ErrorPatternSet::AdjacentBits { width: 2 };
        let all = enumerate_faults(
            &sites,
            &ExhaustiveConfig {
                patterns: patterns.clone(),
                ..Default::default()
            },
        );
        // Site × pattern cross-product, every fault a double-bit burst.
        assert_eq!(
            all.len() as u64,
            moard_core::count_fault_sites(&trace, c, &patterns)
        );
        assert!(all.iter().all(|f| f.mask.count_ones() == 2));
    }

    #[test]
    fn exhaustive_campaign_on_a_tiny_slice_runs() {
        let injector = DeterministicInjector::new(Box::new(MatMul::default())).unwrap();
        let (_, trace) = run_traced(injector.module()).unwrap();
        let vm = Vm::with_defaults(injector.module()).unwrap();
        let c = vm.objects().by_name("C").unwrap().id;
        let sites = enumerate_sites(&trace, c);
        let stats = run_exhaustive(
            &injector,
            &sites[..4.min(sites.len())],
            &ExhaustiveConfig {
                pattern_stride: 16,
                parallelism: Parallelism::Fixed(2),
                ..Default::default()
            },
        );
        assert!(stats.runs > 0);
        assert_eq!(
            stats.runs,
            stats.identical + stats.acceptable + stats.incorrect + stats.crashed
        );
    }
}
