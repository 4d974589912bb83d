//! A workload registry whose inputs come from the benchmark seed.
//!
//! Every workload of the built-in registry plus the two ABFT variants is
//! instantiated with its default configuration, except that the `seed` of
//! its `*Config` is derived from the benchmark seed.  Seed 0 keeps every
//! default seed, so it reproduces the built-in configurations exactly.

use moard_abft::{AbftMatMul, AbftPf};
use moard_workloads::npb::{Bt, BtConfig, Cg, CgConfig, Ft, FtConfig, Lu, LuConfig};
use moard_workloads::npb::{Mg, MgConfig, Sp, SpConfig};
use moard_workloads::{Amg, AmgConfig, Lulesh, LuleshConfig, MatMul, MmConfig, Pf, PfConfig};
use moard_workloads::{Registry, Workload, WorkloadDescriptor, WorkloadRegistry};

/// The benchmark's default seed: every workload keeps its built-in inputs.
pub const DEFAULT_SEED: u64 = 0;

pub struct SeededRegistry {
    base: Registry,
    seed: u64,
}

pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl SeededRegistry {
    pub fn new(seed: u64) -> SeededRegistry {
        SeededRegistry {
            base: moard_abft::registry_with_abft(),
            seed,
        }
    }

    /// The input seed a workload whose default seed is `default` gets.
    fn derive(&self, default: u64) -> u64 {
        if self.seed == DEFAULT_SEED {
            default
        } else {
            default ^ splitmix64(self.seed)
        }
    }

    /// Canonical names of every registered workload.
    pub fn all_names(&self) -> Vec<&'static str> {
        self.base.names()
    }
}

macro_rules! seeded {
    ($reg:expr, $ty:ident, $cfg:ident) => {{
        let default = $cfg::default();
        Box::new($ty::with_config($cfg {
            seed: $reg.derive(default.seed),
            ..default
        }))
    }};
}

impl WorkloadRegistry for SeededRegistry {
    fn descriptors(&self) -> Vec<WorkloadDescriptor> {
        self.base.descriptors()
    }

    fn create(&self, name: &str) -> Option<Box<dyn Workload>> {
        let canonical = self.base.descriptor(name)?.name;
        let workload: Box<dyn Workload> = match canonical {
            "CG" => seeded!(self, Cg, CgConfig),
            "MG" => seeded!(self, Mg, MgConfig),
            "FT" => seeded!(self, Ft, FtConfig),
            "BT" => seeded!(self, Bt, BtConfig),
            "SP" => seeded!(self, Sp, SpConfig),
            "LU" => seeded!(self, Lu, LuConfig),
            "LULESH" => seeded!(self, Lulesh, LuleshConfig),
            "AMG" => seeded!(self, Amg, AmgConfig),
            "MM" => seeded!(self, MatMul, MmConfig),
            "PF" => seeded!(self, Pf, PfConfig),
            "ABFT-MM" => seeded!(self, AbftMatMul, MmConfig),
            "ABFT-PF" => seeded!(self, AbftPf, PfConfig),
            // A workload added to the library later runs with its built-in
            // inputs until it is listed here.
            _ => return self.base.create(name),
        };
        Some(workload)
    }
}
