//! Deterministic random-number streams.
//!
//! Every stochastic component of a simulation (each node's fine-grain burst
//! generator, the coarse trace synthesizer, job arrival jitter, …) draws
//! from its **own** RNG stream, derived from a master seed and a stream
//! identifier. Two properties follow:
//!
//! 1. whole experiments are bit-reproducible given the master seed, and
//! 2. scheduling *policies* can be compared on identical workload
//!    realizations (common random numbers), because the workload streams do
//!    not depend on how many draws the policy logic makes elsewhere.

use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The RNG used throughout the workspace.
///
/// ChaCha8 is counter-based and portable across platforms. Its cost
/// matters: per-node trace synthesis draws about four `u64` per sample
/// and dominates the setup of large cluster cells, which is why the
/// vendored generator refills four blocks at a time (one SSE2 kernel on
/// `x86_64`).
pub type SimRng = ChaCha8Rng;

/// SplitMix64 step — a strong 64-bit mixer used to derive stream seeds.
///
/// Reference: Steele, Lea & Flood, "Fast Splittable Pseudorandom Number
/// Generators" (OOPSLA 2014). Only the output mixing function is needed.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Identifies an independent random stream within an experiment.
///
/// Streams are namespaced by `(domain, index)` so that, e.g., node 3's
/// fine-grain burst stream and node 3's coarse-trace stream never collide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamId {
    /// Functional domain (see the `domains` module for registered values).
    pub domain: u32,
    /// Index within the domain (usually a node or job id).
    pub index: u64,
}

impl StreamId {
    /// A stream id in `domain` with the given `index`.
    pub const fn new(domain: u32, index: u64) -> Self {
        StreamId { domain, index }
    }

    /// The 64-bit lane seed `(master, domain, index)` mixes down to —
    /// the common prefix of the full 256-bit stream derivation and the
    /// single-draw path ([`RngFactory::draw_u64`]).
    fn mix_base(self, master: u64) -> u64 {
        splitmix64(master)
            ^ splitmix64((self.domain as u64).wrapping_mul(0xA24B_AED4_963E_E407))
            ^ splitmix64(self.index.wrapping_mul(0x9FB2_1C65_1E98_DF25))
    }

    fn mix(self, master: u64) -> [u8; 32] {
        // Derive four 64-bit words by iterating the mixer over disjoint
        // lanes; ChaCha needs a 256-bit seed.
        let base = self.mix_base(master);
        let mut seed = [0u8; 32];
        let mut z = base;
        for chunk in seed.chunks_exact_mut(8) {
            z = splitmix64(z);
            chunk.copy_from_slice(&z.to_le_bytes());
        }
        seed
    }
}

/// Well-known stream domains. Keeping them in one place prevents collisions
/// between crates.
pub mod domains {
    /// Fine-grain run/idle burst generation (per node).
    pub const FINE_BURSTS: u32 = 1;
    /// Coarse-grain trace synthesis (per node).
    pub const COARSE_TRACE: u32 = 2;
    /// Foreign-job properties and arrival jitter (per job).
    pub const JOBS: u32 = 3;
    /// Cluster-level placement tie-breaking.
    pub const PLACEMENT: u32 = 4;
    /// Parallel application communication jitter (per process).
    pub const PARALLEL: u32 = 5;
    /// Trace start-offset selection (per node), Sec 4.2's random offsets.
    pub const TRACE_OFFSET: u32 = 6;
    /// Synthetic dispatch-trace generation (per bucket).
    pub const DISPATCH: u32 = 7;
    /// Memory-demand evolution (per node).
    pub const MEMORY: u32 = 8;
    /// Per-node crash/reboot schedules (fault injection).
    pub const NODE_FAULTS: u32 = 9;
    /// Per-migration in-transit failure draws (fault injection).
    pub const MIGRATION_FAULTS: u32 = 10;
    /// Open-arrivals process generation (stream 0 = modulation phase
    /// chain, stream `w + 1` = window `w`'s arrival count and demands).
    pub const ARRIVALS: u32 = 11;
    /// Work-stealing victim selection. Stream indices pack
    /// `(thief node, window, probe attempt)`, so every victim choice is
    /// a pure function of `(seed, node, window, attempt)` — independent
    /// of merge order, shard count, and worker count.
    pub const STEALING: u32 = 12;
}

/// The master seed for replication `r` of an experiment seeded `base`.
///
/// # Seed-space contract
///
/// Master seeds are plain `u64`s spanning the full 2⁶⁴ space; every
/// stream derivation passes them through `splitmix64` (see
/// `StreamId::mix`), so *adjacent* master seeds yield statistically
/// independent streams and a simple `base + r` walk is a sound
/// replication schedule. The addition is explicitly `wrapping_add`: for
/// `base` near `u64::MAX` the walk wraps around to 0 by design (the seed
/// space is a ring, and the mixer treats wrapped values like any
/// others), rather than panicking in debug builds.
///
/// All replicated drivers (`evaluate_policy_replicated`, the bench
/// `Runner::replicate`) must derive seeds through this function so the
/// realization cache can key replication `r` by its logical seed alone.
pub const fn replication_seed(base: u64, r: u64) -> u64 {
    base.wrapping_add(r)
}

/// Factory deriving independent streams from a single master seed.
#[derive(Debug, Clone, Copy)]
pub struct RngFactory {
    master: u64,
}

impl RngFactory {
    /// A factory for the given experiment master seed.
    pub const fn new(master: u64) -> Self {
        RngFactory { master }
    }

    /// The master seed (recorded in experiment outputs).
    pub const fn master_seed(&self) -> u64 {
        self.master
    }

    /// The RNG for `stream`. Always returns the same generator state for
    /// the same `(master, stream)` pair.
    pub fn stream(&self, stream: StreamId) -> SimRng {
        SimRng::from_seed(stream.mix(self.master))
    }

    /// Convenience: the RNG for `(domain, index)`.
    pub fn stream_for(&self, domain: u32, index: u64) -> SimRng {
        self.stream(StreamId::new(domain, index))
    }

    /// One keyed 64-bit draw from `(domain, index)` — the single-output
    /// collapse of [`Self::stream_for`] for call sites that need exactly
    /// one value per key (work-stealing victim probes draw once per
    /// `(thief, window, attempt)` key, millions of times per run, and a
    /// full ChaCha stream set-up per draw dominates their wall-clock).
    /// Same derivation contract as a stream: a pure function of
    /// `(master, domain, index)`, independent of draw order.
    pub fn draw_u64(&self, domain: u32, index: u64) -> u64 {
        splitmix64(StreamId::new(domain, index).mix_base(self.master))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_stream_is_reproducible() {
        let f = RngFactory::new(42);
        let mut a = f.stream_for(domains::FINE_BURSTS, 7);
        let mut b = f.stream_for(domains::FINE_BURSTS, 7);
        for _ in 0..100 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn different_indices_differ() {
        let f = RngFactory::new(42);
        let mut a = f.stream_for(domains::FINE_BURSTS, 0);
        let mut b = f.stream_for(domains::FINE_BURSTS, 1);
        let av: Vec<u64> = (0..8).map(|_| a.random()).collect();
        let bv: Vec<u64> = (0..8).map(|_| b.random()).collect();
        assert_ne!(av, bv);
    }

    #[test]
    fn different_domains_differ() {
        let f = RngFactory::new(42);
        let mut a = f.stream_for(domains::FINE_BURSTS, 5);
        let mut b = f.stream_for(domains::COARSE_TRACE, 5);
        let av: Vec<u64> = (0..8).map(|_| a.random()).collect();
        let bv: Vec<u64> = (0..8).map(|_| b.random()).collect();
        assert_ne!(av, bv);
    }

    #[test]
    fn different_master_seeds_differ() {
        let a: Vec<u64> = {
            let mut r = RngFactory::new(1).stream_for(domains::JOBS, 0);
            (0..8).map(|_| r.random()).collect()
        };
        let b: Vec<u64> = {
            let mut r = RngFactory::new(2).stream_for(domains::JOBS, 0);
            (0..8).map(|_| r.random()).collect()
        };
        assert_ne!(a, b);
    }

    #[test]
    fn splitmix_mixes_low_entropy_inputs() {
        // Consecutive small inputs must yield well-separated outputs; a
        // simple sanity check that seeds for node 0,1,2… are not correlated.
        let outs: Vec<u64> = (0u64..16).map(splitmix64).collect();
        for w in outs.windows(2) {
            assert_ne!(w[0], w[1]);
            // Hamming distance should be substantial.
            let d = (w[0] ^ w[1]).count_ones();
            assert!(d > 10, "weak mixing: {d} differing bits");
        }
    }

    #[test]
    fn replication_seeds_walk_and_wrap() {
        assert_eq!(replication_seed(1998, 0), 1998);
        assert_eq!(replication_seed(1998, 7), 2005);
        // Near the top of the seed space the walk wraps instead of
        // panicking — the space is a ring.
        assert_eq!(replication_seed(u64::MAX, 0), u64::MAX);
        assert_eq!(replication_seed(u64::MAX, 2), 1);
    }

    #[test]
    fn coarse_trace_stream_digest_is_pinned() {
        // FNV-1a over the little-endian bytes of the first 1,024 `u64`
        // of node 0's trace stream at seed 1998, recorded with the
        // one-block-per-refill ChaCha8. A change here moves every trace.
        use rand_chacha::rand_core::RngCore;
        let mut r = RngFactory::new(1998).stream_for(domains::COARSE_TRACE, 0);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for _ in 0..1024 {
            for b in r.next_u64().to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        assert_eq!(h, 0x4194_9fab_b0bd_83d1);
    }

    #[test]
    fn stream_values_are_stable_across_versions() {
        // Pin a few values so accidental changes to seed derivation (which
        // would silently change every experiment) fail loudly.
        let f = RngFactory::new(0xDEAD_BEEF);
        let mut r = f.stream_for(domains::FINE_BURSTS, 3);
        let v: u64 = r.random();
        let w: u64 = r.random();
        assert_ne!(v, w);
        let mut r2 = f.stream_for(domains::FINE_BURSTS, 3);
        assert_eq!(r2.random::<u64>(), v);
        assert_eq!(r2.random::<u64>(), w);
    }
}
