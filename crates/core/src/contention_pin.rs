//! Exactness pin for the simulator's busy-line paths: the centralized
//! barriers that queue P RMWs on one hot line (SENSE, SHY-CTR, SHY-PROXY)
//! at P=64 on the three ARM presets. Their runs re-stamp stalled ops by
//! the hundred thousand, so any change to how stall cohorts are drained
//! shows here as a moved engine count, stall total or fingerprint.

use std::sync::Arc;

use armbar_simcoh::{Arena, RunStats, SimBuilder};
use armbar_topology::{Platform, Topology};

use crate::registry::AlgorithmId;

const P: usize = 64;
const SEED: u64 = 0x5EED_0015;
const EPISODES: u32 = 4;

/// What one run must reproduce: the engine's host-side work counts
/// `(pops, restamps, waiter_visits, wakes)`, the schedule fingerprint and
/// a fold of every thread's `(write_stalls, write_stall_ns bits,
/// read_stalls)`.
type Pin = ((u64, u64, u64, u64), u64, u64);

fn run(algo: AlgorithmId, platform: Platform) -> RunStats {
    let topo = Arc::new(Topology::preset(platform));
    let mut arena = Arena::new();
    let barrier: Arc<dyn crate::Barrier> = Arc::from(algo.build(&mut arena, P, &topo));
    SimBuilder::new(topo, P)
        .seed(SEED)
        .run(move |ctx| {
            for _ in 0..EPISODES {
                ctx.compute_ns(100.0);
                barrier.wait(ctx);
            }
        })
        .unwrap_or_else(|e| panic!("{algo:?} on {platform}: {e}"))
}

fn pin_of(st: &RunStats) -> Pin {
    let e = st.engine();
    let mut h = 0u64;
    for c in st.coherence().per_thread() {
        for v in [c.write_stalls, c.write_stall_ns.to_bits(), c.read_stalls] {
            h = (h.rotate_left(5) ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }
    ((e.pops, e.restamps, e.waiter_visits, e.wakes), st.schedule_hash(), h)
}

#[test]
fn contended_barriers_keep_their_engine_work() {
    use AlgorithmId::{Sense, ShyCtr, ShyProxy};
    use Platform::{Kunpeng920 as Kunpeng, Phytium2000Plus as Phytium, ThunderX2 as Tx2};
    // Captured before the stall cohorts re-stamped a run in one pass.
    let expected: [(AlgorithmId, Platform, Pin); 9] = [
        (Sense, Phytium, ((9070, 8038, 250, 250), 0xa3e7007454d2fe70, 0x9901ad914604ac44)),
        (Sense, Tx2, ((9183, 8151, 250, 250), 0x992823f68e66e366, 0xca89c9514ce664bd)),
        (Sense, Kunpeng, ((9210, 8178, 250, 250), 0x69dd84bcd1aeb87c, 0x6c8d5c725b750add)),
        (ShyCtr, Phytium, ((103400, 96088, 3044, 3044), 0x3f2581d9631c9c4c, 0xa3c4829cd21728d8)),
        (ShyCtr, Tx2, ((103989, 96611, 3079, 3079), 0x3b8b70b021385b08, 0xfde922f0cf5b5a1a)),
        (ShyCtr, Kunpeng, ((113782, 105082, 3733, 3733), 0x65b6f77337ef835f, 0x78081db21794d0ce)),
        (ShyProxy, Phytium, ((103273, 95521, 3012, 3012), 0x7c33005795689ddf, 0x1ba9daff049bc05e)),
        (ShyProxy, Tx2, ((103473, 95647, 3047, 3047), 0x461376b2841a6bfb, 0x6b4bb2ee6305cdee)),
        (ShyProxy, Kunpeng, ((113927, 104763, 3702, 3702), 0x87a8fecbbd66ea69, 0xb33255312a05fcef)),
    ];
    for (algo, platform, want) in expected {
        assert_eq!(pin_of(&run(algo, platform)), want, "{algo:?} on {platform}");
    }
}
