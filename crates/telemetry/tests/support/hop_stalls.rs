//! The per-link oracle: head-of-line totals over whole chains.
//!
//! The causal log folds each chain's stalled hops as its delivery is
//! recorded (`ChainFold::hop_stalls`), and that fold is what `explain`
//! reports. This walk over extracted chains needs the whole log (each
//! segment names a stored record), so it is kept as the oracle the fold
//! is held to: `tests/causal_fold.rs`, `tests/causal_critpath.rs` and
//! `crates/telemetry/tests/attribution.rs` include it.

use std::collections::BTreeMap;

use xt3_sim::{linkhop_port, CausalLog, CausalStage, SimTime};
use xt3_telemetry::{extract_chains, Chain, CostClass, CritPathError, HopStall};

/// Fold every `HopQueue` segment of `chains` into per-`(node, port)`
/// totals, sorted by `(node, port)`. The sum of `stall` over the rows
/// equals the chains' aggregate hop-queueing class exactly — the
/// zero-residual identity of the attribution rows, here per link. A log
/// that is not whole is refused as `extract_chains` refuses it
/// ([`CritPathError::Truncated`], [`CritPathError::Folded`]), and a
/// record a segment names that is not stored is
/// [`CritPathError::MissingRecord`].
pub fn hop_stalls(chains: &[Chain], log: &CausalLog) -> Result<Vec<HopStall>, CritPathError> {
    extract_chains(log)?;
    let records = log.records();
    let mut map: BTreeMap<(u32, i16), (SimTime, u64)> = BTreeMap::new();
    for chain in chains {
        for seg in &chain.segments {
            if seg.class != CostClass::HopQueue || seg.stage != CausalStage::LinkHop {
                continue;
            }
            let rec = records
                .get(seg.to as usize)
                .ok_or(CritPathError::MissingRecord { idx: seg.to })?;
            let key = (rec.node, linkhop_port(rec.info).map_or(-1, i16::from));
            let e = map.entry(key).or_insert((SimTime::ZERO, 0));
            e.0 += seg.dur;
            e.1 += 1;
        }
    }
    Ok(map
        .into_iter()
        .map(|((node, port), (stall, waits))| HopStall {
            node,
            port: u8::try_from(port).ok(),
            stall,
            waits,
        })
        .collect())
}
