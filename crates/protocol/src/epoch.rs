//! Canonical settlement/gas-log encoding and per-epoch Merkle
//! commitments.
//!
//! The gas meter's `log` vector fills in meter-append order, which under
//! parallel settlement depends on thread interleaving. What *is*
//! deterministic is the `(claim, seq)` key on every event: `seq` comes
//! from the claim's own counter, allocated with each state transition,
//! so a claim's events are totally ordered by protocol causality.
//! [`canonical_log`] therefore stable-sorts by claim id then sequence
//! (coordinator-lane events — `claim: None` — sort first and keep their
//! lane order, which is deterministic because the coordinator only emits
//! them from serial phases), yielding a byte-identical log for any
//! interleaving of the same batch.
//!
//! [`epoch_root`] Merkle-commits the canonical log over a fixed
//! little-endian binary encoding ([`encode_event`]):
//!
//! ```text
//! leaf := has_claim: u8 | claim: u64 LE | seq: u32 LE
//!       | gas: u64 LE | amount: i128 LE (micro-credits)
//!       | action_len: u32 LE | action bytes
//! ```
//!
//! The root is the same [`tao_merkle::MerkleTree`] commitment scheme the
//! rest of the protocol uses (prefixed leaf/node hashing), so an epoch's
//! economic history is auditable exactly like a trace: identical across
//! worker counts, reproducible from the CSV export, and committable
//! on-chain as 32 bytes.

use tao_merkle::{Digest, MerkleTree};
use tao_money::Money;

use crate::gas::{GasEvent, GasMeter};

/// The committed record of one marketplace epoch: the canonical event
/// log and its Merkle root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochCommitment {
    /// Epoch index (0-based, in seal order).
    pub index: u64,
    /// Canonically ordered events (see [`canonical_log`]).
    pub entries: Vec<GasEvent>,
    /// Merkle root over [`encode_event`]-encoded entries; the all-zero
    /// digest for an empty epoch.
    pub root: Digest,
}

impl EpochCommitment {
    /// Net money amount over the epoch's entries (sum of event amounts).
    pub fn total_amount(&self) -> Money {
        self.entries.iter().map(|e| e.amount).sum()
    }

    /// Total gas over the epoch's entries.
    pub fn total_gas(&self) -> u64 {
        self.entries.iter().map(|e| e.gas).sum()
    }
}

/// Returns the meter's events in canonical order: coordinator-lane
/// events first (in lane order), then claim events sorted by
/// `(claim id, seq)`. The sort is stable and the key is unique per
/// event, so the result is independent of meter-append interleaving.
pub fn canonical_log(meter: &GasMeter) -> Vec<GasEvent> {
    let mut events = meter.log.clone();
    sort_canonical(&mut events);
    events
}

/// Sorts a drained event list into canonical order in place.
pub fn sort_canonical(events: &mut [GasEvent]) {
    events.sort_by(|a, b| match (a.claim, b.claim) {
        (None, None) => a.seq.cmp(&b.seq),
        (None, Some(_)) => std::cmp::Ordering::Less,
        (Some(_), None) => std::cmp::Ordering::Greater,
        (Some(ca), Some(cb)) => ca.cmp(&cb).then(a.seq.cmp(&b.seq)),
    });
}

/// Fixed little-endian binary encoding of one event (the Merkle leaf
/// preimage). Unambiguous: fixed-width fields plus a length-prefixed
/// action string.
pub fn encode_event(e: &GasEvent) -> Vec<u8> {
    let action = e.action.as_bytes();
    let mut out = Vec::with_capacity(1 + 8 + 4 + 8 + 16 + 4 + action.len());
    out.push(e.claim.is_some() as u8);
    out.extend_from_slice(&e.claim.unwrap_or(0).to_le_bytes());
    out.extend_from_slice(&e.seq.to_le_bytes());
    out.extend_from_slice(&e.gas.to_le_bytes());
    out.extend_from_slice(&e.amount.units().to_le_bytes());
    out.extend_from_slice(&(action.len() as u32).to_le_bytes());
    out.extend_from_slice(action);
    out
}

/// Concatenated [`encode_event`] bytes of a canonical log — the "log
/// bytes" the determinism tests compare across worker counts.
pub fn encode_log(events: &[GasEvent]) -> Vec<u8> {
    let mut out = Vec::new();
    for e in events {
        out.extend_from_slice(&encode_event(e));
    }
    out
}

/// Merkle root over the canonically ordered events; the all-zero digest
/// when the log is empty.
pub fn epoch_root(events: &[GasEvent]) -> Digest {
    if events.is_empty() {
        return Digest::default();
    }
    let leaves: Vec<Vec<u8>> = events.iter().map(encode_event).collect();
    MerkleTree::from_leaves(&leaves).root()
}

/// Renders a canonical log as CSV (`epoch,claim,seq,action,gas,amount`),
/// the artifact format CI uploads. `claim` is empty for lane events;
/// `amount` is exact decimal credits.
pub fn log_csv(epoch: u64, events: &[GasEvent]) -> String {
    let mut out = String::from("epoch,claim,seq,action,gas,amount\n");
    for e in events {
        let claim = e.claim.map(|c| c.to_string()).unwrap_or_default();
        out.push_str(&format!(
            "{epoch},{claim},{},{},{},{}\n",
            e.seq, e.action, e.gas, e.amount
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(claim: Option<u64>, seq: u32, action: &str, gas: u64, credits: i64) -> GasEvent {
        GasEvent {
            claim,
            seq,
            action: action.to_string(),
            gas,
            amount: Money::from_credits(credits),
        }
    }

    #[test]
    fn canonical_order_is_interleaving_independent() {
        // Two meter fills of the same events in different append orders.
        let mut a = GasMeter::new();
        a.charge("register_model", 10);
        a.charge_claim(2, 0, "commit_claim", 5, Money::from_credits(500));
        a.charge_claim(1, 1, "settle", 7, Money::from_credits(120));
        a.charge_claim(1, 0, "commit_claim", 5, Money::from_credits(500));

        let mut b = GasMeter::new();
        b.charge_claim(1, 0, "commit_claim", 5, Money::from_credits(500));
        b.charge_claim(1, 1, "settle", 7, Money::from_credits(120));
        b.charge("register_model", 10);
        b.charge_claim(2, 0, "commit_claim", 5, Money::from_credits(500));

        let ca = canonical_log(&a);
        let cb = canonical_log(&b);
        assert_eq!(ca, cb);
        assert_eq!(encode_log(&ca), encode_log(&cb));
        assert_eq!(epoch_root(&ca), epoch_root(&cb));
        // Lane events lead, then (claim, seq) ascending.
        assert_eq!(ca[0].claim, None);
        assert_eq!((ca[1].claim, ca[1].seq), (Some(1), 0));
        assert_eq!((ca[2].claim, ca[2].seq), (Some(1), 1));
        assert_eq!((ca[3].claim, ca[3].seq), (Some(2), 0));
    }

    #[test]
    fn encoding_is_injective_on_distinct_events() {
        let e1 = ev(Some(1), 0, "settle", 7, 120);
        let e2 = ev(Some(1), 1, "settle", 7, 120);
        let e3 = ev(None, 0, "settle", 7, 120);
        let e4 = ev(Some(1), 0, "settle", 7, 121);
        let encs: Vec<Vec<u8>> = [&e1, &e2, &e3, &e4]
            .iter()
            .map(|e| encode_event(e))
            .collect();
        for i in 0..encs.len() {
            for j in (i + 1)..encs.len() {
                assert_ne!(encs[i], encs[j], "events {i} and {j} collide");
            }
        }
    }

    #[test]
    fn root_changes_with_any_field() {
        let base = vec![ev(Some(1), 0, "settle", 7, 120)];
        let gas = vec![ev(Some(1), 0, "settle", 8, 120)];
        let amt = vec![ev(Some(1), 0, "settle", 7, 121)];
        assert_ne!(epoch_root(&base), epoch_root(&gas));
        assert_ne!(epoch_root(&base), epoch_root(&amt));
        assert_eq!(epoch_root(&[]), Digest::default());
    }

    #[test]
    fn csv_has_header_and_exact_amounts() {
        let events = vec![
            ev(None, 0, "register_model", 10, 0),
            ev(Some(3), 0, "commit_claim", 5, 500),
        ];
        let csv = log_csv(2, &events);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "epoch,claim,seq,action,gas,amount");
        assert_eq!(lines[1], "2,,0,register_model,10,0");
        assert_eq!(lines[2], "2,3,0,commit_claim,5,500");
    }
}
