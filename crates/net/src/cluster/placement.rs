//! Deterministic device → gateway placement for a multi-gateway
//! cluster.
//!
//! Placement composes with the fleet's fixed sharding discipline
//! instead of replacing it: a device's *shard* is `id % SHARD_COUNT`
//! forever (the invariant every per-shard key cache in the workspace
//! keys on), and placement assigns whole **shards** to gateways via
//! rendezvous (highest-random-weight) hashing. Two consequences:
//!
//! * Every device of a shard lands on the same gateway, so a gateway's
//!   verification pool sees the same shard-aligned batches a
//!   single-gateway deployment does, and per-shard key caches are never
//!   split or orphaned.
//! * Growing the cluster from `n` to `n + 1` gateways only moves shards
//!   whose rendezvous winner *is the new gateway* — every shard that
//!   stays keeps its gateway, its cache, and its live sessions. This is
//!   the classic HRW stability property, pinned by a proptest.

use eilid_fleet::{DeviceId, SHARD_COUNT};

/// Deterministic shard → gateway assignment for a cluster of `n`
/// gateways (identified by their index `0..n`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    gateways: usize,
}

/// SplitMix64: a tiny, high-quality 64-bit mixer — deterministic across
/// processes (placement must agree between operators, supervisors and
/// test harnesses without any shared state).
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Placement {
    /// A placement over `gateways` gateways.
    ///
    /// # Panics
    ///
    /// Panics on an empty cluster — placement over zero gateways is
    /// meaningless.
    pub fn new(gateways: usize) -> Self {
        assert!(gateways > 0, "a cluster needs at least one gateway");
        Placement { gateways }
    }

    /// Gateways in this placement.
    pub fn gateways(&self) -> usize {
        self.gateways
    }

    /// The gateway owning `shard`: the rendezvous winner — the gateway
    /// whose `(gateway, shard)` hash is highest. Ties cannot occur in
    /// practice (distinct inputs to a 64-bit mixer); the lower index
    /// wins if one ever did.
    pub fn gateway_of_shard(&self, shard: usize) -> usize {
        (0..self.gateways)
            .max_by_key(|&gateway| {
                (
                    mix64((gateway as u64) << 32 | shard as u64),
                    usize::MAX - gateway,
                )
            })
            .expect("at least one gateway")
    }

    /// The gateway serving `device`, through its fixed shard.
    pub fn gateway_of(&self, device: DeviceId) -> usize {
        self.gateway_of_shard((device % SHARD_COUNT as u64) as usize)
    }

    /// The shards each gateway owns: `result[g]` lists gateway `g`'s
    /// shards in order. Every shard appears exactly once across the
    /// cluster.
    #[cfg(test)]
    fn shards_by_gateway(&self) -> Vec<Vec<usize>> {
        let mut owned = vec![Vec::new(); self.gateways];
        for shard in 0..SHARD_COUNT {
            owned[self.gateway_of_shard(shard)].push(shard);
        }
        owned
    }

    /// Partitions `devices` by owning gateway: `result[g]` holds
    /// gateway `g`'s devices in input order.
    pub fn partition(&self, devices: impl IntoIterator<Item = DeviceId>) -> Vec<Vec<DeviceId>> {
        let mut parts = vec![Vec::new(); self.gateways];
        for device in devices {
            parts[self.gateway_of(device)].push(device);
        }
        parts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_shard_has_exactly_one_owner() {
        for gateways in 1..=8 {
            let placement = Placement::new(gateways);
            let owned = placement.shards_by_gateway();
            let total: usize = owned.iter().map(Vec::len).sum();
            assert_eq!(total, SHARD_COUNT);
            for shards in &owned {
                for &shard in shards {
                    assert_eq!(
                        placement.gateway_of_shard(shard),
                        owned.iter().position(|s| s.contains(&shard)).unwrap()
                    );
                }
            }
        }
    }

    #[test]
    fn devices_of_a_shard_colocate() {
        let placement = Placement::new(4);
        for device in 0u64..256 {
            let twin = device + SHARD_COUNT as u64;
            assert_eq!(placement.gateway_of(device), placement.gateway_of(twin));
        }
    }

    #[test]
    fn single_gateway_owns_everything() {
        let placement = Placement::new(1);
        for shard in 0..SHARD_COUNT {
            assert_eq!(placement.gateway_of_shard(shard), 0);
        }
    }
}
