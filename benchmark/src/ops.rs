//! Seeded operation streams: what each closed-loop connection sends, in
//! order. A stream is a function of `(seed, connection)` alone.

use er_datagen::rng::SmallRng;
use er_model::fxhash::FxHashSet;

/// One wire operation. Profiles are named by index so a stream stays small
/// and comparable; [`crate::serve`] resolves them before the clock starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `CandidateRequest::entity(id)`.
    Entity(u32),
    /// `CandidateRequest::probe` with probe-pool profile `pool`.
    Probe { pool: u32 },
    /// `Client::upsert(id, ..)` replacing `id`'s profile with a copy of
    /// indexed profile `donor`'s attributes.
    Upsert { id: u32, donor: u32 },
    /// `Client::delete(id)`.
    Delete(u32),
}

impl Op {
    /// Whether the op leaves the index unchanged.
    pub fn is_read(&self) -> bool {
        matches!(self, Op::Entity(_) | Op::Probe { .. })
    }
}

/// The traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Entity queries only.
    Entity,
    /// Probe queries only, cycling through a pool of `pool` profiles.
    Probe { pool: u32 },
    /// 90 % entity queries, 8 % upserts, 2 % deletes.
    Mixed,
}

fn stream_rng(seed: u64, connection: usize) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ (connection as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The `len` ops connection `connection` of `connections` sends against an
/// index of `entities` profiles.
///
/// Reads range over every indexed id. Writes touch only ids in the
/// connection's own residue class (`id % connections == connection`), so
/// every id's op history lies within one ordered stream and the final op
/// set does not depend on how the connections interleave. A delete never
/// names an id its stream already deleted and has not since upserted.
pub fn stream(
    mix: Mix,
    seed: u64,
    connection: usize,
    connections: usize,
    entities: u32,
    len: usize,
) -> Vec<Op> {
    let mut rng = stream_rng(seed, connection);
    let (stride, lane) = (connections as u32, connection as u32);
    // Ids of the lane: lane, lane + stride, ...
    let lane_len = (entities.saturating_sub(lane)).div_ceil(stride) as u64;
    let own = |rng: &mut SmallRng| lane + stride * rng.gen_below(lane_len) as u32;
    let mut deleted: FxHashSet<u32> = FxHashSet::default();
    (0..len)
        .map(|_| {
            let any = rng.gen_below(u64::from(entities)) as u32;
            match mix {
                Mix::Entity => Op::Entity(any),
                Mix::Probe { pool } => Op::Probe { pool: rng.gen_below(u64::from(pool)) as u32 },
                Mix::Mixed => match rng.gen_below(100) {
                    0..=89 => Op::Entity(any),
                    90..=97 => {
                        let id = own(&mut rng);
                        deleted.remove(&id);
                        Op::Upsert { id, donor: any }
                    }
                    _ => {
                        let mut id = own(&mut rng);
                        while !deleted.insert(id) {
                            id = own(&mut rng);
                        }
                        Op::Delete(id)
                    }
                },
            }
        })
        .collect()
}

/// Whether op `index` of `connection`'s stream has its response checked
/// against the in-process engine: a seeded 1 % sample.
pub fn is_checked(seed: u64, connection: usize, index: usize) -> bool {
    let mut z = seed ^ ((connection as u64) << 48) ^ index as u64;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)).is_multiple_of(100)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_a_function_of_seed_and_connection() {
        for mix in [Mix::Entity, Mix::Probe { pool: 64 }, Mix::Mixed] {
            let a = stream(mix, 13, 0, 2, 1000, 500);
            assert_eq!(a, stream(mix, 13, 0, 2, 1000, 500));
            assert_ne!(a, stream(mix, 14, 0, 2, 1000, 500));
            assert_ne!(a, stream(mix, 13, 1, 2, 1000, 500));
        }
    }

    #[test]
    fn writes_stay_in_the_connections_residue_class() {
        for connections in [1, 2, 3, 4] {
            for connection in 0..connections {
                let ops = stream(Mix::Mixed, 7, connection, connections, 1001, 4000);
                let mut dead = FxHashSet::default();
                let mut writes = 0;
                for op in ops {
                    match op {
                        Op::Entity(id) => assert!(id < 1001),
                        Op::Upsert { id, donor } => {
                            assert_eq!(id as usize % connections, connection);
                            assert!(id < 1001 && donor < 1001);
                            dead.remove(&id);
                            writes += 1;
                        }
                        Op::Delete(id) => {
                            assert_eq!(id as usize % connections, connection);
                            assert!(dead.insert(id), "deleted {id} twice without an upsert");
                            writes += 1;
                        }
                        Op::Probe { .. } => panic!("mixed streams carry no probes"),
                    }
                }
                // 10 % of 4000, give or take sampling noise.
                assert!((300..500).contains(&writes), "{writes} writes");
            }
        }
    }

    #[test]
    fn about_one_op_in_a_hundred_is_checked() {
        let hits = (0..100_000).filter(|&i| is_checked(13, 1, i)).count();
        assert!((800..1200).contains(&hits), "{hits}");
        assert_eq!(is_checked(13, 1, 42), is_checked(13, 1, 42));
    }
}
