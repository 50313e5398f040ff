//! Differential test: the link-series store — one sorted run of non-zero
//! buckets per series — against the dense `Vec<LinkBucket>` code two
//! stores back, kept here as the oracle (the test names still say
//! "chunked": they are the tier-1 floor's names for these checks).
//!
//! A seeded stream of 50,000 hops and 5,000 injections on 64 nodes goes
//! through both; the `to_json()` bytes and the hotspot ranking must be
//! identical, clamp and occupancy cap included. A second, hand-placed
//! stream writes behind a link's tail bucket: onto buckets the run holds,
//! between them, and before the first.

use std::fmt::Write as _;

use xt3_sim::{SimRng, SimTime};
use xt3_telemetry::{Component, Occupancy, SeriesConfig, SeriesSet};

/// The replaced implementation: one dense bucket vector per link, grown
/// with `resize` to the highest bucket touched.
mod dense {
    use super::*;

    #[derive(Clone, Copy, Default)]
    struct Bucket {
        busy_ps: u64,
        queued_ps: u64,
        stall_ps: u64,
        msgs: u64,
        packets: u64,
    }

    #[derive(Default)]
    struct Link {
        buckets: Vec<Bucket>,
        occupancy: Vec<Occupancy>,
        occ_dropped: u64,
        total_stall_ps: u64,
        total_busy_ps: u64,
        msgs: u64,
        packets: u64,
    }

    #[derive(Default)]
    struct Node {
        links: [Link; 6],
        inject: Vec<(u64, u64)>,
    }

    pub struct Set {
        cfg: SeriesConfig,
        nodes: Vec<Option<Node>>,
    }

    fn spread(
        buckets: &mut Vec<Bucket>,
        width_ps: u64,
        max: usize,
        from: u64,
        to: u64,
        mut add: impl FnMut(&mut Bucket, u64),
    ) {
        if to <= from || max == 0 {
            return;
        }
        let mut cur = from;
        while cur < to {
            let idx = (cur / width_ps) as usize;
            if idx >= max {
                if buckets.len() < max {
                    buckets.resize(max, Bucket::default());
                }
                add(&mut buckets[max - 1], to - cur);
                return;
            }
            let end = to.min((idx as u64 + 1) * width_ps);
            if buckets.len() <= idx {
                buckets.resize(idx + 1, Bucket::default());
            }
            add(&mut buckets[idx], end - cur);
            cur = end;
        }
    }

    impl Set {
        pub fn new(nodes: usize, cfg: SeriesConfig) -> Self {
            Set {
                cfg,
                nodes: (0..nodes).map(|_| None).collect(),
            }
        }

        /// The bucket clamp; a series cannot have no bucket, so 0 means 1
        /// (the replaced code counted messages in bucket 0 and spread no
        /// time at all under a zero clamp).
        fn max_buckets(&self) -> usize {
            (self.cfg.max_buckets as usize).max(1)
        }

        pub fn record_inject(&mut self, node: u32, at: SimTime, bytes: u64) {
            let width = self.cfg.bucket.ps().max(1);
            let max = self.max_buckets();
            let idx = ((at.ps() / width) as usize).min(max.saturating_sub(1));
            let inject = &mut self.nodes[node as usize]
                .get_or_insert_with(Node::default)
                .inject;
            if inject.len() <= idx {
                inject.resize(idx + 1, (0, 0));
            }
            inject[idx].0 += 1;
            inject[idx].1 += bytes;
        }

        pub fn record_hop(&mut self, node: u32, port: u8, occ: Occupancy, packets: u64) {
            let width = self.cfg.bucket.ps().max(1);
            let max = self.max_buckets();
            let occ_cap = self.cfg.occupancy_cap as usize;
            let lanes = self.nodes[node as usize].get_or_insert_with(Node::default);
            let link = &mut lanes.links[port as usize];
            let stall = occ.start.saturating_sub(occ.arrival).ps();
            let arrive = ((occ.arrival.ps() / width) as usize).min(max.saturating_sub(1));
            if link.buckets.len() <= arrive {
                link.buckets.resize(arrive + 1, Bucket::default());
            }
            let b = &mut link.buckets[arrive];
            b.stall_ps += stall;
            b.msgs += 1;
            b.packets += packets;
            let (arrival, start, done) = (occ.arrival.ps(), occ.start.ps(), occ.done.ps());
            spread(&mut link.buckets, width, max, arrival, start, |b, ps| {
                b.queued_ps += ps
            });
            spread(&mut link.buckets, width, max, start, done, |b, ps| {
                b.busy_ps += ps
            });
            link.total_stall_ps += stall;
            link.total_busy_ps += occ.done.saturating_sub(occ.start).ps();
            link.msgs += 1;
            link.packets += packets;
            if link.occupancy.len() < occ_cap {
                link.occupancy.push(occ);
            } else {
                link.occ_dropped += 1;
            }
        }

        /// `(stall, busy, msgs, node, port)` of the `k` worst links.
        pub fn hotspots(&self, k: usize) -> Vec<(u64, u64, u64, u32, u8)> {
            let mut all = Vec::new();
            for (node, lanes) in self.nodes.iter().enumerate() {
                let Some(lanes) = lanes else { continue };
                for (port, l) in lanes.links.iter().enumerate() {
                    if l.msgs != 0 {
                        all.push((
                            l.total_stall_ps,
                            l.total_busy_ps,
                            l.msgs,
                            node as u32,
                            port as u8,
                        ));
                    }
                }
            }
            all.sort_by_key(|h| (std::cmp::Reverse(h.0), h.3, h.4));
            all.truncate(k);
            all
        }

        pub fn to_json(&self) -> String {
            let mut out = String::new();
            let _ = write!(
                out,
                "{{\"bucket_ps\":{},\"max_buckets\":{},\"nodes\":[",
                self.cfg.bucket.ps(),
                self.cfg.max_buckets
            );
            let mut first_node = true;
            for (node, lanes) in self.nodes.iter().enumerate() {
                let Some(lanes) = lanes else { continue };
                if !first_node {
                    out.push(',');
                }
                first_node = false;
                let _ = write!(out, "{{\"node\":{node},\"inject\":[");
                let mut first = true;
                for (idx, &(msgs, bytes)) in lanes.inject.iter().enumerate() {
                    if msgs == 0 && bytes == 0 {
                        continue;
                    }
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    let _ = write!(out, "[{idx},{msgs},{bytes}]");
                }
                out.push_str("],\"links\":[");
                let mut first_link = true;
                for (port, l) in lanes.links.iter().enumerate() {
                    if l.msgs == 0 {
                        continue;
                    }
                    if !first_link {
                        out.push(',');
                    }
                    first_link = false;
                    let _ = write!(
                        out,
                        "{{\"port\":{},\"name\":\"{}\",\"msgs\":{},\"packets\":{},\"stall_ps\":{},\"busy_ps\":{},\"occ_dropped\":{},\"buckets\":[",
                        port,
                        Component::Link(port as u8).track_name(),
                        l.msgs,
                        l.packets,
                        l.total_stall_ps,
                        l.total_busy_ps,
                        l.occ_dropped,
                    );
                    let mut first_bucket = true;
                    for (idx, b) in l.buckets.iter().enumerate() {
                        if b.busy_ps == 0
                            && b.queued_ps == 0
                            && b.stall_ps == 0
                            && b.msgs == 0
                            && b.packets == 0
                        {
                            continue;
                        }
                        if !first_bucket {
                            out.push(',');
                        }
                        first_bucket = false;
                        let _ = write!(
                            out,
                            "[{},{},{},{},{},{}]",
                            idx, b.busy_ps, b.queued_ps, b.stall_ps, b.msgs, b.packets
                        );
                    }
                    out.push_str("]}");
                }
                out.push_str("]}");
            }
            out.push_str("]}");
            out
        }

        /// A link's stored occupancy entries.
        pub fn occupancy(&self, node: u32, port: u8) -> &[Occupancy] {
            self.nodes[node as usize]
                .as_ref()
                .map_or(&[], |lanes| &lanes.links[port as usize].occupancy)
        }

        /// Every link's dense bucket rows, for the accessor comparison.
        pub fn dense_rows(&self, node: u32, port: u8) -> Vec<[u64; 5]> {
            let Some(lanes) = &self.nodes[node as usize] else {
                return Vec::new();
            };
            let buckets = lanes.links[port as usize].buckets.iter();
            buckets
                .map(|b| [b.busy_ps, b.queued_ps, b.stall_ps, b.msgs, b.packets])
                .collect()
        }
    }
}

const NODES: u32 = 64;

/// Drive both stores with one seeded stream: time mostly advances, a hop
/// sometimes arrives in the past, waits run from nothing to hundreds of
/// buckets, and the tail of the stream runs past the bucket clamp.
fn drive(seed: u64, cfg: SeriesConfig) -> (SeriesSet, dense::Set) {
    let mut rng = SimRng::new(seed);
    let mut new = SeriesSet::new(NODES as usize, cfg);
    let mut old = dense::Set::new(NODES as usize, cfg);
    let width = cfg.bucket.ps();
    let mut now = 0u64;
    for i in 0..50_000u64 {
        now += rng.below(width / 4 + 1);
        let arrival = now.saturating_sub(rng.below(3) * rng.below(2 * width));
        let wait = match rng.below(8) {
            0..=3 => 0,
            4..=6 => rng.below(3 * width),
            _ => rng.below(400 * width),
        };
        let occ = Occupancy {
            tag: i + 1,
            arrival: SimTime::from_ps(arrival),
            start: SimTime::from_ps(arrival + wait),
            done: SimTime::from_ps(arrival + wait + rng.below(2 * width)),
        };
        // A third of the nodes and half the ports carry most of the load.
        let node = (rng.below(u64::from(NODES)) / (1 + rng.below(3))) as u32;
        let port = (rng.below(6) / (1 + rng.below(2))) as u8;
        let packets = 1 + rng.below(65);
        new.record_hop(node, port, occ, packets);
        old.record_hop(node, port, occ, packets);
        if i % 10 == 0 {
            let bytes = rng.below(1 << 16);
            new.record_inject(node, occ.arrival, bytes);
            old.record_inject(node, occ.arrival, bytes);
        }
    }
    (new, old)
}

fn assert_same(new: &SeriesSet, old: &dense::Set) {
    assert_eq!(new.to_json(), old.to_json());
    let hot: Vec<_> = new
        .hotspots(16)
        .iter()
        .map(|h| (h.stall.ps(), h.busy.ps(), h.msgs, h.node, h.port))
        .collect();
    assert_eq!(hot, old.hotspots(16));
    for node in 0..NODES {
        for port in 0..6u8 {
            let rows: Vec<[u64; 5]> = new.link(node, port).map_or_else(Vec::new, |l| {
                l.buckets()
                    .map(|b| [b.busy_ps, b.queued_ps, b.stall_ps, b.msgs, b.packets])
                    .collect()
            });
            assert_eq!(rows, old.dense_rows(node, port), "node {node} port {port}");
            let occ: Vec<Occupancy> = new
                .link(node, port)
                .map_or_else(Vec::new, |l| l.occupancy().iter().collect());
            assert_eq!(occ, old.occupancy(node, port), "node {node} port {port}");
        }
    }
}

#[test]
fn writes_behind_the_tail_match_the_dense_store() {
    let cfg = SeriesConfig {
        bucket: SimTime::from_us(1),
        max_buckets: 64,
        occupancy_cap: 4,
    };
    let mut new = SeriesSet::new(NODES as usize, cfg);
    let mut old = dense::Set::new(NODES as usize, cfg);
    let us = SimTime::from_us;
    // (arrival, start, done) in µs = bucket numbers. The first transit
    // puts the tail at bucket 40 with 10..=40 held; the rest land behind
    // it: on held buckets, in the gap below them, before everything,
    // bridging the gap, and — once a transit in the clamped last bucket
    // has left a hole below the tail — on a held bucket that is not where
    // an unbroken run would have it.
    let hops = [
        (10, 30, 41),
        (20, 20, 21),
        (5, 5, 6),
        (0, 0, 1),
        (3, 8, 12),
        (63, 70, 90),
        (39, 40, 41),
        (2, 2, 3),
    ];
    for (i, &(arrival, start, done)) in hops.iter().enumerate() {
        let occ = Occupancy {
            tag: i as u64 + 1,
            arrival: us(arrival),
            start: us(start),
            done: us(done),
        };
        new.record_hop(7, 2, occ, 3);
        old.record_hop(7, 2, occ, 3);
        new.record_inject(7, us(arrival), 512);
        old.record_inject(7, us(arrival), 512);
        assert_same(&new, &old);
    }
    let held: Vec<u64> = old
        .dense_rows(7, 2)
        .iter()
        .map(|row| row.iter().sum())
        .collect();
    assert_eq!(held[1], 0, "bucket 1 stays a hole in the run");
    assert_eq!(held.len(), 64, "the last transit ran into the clamp");
}

#[test]
fn chunked_store_matches_dense_store() {
    let (new, old) = drive(0x5E21E5, SeriesConfig::default());
    assert_same(&new, &old);
    assert!(new.hotspots(16).len() == 16);
}

#[test]
fn chunked_store_matches_dense_store_past_the_clamp() {
    // 50k hops cover ~6,000 bucket widths: with 512 buckets most of the
    // stream piles into the final one.
    let cfg = SeriesConfig {
        bucket: SimTime::from_ns(700),
        max_buckets: 512,
        occupancy_cap: 5,
    };
    let (new, old) = drive(0xC1A4B, cfg);
    assert_same(&new, &old);
    // A single-bucket clamp and a zero-bucket one.
    for max_buckets in [1, 0] {
        let cfg = SeriesConfig { max_buckets, ..cfg };
        let (new, old) = drive(7, cfg);
        assert_same(&new, &old);
    }
}

#[test]
fn bucket_fields_past_u32_max_match_the_dense_store() {
    // A bucket keeps each field's low 32 bits and carries the rest to a
    // side table. 10 ms buckets hold 2.3 x u32::MAX ps, so single waits,
    // stalls and transits cross it inside one bucket, and sums of short
    // ones cross it over many hops; the clamp bucket gathers whatever
    // runs past 8 buckets. Packet and byte counts cross it in one write.
    // An occupancy entry keeps its wait and transit the same way, so the
    // logs hold waits and transits of 2^32 ps and more, and a few that
    // start before they arrive or end before they start.
    let cfg = SeriesConfig {
        bucket: SimTime::from_ms(10),
        max_buckets: 8,
        occupancy_cap: 40,
    };
    let two_32 = 1u64 << 32;
    let spans = [
        0,
        1,
        two_32 - 1,
        two_32,
        two_32 + 1,
        3 * two_32,
        40 * two_32,
    ];
    let mut rng = SimRng::new(0xB16B);
    let mut new = SeriesSet::new(NODES as usize, cfg);
    let mut old = dense::Set::new(NODES as usize, cfg);
    let width = cfg.bucket.ps();
    for i in 0..4_000u64 {
        // Arrivals over 12 bucket widths: the last third is clamped.
        let arrival = rng.below(12 * width);
        let pick = |rng: &mut SimRng| match rng.below(3) {
            0 => spans[rng.below(7) as usize],
            _ => rng.below(width / 8),
        };
        let (wait, transit) = (pick(&mut rng), pick(&mut rng));
        let start = match rng.below(16) {
            0 => arrival.saturating_sub(wait),
            _ => arrival + wait,
        };
        let done = match rng.below(16) {
            0 => start.saturating_sub(transit),
            _ => start + transit,
        };
        let occ = Occupancy {
            tag: i + 1,
            arrival: SimTime::from_ps(arrival),
            start: SimTime::from_ps(start),
            done: SimTime::from_ps(done),
        };
        let node = rng.below(4) as u32;
        let port = rng.below(6) as u8;
        let packets = pick(&mut rng);
        new.record_hop(node, port, occ, packets);
        old.record_hop(node, port, occ, packets);
        let bytes = pick(&mut rng);
        new.record_inject(node, occ.arrival, bytes);
        old.record_inject(node, occ.arrival, bytes);
    }
    assert_same(&new, &old);
    // The stream did cross: some bucket holds each field past u32::MAX
    // (but `msgs`, one a hop), the clamp bucket among them.
    let wide = |rows: Vec<[u64; 5]>, field: usize| {
        rows.iter()
            .filter(|r| r[field] > u64::from(u32::MAX))
            .count()
    };
    for field in [0, 1, 2, 4] {
        let crossed: usize = (0..4)
            .flat_map(|n| (0..6).map(move |p| (n, p)))
            .map(|(n, p)| wide(old.dense_rows(n, p), field))
            .sum();
        assert!(crossed > 0, "no bucket's field {field} passed u32::MAX");
    }
    let logged: Vec<Occupancy> = (0..4)
        .flat_map(|n| (0..6).map(move |p| (n, p)))
        .flat_map(|(n, p)| old.occupancy(n, p).to_vec())
        .collect();
    let wide_wait =
        |o: &&Occupancy| o.start.ps().wrapping_sub(o.arrival.ps()) > u64::from(u32::MAX);
    assert!(
        logged.iter().any(|o| wide_wait(&o)),
        "no logged wait past u32::MAX"
    );
    assert!(
        logged.iter().any(|o| o.start < o.arrival),
        "no start before arrival"
    );
    assert!(
        logged.iter().any(|o| o.done < o.start),
        "no end before start"
    );
    let clamp = old.dense_rows(0, 0);
    assert_eq!(clamp.len(), 8);
    assert!(clamp[7][0] > u64::from(u32::MAX), "clamp busy");
    let bytes: Vec<u64> = new
        .node(0)
        .unwrap()
        .inject()
        .buckets()
        .map(|b| b.bytes)
        .collect();
    assert!(bytes.iter().any(|&b| b > u64::from(u32::MAX)));
}
