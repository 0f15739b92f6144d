//! Seeded request generator: a Zipf sampler over the crawled entity ids,
//! the per-workload class mixes, and the fixed aggregate and SQL panels.
//!
//! Everything the system under test sees comes from here and from the
//! seed: the id pools are read back from the crawled store (never from
//! the simulator's ground truth), shuffled by the seed, and ranked; the
//! same seed replays the same target sequence, which the envelope records
//! as a digest.

use crowdnet_json::Value;
use crowdnet_store::{SnapshotId, Store, StoreError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub const NS_USERS: &str = "angellist/users";
pub const NS_COMPANIES: &str = "angellist/companies";

/// Request class: what the latency of a request is reported under.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Class {
    /// One entity or its neighbours: `/entity/..`, `/investor/<id>/..`,
    /// `/company/<id>/investors`.
    Point,
    /// Whole-graph answers from the fixed aggregate panel.
    Aggregate,
    /// One of eight fixed SQL queries (cacheable).
    SqlPanel,
    /// SQL with a predicate no earlier request used: always a full scan.
    SqlAdhoc,
}

impl Class {
    pub const ALL: [Class; 4] = [
        Class::Point,
        Class::Aggregate,
        Class::SqlPanel,
        Class::SqlAdhoc,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Point => "request.point",
            Class::Aggregate => "request.aggregate",
            Class::SqlPanel => "request.sql_panel",
            Class::SqlAdhoc => "request.sql_adhoc",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// Class shares (relative weights, per-mille where a mix is whole), in
/// `Class::ALL` order, and whether every target carries a unique nonce
/// (which defeats the result cache).
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    pub per_mille: [u32; 4],
    pub nonce: bool,
}

impl Mix {
    /// The explorer's common case: 90 % point lookups, 7 % aggregates,
    /// 2 % panel SQL, 1 % ad-hoc SQL; repeated keys hit the cache.
    pub const SERVE_MIXED: Mix = Mix {
        per_mille: [900, 70, 20, 10],
        nonce: false,
    };
    /// Cache-hostile fan-out, every target unique: point lookups and
    /// all-shard legs 2 : 1 …
    pub const SCATTER_LOOKUPS: Mix = Mix {
        per_mille: [600, 300, 0, 0],
        nonce: true,
    };
    /// … and ad-hoc SQL (bulk `scan_partitions` legs), as a sub-phase of
    /// its own.
    pub const SCATTER_SCANS: Mix = Mix {
        per_mille: [0, 0, 0, 100],
        nonce: true,
    };
    /// The serve_mixed point + aggregate mix with the SQL classes left
    /// out (90 : 7): the reader beside a writer.
    pub const READ_ONLY: Mix = Mix {
        per_mille: [928, 72, 0, 0],
        nonce: false,
    };

    /// One deck of requests holding every class in exactly the table's
    /// proportions (the smallest such deck). Clients draw decks shuffled,
    /// one after another: the order is seeded, the shares are not left to
    /// chance — with 1 % of requests costing a thousand times the rest,
    /// binomial noise in their count would be the noise of every
    /// throughput number.
    fn deck(&self) -> Vec<Class> {
        fn gcd(a: u32, b: u32) -> u32 {
            if b == 0 {
                a
            } else {
                gcd(b, a % b)
            }
        }
        let unit = self
            .per_mille
            .iter()
            .fold(0, |acc, &share| gcd(acc, share))
            .max(1);
        Class::ALL
            .into_iter()
            .zip(self.per_mille)
            .flat_map(|(class, share)| std::iter::repeat_n(class, (share / unit) as usize))
            .collect()
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

/// Aggregate panel. `/communities/<i>` exists once CoDA found more than
/// `i` communities, which every scale the benchmark runs at does; the
/// deployment checks each panel target answers 200 before measuring.
pub const AGGREGATE_PANEL: [&str; 7] = [
    "/communities",
    "/communities/0",
    "/communities/1",
    "/top/investors?by=degree",
    "/top/investors?by=pagerank",
    "/top/investors?by=degree&k=50",
    "/stats",
];

/// The all-shard legs of scatter_remote (`/top/investors`, `/stats`).
pub const SCATTER_PANEL: [&str; 3] = [
    "/top/investors?by=degree",
    "/top/investors?by=pagerank",
    "/stats",
];

/// SQL panel: `(namespace, query)`.
pub const SQL_PANEL: [(&str, &str); 8] = [
    (
        NS_USERS,
        "SELECT role, COUNT(*) AS n FROM docs GROUP BY role",
    ),
    (
        NS_USERS,
        "SELECT role, AVG(follow_count) AS f FROM docs GROUP BY role ORDER BY f DESC",
    ),
    (
        NS_USERS,
        "SELECT COUNT(*) AS n FROM docs WHERE role = 'investor'",
    ),
    (NS_USERS, "SELECT MAX(follow_count) AS m FROM docs"),
    (
        NS_COMPANIES,
        "SELECT raising, COUNT(*) AS n FROM docs GROUP BY raising",
    ),
    (
        NS_COMPANIES,
        "SELECT COUNT(*) AS n FROM docs WHERE facebook_url IS NOT NULL",
    ),
    (
        NS_COMPANIES,
        "SELECT AVG(follower_count) AS f FROM docs WHERE raising = true",
    ),
    (
        NS_COMPANIES,
        "SELECT id, follower_count FROM docs ORDER BY follower_count DESC LIMIT 10",
    ),
];

/// Percent-encode one query-string value (`+` for space).
pub fn encode_component(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len() + 8);
    for b in raw.bytes() {
        match b {
            b'A'..=b'Z'
            | b'a'..=b'z'
            | b'0'..=b'9'
            | b'-'
            | b'_'
            | b'.'
            | b'~'
            | b'*'
            | b'('
            | b')'
            | b',' => out.push(b as char),
            b' ' => out.push('+'),
            other => out.push_str(&format!("%{other:02X}")),
        }
    }
    out
}

pub fn sql_target(ns: &str, query: &str) -> String {
    format!(
        "/sql?ns={}&q={}",
        encode_component(ns),
        encode_component(query)
    )
}

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.random();
        self.cdf
            .partition_point(|&c| c < u)
            .min(self.cdf.len().saturating_sub(1))
    }
}

/// One crawled entity and which point endpoints exist for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Entity {
    pub is_user: bool,
    pub id: u32,
    /// A user with `role == "investor"` and at least one investment, or a
    /// company at least one such investor holds: the neighbour endpoints
    /// answer 200 for it.
    pub in_graph: bool,
}

/// Id pools read from the crawled store, in seeded popularity order.
pub struct Pools {
    /// Every crawled user and company, most popular first.
    pub ranked: Vec<Entity>,
    /// Investors with a non-empty portfolio, ascending id.
    pub investors: Vec<u32>,
    /// Companies that appear in some investor's portfolio, ascending id.
    pub invested_companies: Vec<u32>,
    pub users: usize,
    pub companies: usize,
}

fn key_id(key: &str) -> Option<u32> {
    key.split_once(':').and_then(|(_, id)| id.parse().ok())
}

impl Pools {
    /// Scan the two AngelList namespaces of `store`. The investor rule is
    /// the serving tier's own (`role == "investor"`, `investments` as
    /// edges), so every generated neighbour lookup has an answer.
    pub fn from_store(store: &Store, seed: u64) -> Result<Pools, StoreError> {
        let mut investors = Vec::new();
        let mut invested: std::collections::BTreeSet<u32> = Default::default();
        let mut user_ids = Vec::new();
        for doc in store.scan_snapshot(NS_USERS, SnapshotId(0))? {
            let Some(id) = key_id(&doc.key) else { continue };
            user_ids.push(id);
            if doc.body.get("role").and_then(Value::as_str) != Some("investor") {
                continue;
            }
            let companies: Vec<u32> = doc
                .body
                .get("investments")
                .and_then(Value::as_arr)
                .map(|arr| {
                    arr.iter()
                        .filter_map(Value::as_u64)
                        .map(|c| c as u32)
                        .collect()
                })
                .unwrap_or_default();
            if !companies.is_empty() {
                investors.push(id);
                invested.extend(companies);
            }
        }
        let company_ids: Vec<u32> = store
            .scan_snapshot(NS_COMPANIES, SnapshotId(0))?
            .iter()
            .filter_map(|doc| key_id(&doc.key))
            .collect();
        investors.sort_unstable();
        investors.dedup();
        let mut ranked: Vec<Entity> = user_ids
            .iter()
            .map(|&id| Entity {
                is_user: true,
                id,
                in_graph: investors.binary_search(&id).is_ok(),
            })
            .chain(company_ids.iter().map(|&id| Entity {
                is_user: false,
                id,
                in_graph: invested.contains(&id),
            }))
            .collect();
        // Canonical order first, so the shuffle depends on the seed alone
        // and not on the store's scan order.
        ranked.sort_unstable();
        ranked.dedup();
        shuffle(
            &mut ranked,
            &mut StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15),
        );
        Ok(Pools {
            ranked,
            investors,
            invested_companies: invested.into_iter().collect(),
            users: user_ids.len(),
            companies: company_ids.len(),
        })
    }
}

/// The target sequence of one load-generator client.
pub struct TargetGen<'a> {
    pools: &'a Pools,
    zipf: &'a Zipf,
    mix: Mix,
    /// The current deck of classes; drawn from the back, redealt when empty.
    deck: Vec<Class>,
    aggregates: &'static [&'static str],
    rng: StdRng,
    client: u64,
    issued: u64,
}

impl<'a> TargetGen<'a> {
    pub fn new(
        pools: &'a Pools,
        zipf: &'a Zipf,
        mix: Mix,
        aggregates: &'static [&'static str],
        seed: u64,
        client: usize,
    ) -> TargetGen<'a> {
        debug_assert!(
            client < 1024,
            "client index {client} does not fit the nonce"
        );
        let stream = seed.wrapping_mul(0x2545_f491_4f6c_dd1d)
            ^ (client as u64 + 1).wrapping_mul(0xd6e8_feb8_6659_fd93);
        TargetGen {
            pools,
            zipf,
            mix,
            deck: Vec::new(),
            aggregates,
            rng: StdRng::seed_from_u64(stream),
            client: client as u64,
            issued: 0,
        }
    }

    /// Id shared by the spans of the request about to be generated.
    pub fn op_id(&self) -> u64 {
        (self.client << 40) | self.issued
    }

    fn point(&mut self) -> String {
        let entity = self.pools.ranked[self.zipf.sample(&mut self.rng)];
        let id = entity.id;
        match (entity.is_user, entity.in_graph) {
            (true, true) => match self.rng.random_range(0..3u32) {
                0 => format!("/entity/user/{id}"),
                1 => format!("/investor/{id}/portfolio"),
                _ => format!("/investor/{id}/communities"),
            },
            (true, false) => format!("/entity/user/{id}"),
            (false, true) if self.rng.random_bool(0.5) => format!("/company/{id}/investors"),
            (false, _) => format!("/entity/company/{id}"),
        }
    }

    /// The next request: its class and target.
    pub fn next_target(&mut self) -> (Class, String) {
        if self.deck.is_empty() {
            self.deck = self.mix.deck();
            shuffle(&mut self.deck, &mut self.rng);
        }
        let class = self.deck.pop().unwrap_or(Class::Point);
        // Client indices stay below 1024 (phases offset them to keep their
        // streams apart), so this is unique across clients and requests.
        let unique = (self.issued << 10) | self.client;
        let mut target = match class {
            Class::Point => self.point(),
            Class::Aggregate => {
                self.aggregates[self.rng.random_range(0..self.aggregates.len())].to_string()
            }
            Class::SqlPanel => {
                let (ns, query) = SQL_PANEL[self.rng.random_range(0..SQL_PANEL.len())];
                sql_target(ns, query)
            }
            // The predicate is unique per request, so no cache can answer.
            Class::SqlAdhoc => sql_target(
                NS_USERS,
                &format!("SELECT COUNT(*) AS n FROM docs WHERE follow_count > {unique}"),
            ),
        };
        if self.mix.nonce {
            let sep = if target.contains('?') { '&' } else { '?' };
            target.push_str(&format!("{sep}nonce={unique}"));
        }
        self.issued += 1;
        (class, target)
    }
}

/// FNV-1a, folded into a running hash.
pub fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of the first `per_client` targets of each of `clients`
/// generators — what "same seed, same inputs" means for a serving run.
pub fn sequence_digest(
    pools: &Pools,
    zipf: &Zipf,
    mix: Mix,
    aggregates: &'static [&'static str],
    seed: u64,
    clients: usize,
    per_client: usize,
) -> u64 {
    let mut hash = FNV_OFFSET;
    for client in 0..clients {
        let mut gen = TargetGen::new(pools, zipf, mix, aggregates, seed, client);
        for _ in 0..per_client {
            let (class, target) = gen.next_target();
            fnv1a(&mut hash, &[class.index() as u8]);
            fnv1a(&mut hash, target.as_bytes());
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdnet_json::obj;
    use crowdnet_store::Document;

    fn store() -> Store {
        let store = Store::memory(2);
        for id in 0..400u32 {
            let investments: Vec<Value> = if id % 5 == 0 {
                vec![Value::from(u64::from(id % 40))]
            } else {
                Vec::new()
            };
            let role = if id % 5 == 0 { "investor" } else { "founder" };
            store
                .put(
                    NS_USERS,
                    Document::new(
                        format!("user:{id}"),
                        obj! {"id" => u64::from(id), "role" => role, "investments" => Value::Arr(investments)},
                    ),
                )
                .unwrap();
        }
        for id in 0..200u32 {
            store
                .put(
                    NS_COMPANIES,
                    Document::new(format!("company:{id}"), obj! {"id" => u64::from(id)}),
                )
                .unwrap();
        }
        store
    }

    #[test]
    fn pools_come_from_the_store_with_the_serving_tiers_investor_rule() {
        let pools = Pools::from_store(&store(), 1).unwrap();
        assert_eq!(pools.users, 400);
        assert_eq!(pools.companies, 200);
        assert_eq!(pools.ranked.len(), 600);
        assert_eq!(pools.investors.len(), 80);
        // 80 investors hold company id % 40 for ids divisible by 5.
        assert_eq!(pools.invested_companies, vec![0, 5, 10, 15, 20, 25, 30, 35]);
        assert!(pools.ranked.iter().filter(|e| e.in_graph).count() == 88);
    }

    #[test]
    fn same_seed_same_digest_and_another_seed_another() {
        let store = store();
        let digest = |seed: u64| {
            let pools = Pools::from_store(&store, seed).unwrap();
            let zipf = Zipf::new(pools.ranked.len(), 1.0);
            sequence_digest(
                &pools,
                &zipf,
                Mix::SERVE_MIXED,
                &AGGREGATE_PANEL,
                seed,
                2,
                2048,
            )
        };
        assert_eq!(digest(42), digest(42));
        assert_ne!(digest(42), digest(43));
    }

    #[test]
    fn class_shares_are_within_one_percent_of_the_table() {
        let pools = Pools::from_store(&store(), 7).unwrap();
        let zipf = Zipf::new(pools.ranked.len(), 1.0);
        for mix in [
            Mix::SERVE_MIXED,
            Mix::SCATTER_LOOKUPS,
            Mix::SCATTER_SCANS,
            Mix::READ_ONLY,
        ] {
            let mut gen = TargetGen::new(&pools, &zipf, mix, &AGGREGATE_PANEL, 7, 0);
            let draws = 200_000;
            let mut seen = [0u32; 4];
            for _ in 0..draws {
                seen[gen.next_target().0.index()] += 1;
            }
            for (count, share) in seen.into_iter().zip(mix.per_mille) {
                let total: u32 = mix.per_mille.iter().sum();
                let got = f64::from(count) / f64::from(draws);
                let want = f64::from(share) / f64::from(total);
                assert!(
                    (got - want).abs() < 0.01,
                    "{mix:?}: class share {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let zipf = Zipf::new(1000, 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        let mut top_ten = 0;
        for _ in 0..20_000 {
            let r = zipf.sample(&mut rng);
            assert!(r < 1000);
            if r < 10 {
                top_ten += 1;
            }
        }
        // H(10)/H(1000) = 0.391.
        assert!((7000..8700).contains(&top_ten), "top-ten draws: {top_ten}");
    }

    #[test]
    fn nonce_mix_never_repeats_a_target_and_adhoc_sql_is_always_unique() {
        let pools = Pools::from_store(&store(), 9).unwrap();
        let zipf = Zipf::new(pools.ranked.len(), 1.0);
        let mut seen = std::collections::HashSet::new();
        for client in 0..2 {
            let mix = if client == 0 {
                Mix::SCATTER_LOOKUPS
            } else {
                Mix::SCATTER_SCANS
            };
            let mut gen = TargetGen::new(&pools, &zipf, mix, &SCATTER_PANEL, 9, client);
            for _ in 0..5_000 {
                assert!(
                    seen.insert(gen.next_target().1),
                    "repeated target under a nonce mix"
                );
            }
        }
        assert_eq!(
            sql_target(
                NS_USERS,
                "SELECT COUNT(*) AS n FROM docs WHERE follow_count > 3"
            ),
            "/sql?ns=angellist%2Fusers&q=SELECT+COUNT(*)+AS+n+FROM+docs+WHERE+follow_count+%3E+3"
        );
    }
}
