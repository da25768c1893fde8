//! Seeded input generators. Everything a workload feeds the engine —
//! rows, ids, names, scores, lookup keys, insert batches — comes from
//! here, so the same `--seed` gives the same inputs and a different one
//! reshuffles them.
//!
//! Sizes and value *multisets* are fixed; the seed only permutes which
//! row gets which value. That keeps the work per op (rows a pushed-down
//! filter returns, answer sizes) the same from seed to seed, so a
//! spread across seeds measures the host, not the data.

/// SplitMix64: small, std-only, good enough to shuffle with.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// A seeded permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<u32> {
        let mut p: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            let j = self.below(i as u64 + 1) as usize;
            p.swap(i, j);
        }
        p
    }
}

pub const REGIONS: [&str; 4] = ["NW", "SW", "NE", "SE"];

#[derive(Clone)]
pub struct Customer {
    pub id: u32,
    pub name: String,
    pub region: &'static str,
}

#[derive(Clone)]
pub struct Order {
    pub oid: u32,
    pub cust: u32,
    /// `total` is stored as FLOAT `half / 2`, as `customer_fixture` does.
    pub half: u32,
}

impl Order {
    pub fn total(&self) -> f64 {
        f64::from(self.half) / 2.0
    }
}

#[derive(Clone)]
pub struct Ticket {
    pub tid: u32,
    pub cust: u32,
    pub severity: u32,
}

/// `customer_fixture`-shaped data: crm.customers (n), billing.orders
/// (3 per customer), support.tickets (one per 5 customers), and the
/// press.releases XML feed (one item per 10 customers).
#[derive(Clone)]
pub struct CustomerData {
    pub customers: Vec<Customer>,
    pub orders: Vec<Order>,
    pub tickets: Vec<Ticket>,
    /// Next free order id, for insert batches.
    pub next_oid: u32,
}

impl CustomerData {
    pub fn generate(seed: u64, n: usize) -> CustomerData {
        let mut rng = Rng::new(seed);
        let tags = rng.permutation(n);
        let regions = rng.permutation(n);
        let customers = (0..n)
            .map(|i| Customer {
                id: i as u32,
                // The seeded tag leads the name, so ORDER-BY $n sorts
                // differently under every seed.
                name: format!("cust-{:05}-{}", tags[i], i),
                region: REGIONS[regions[i] as usize % REGIONS.len()],
            })
            .collect();
        let halves = rng.permutation(n * 3);
        let orders = (0..n * 3)
            .map(|j| Order {
                oid: j as u32,
                cust: (j / 3) as u32,
                half: halves[j] % 1000,
            })
            .collect();
        let tn = n / 5;
        let sev = rng.permutation(tn);
        let tickets = (0..tn)
            .map(|m| Ticket {
                tid: m as u32,
                cust: (m * 5) as u32 + rng.below(5) as u32,
                severity: sev[m] % 3 + 1,
            })
            .collect();
        CustomerData {
            customers,
            orders,
            tickets,
            next_oid: (n * 3) as u32,
        }
    }

    /// The three relational sources as DDL + batched INSERT statements,
    /// in `customer_fixture`'s shape (same tables, same indexes).
    pub fn statements(&self) -> [(&'static str, Vec<String>); 3] {
        let mut crm = vec![
            "CREATE TABLE customers (id INT, name TEXT, region TEXT)".to_string(),
            "CREATE INDEX ON customers (id) USING HASH".to_string(),
        ];
        batched(
            &mut crm,
            "customers",
            self.customers
                .iter()
                .map(|c| format!("({}, '{}', '{}')", c.id, c.name, c.region)),
        );
        let mut billing = vec![
            "CREATE TABLE orders (oid INT, cust_id INT, total FLOAT)".to_string(),
            "CREATE INDEX ON orders (cust_id) USING HASH".to_string(),
            "CREATE INDEX ON orders (total)".to_string(),
            "CREATE INDEX ON orders (oid) USING HASH".to_string(),
        ];
        batched(&mut billing, "orders", self.orders.iter().map(order_values));
        let mut support = vec![
            "CREATE TABLE tickets (tid INT, cust_id INT, severity INT)".to_string(),
            "CREATE INDEX ON tickets (tid) USING HASH".to_string(),
        ];
        batched(
            &mut support,
            "tickets",
            self.tickets
                .iter()
                .map(|t| format!("({}, {}, {})", t.tid, t.cust, t.severity)),
        );
        [("crm", crm), ("billing", billing), ("support", support)]
    }

    /// The press feed, one item per 10th customer.
    pub fn press_xml(&self) -> String {
        let mut xml = String::from("<releases>");
        for c in self.customers.iter().step_by(10) {
            xml.push_str(&format!(
                "<item><company>{}</company><h>headline {}</h></item>",
                c.name, c.id
            ));
        }
        xml.push_str("</releases>");
        xml
    }

    /// The next `n` orders of an insert batch (seeded customers and
    /// totals), appended to `self.orders`.
    pub fn insert_batch(&mut self, rng: &mut Rng, n: usize) -> Vec<Order> {
        let customers = self.customers.len() as u64;
        let batch: Vec<Order> = (0..n)
            .map(|k| Order {
                oid: self.next_oid + k as u32,
                cust: rng.below(customers) as u32,
                half: rng.below(1000) as u32,
            })
            .collect();
        self.next_oid += n as u32;
        self.orders.extend(batch.iter().cloned());
        batch
    }
}

pub fn order_values(o: &Order) -> String {
    format!("({}, {}, {:?})", o.oid, o.cust, o.total())
}

fn batched(stmts: &mut Vec<String>, table: &str, rows: impl Iterator<Item = String>) {
    let mut values: Vec<String> = Vec::with_capacity(500);
    for row in rows {
        values.push(row);
        if values.len() == 500 {
            stmts.push(format!(
                "INSERT INTO {} VALUES {}",
                table,
                values.join(", ")
            ));
            values.clear();
        }
    }
    if !values.is_empty() {
        stmts.push(format!(
            "INSERT INTO {} VALUES {}",
            table,
            values.join(", ")
        ));
    }
}

pub struct FeedItem {
    pub id: u32,
    pub cat: u32,
    pub score: u32,
    pub title: String,
}

/// The native XML feed of `xml_scan`. Scores are three digits wide so
/// the engine's lexical ORDER-BY over XML text and the reference's
/// numeric sort agree; each score value occurs equally often, so the
/// share surviving `$s > 300` is the same under every seed.
pub fn feed(seed: u64, n: usize) -> Vec<FeedItem> {
    let mut rng = Rng::new(seed ^ 0xfeed);
    let ids = rng.permutation(n);
    let scores = rng.permutation(n);
    (0..n)
        .map(|j| FeedItem {
            id: 100_000 + ids[j],
            cat: (rng.below(16)) as u32,
            score: 100 + scores[j] % 800,
            title: format!("release {:016x} item {:05} of the wire", rng.next_u64(), j),
        })
        .collect()
}

pub fn feed_xml(items: &[FeedItem]) -> String {
    let mut xml = String::with_capacity(items.len() * 140);
    xml.push_str("<feed>");
    for it in items {
        xml.push_str(&format!(
            "<item id=\"{}\" cat=\"c{}\"><meta><score>{}</score><lang>en</lang></meta><title>{}</title></item>",
            it.id, it.cat, it.score, it.title
        ));
    }
    xml.push_str("</feed>");
    xml
}

/// `shard_fanout`'s collections, E17-shaped: `events` rows carry
/// `key = j % keys` and a seeded permutation of `0..rows` as `val`;
/// `dims` has one seeded name per key.
pub struct ShardData {
    pub vals: Vec<u32>,
    pub dim_names: Vec<String>,
}

pub const SHARD_KEYS: usize = 1000;

impl ShardData {
    pub fn generate(seed: u64, rows: usize) -> ShardData {
        let mut rng = Rng::new(seed ^ 0x5a4d);
        let vals = rng.permutation(rows);
        let dim_names = (0..SHARD_KEYS)
            .map(|k| format!("dim{}-{:04x}", k, rng.below(0x1_0000)))
            .collect();
        ShardData { vals, dim_names }
    }

    pub fn key_of(j: usize) -> u32 {
        (j % SHARD_KEYS) as u32
    }
}
