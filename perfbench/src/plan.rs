//! The workloads: which requests a run sends and when. Everything here is
//! a pure function of the workload, the seed and the run length, so two
//! runs with one seed send the same requests on the same schedule.

use pprox_workload::Dataset;

/// Requests per second offered on `trickle`, over both UA instances.
pub const TRICKLE_RPS: f64 = 20.0;
/// Requests in flight per UA connection on `peak` (64 in total).
pub const PEAK_WINDOW_PER_CONN: usize = 32;
/// Requests prepared per second of `peak` run: well above the rate two
/// cores reach, so the closed window never runs dry.
pub const PEAK_POOL_RPS: f64 = 550.0;
/// Offered rate of both `recommend` phases.
pub const RECOMMEND_RPS: f64 = 100.0;
/// Users, items and ratings of the `recommend` feedback trace.
pub const TRACE_USERS: usize = 300;
/// Items of the `recommend` trace.
pub const TRACE_ITEMS: usize = 250;
/// Ratings (posts) of the `recommend` trace, one round's phase 1.
pub const TRACE_RATINGS: usize = 600;
/// Gets of one `recommend` round's phase 2.
pub const RECOMMEND_GETS: usize = 600;
/// Seed of the `recommend` trace and of its get users. Fixed, not taken
/// from `--seed`: the F1 mismatches depend on which ids the trace holds,
/// and a run must fail the same share of operations whatever its seed.
pub const TRACE_SEED: u64 = 0x7072_6f78_7472_6163;
/// User and item universes of the stub workloads' requests.
const STUB_USERS: u64 = 2000;
const STUB_ITEMS: u64 = 1000;

/// A SplitMix64 stream: small, fast, and the same on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream from `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open loop at 20 req/s: the shuffle timer sets latency.
    Trickle,
    /// Closed window of 64 in flight: crypto sets the rate.
    Peak,
    /// Feedback then queries against a real recommender.
    Recommend,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "trickle" => Some(Workload::Trickle),
            "peak" => Some(Workload::Peak),
            "recommend" => Some(Workload::Recommend),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Trickle => "trickle",
            Workload::Peak => "peak",
            Workload::Recommend => "recommend",
        }
    }
}

/// Operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// A recommendation query.
    Get,
    /// A feedback post.
    Post,
}

impl Kind {
    /// Label used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Get => "get",
            Kind::Post => "post",
        }
    }
}

/// One request of the plan, in plaintext: what the user-side library is
/// asked to send.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// Get or post.
    pub kind: Kind,
    /// Plaintext user id.
    pub user: String,
    /// Plaintext item id (posts only; empty for gets).
    pub item: String,
}

/// When a phase's requests are sent.
#[derive(Debug, Clone, PartialEq)]
pub enum Schedule {
    /// Open loop: request `i` is due `due_us[i]` µs after the phase starts.
    Open(Vec<u64>),
    /// Closed loop: this many requests in flight per connection, a new
    /// one sent as each answer is opened, until the phase length passes.
    Closed(usize),
}

/// One stretch of traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Requests, in sending order.
    pub ops: Vec<Op>,
    /// Their timing.
    pub schedule: Schedule,
    /// Length of the phase's timed window.
    pub length_us: u64,
}

/// The whole run: phases in order. On `recommend` the phases alternate
/// posts and gets, one pair per round; the LRS starts empty before each
/// round's posts and is synced after them.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Phases in order.
    pub phases: Vec<Phase>,
}

/// `n` arrival times of a Poisson process of rate `n / length` seen over
/// `[0, length)`: given the count, the arrivals are uniform order
/// statistics. Fixing the count keeps the offered load of every run the
/// same while the gaps stay exponential.
pub fn poisson_schedule(rng: &mut Rng, n: usize, length_us: u64) -> Vec<u64> {
    let mut due: Vec<u64> = (0..n)
        .map(|_| (rng.unit() * length_us as f64) as u64)
        .collect();
    due.sort_unstable();
    due
}

fn stub_ops(rng: &mut Rng, n: usize) -> Vec<Op> {
    let mut kinds: Vec<Kind> = (0..n)
        .map(|i| if i % 2 == 0 { Kind::Get } else { Kind::Post })
        .collect();
    rng.shuffle(&mut kinds);
    kinds
        .into_iter()
        .map(|kind| Op {
            kind,
            user: Dataset::user_id(rng.below(STUB_USERS) as u32),
            item: match kind {
                Kind::Get => String::new(),
                Kind::Post => Dataset::item_id(rng.below(STUB_ITEMS) as u32),
            },
        })
        .collect()
}

/// The `recommend` feedback trace (fixed; see [`TRACE_SEED`]).
pub fn recommend_trace() -> Dataset {
    Dataset::generate(TRACE_USERS, TRACE_ITEMS, TRACE_RATINGS, TRACE_SEED)
}

/// Users queried in one `recommend` round: drawn from the trace's users
/// (fixed; see [`TRACE_SEED`]).
pub fn recommend_get_users(trace: &Dataset) -> Vec<String> {
    let mut users: Vec<u32> = trace.ratings.iter().map(|r| r.user).collect();
    users.sort_unstable();
    users.dedup();
    let mut rng = Rng::new(TRACE_SEED ^ 0x6765_7473);
    (0..RECOMMEND_GETS)
        .map(|_| Dataset::user_id(users[rng.below(users.len() as u64) as usize]))
        .collect()
}

/// Length of one `recommend` round's two phases.
pub fn recommend_round_us() -> u64 {
    ((TRACE_RATINGS + RECOMMEND_GETS) as f64 / RECOMMEND_RPS * 1e6) as u64
}

/// Whole `recommend` rounds that fit a run of `seconds` (at least one).
pub fn recommend_rounds(seconds: u64) -> usize {
    ((seconds * 1_000_000) / recommend_round_us()).max(1) as usize
}

/// Builds the plan of one run.
pub fn plan(workload: Workload, seed: u64, seconds: u64) -> Plan {
    let mut rng = Rng::new(seed ^ 0x7065_7266_6265_6e63);
    let length_us = seconds * 1_000_000;
    let phases = match workload {
        Workload::Trickle => {
            let n = (TRICKLE_RPS * seconds as f64).round() as usize;
            let ops = stub_ops(&mut rng, n);
            let due = poisson_schedule(&mut rng, n, length_us);
            vec![Phase {
                ops,
                schedule: Schedule::Open(due),
                length_us,
            }]
        }
        Workload::Peak => {
            let n = (PEAK_POOL_RPS * seconds as f64).round() as usize;
            vec![Phase {
                ops: stub_ops(&mut rng, n),
                schedule: Schedule::Closed(PEAK_WINDOW_PER_CONN),
                length_us,
            }]
        }
        Workload::Recommend => {
            let trace = recommend_trace();
            let get_users = recommend_get_users(&trace);
            let mut phases = Vec::new();
            for _ in 0..recommend_rounds(seconds) {
                let mut posts: Vec<Op> = trace
                    .interactions()
                    .map(|(user, item)| Op {
                        kind: Kind::Post,
                        user,
                        item,
                    })
                    .collect();
                rng.shuffle(&mut posts);
                let mut gets: Vec<Op> = get_users
                    .iter()
                    .map(|u| Op {
                        kind: Kind::Get,
                        user: u.clone(),
                        item: String::new(),
                    })
                    .collect();
                rng.shuffle(&mut gets);
                for ops in [posts, gets] {
                    let len = (ops.len() as f64 / RECOMMEND_RPS * 1e6) as u64;
                    let due = poisson_schedule(&mut rng, ops.len(), len);
                    phases.push(Phase {
                        ops,
                        schedule: Schedule::Open(due),
                        length_us: len,
                    });
                }
            }
            phases
        }
    };
    Plan { workload, phases }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_depends_only_on_the_seed() {
        for w in [Workload::Trickle, Workload::Peak, Workload::Recommend] {
            let a = plan(w, 11, 25);
            let b = plan(w, 11, 25);
            assert_eq!(a, b, "{} plan is not a function of its seed", w.name());
            let c = plan(w, 12, 25);
            assert_ne!(a, c, "{} plan ignores its seed", w.name());
        }
    }

    #[test]
    fn open_schedules_are_sorted_and_inside_the_phase() {
        let p = plan(Workload::Trickle, 3, 25);
        let Schedule::Open(due) = &p.phases[0].schedule else {
            panic!("trickle is open loop");
        };
        assert_eq!(due.len(), 500);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(due.iter().all(|&d| d < p.phases[0].length_us));
    }

    #[test]
    fn mixes_are_half_gets_half_posts() {
        for w in [Workload::Trickle, Workload::Peak] {
            let ops = &plan(w, 5, 25).phases[0].ops;
            let gets = ops.iter().filter(|o| o.kind == Kind::Get).count();
            assert_eq!(gets * 2, ops.len());
        }
    }

    #[test]
    fn recommend_rounds_are_the_same_operations() {
        let p = plan(Workload::Recommend, 9, 25);
        assert_eq!(p.phases.len(), 2 * recommend_rounds(25));
        let sorted = |ops: &[Op]| {
            let mut v: Vec<(String, String)> = ops
                .iter()
                .map(|o| (o.user.clone(), o.item.clone()))
                .collect();
            v.sort();
            v
        };
        // Another seed reorders a round but never changes what it holds.
        let q = plan(Workload::Recommend, 10, 25);
        for (a, b) in p.phases.iter().zip(&q.phases) {
            assert_eq!(sorted(&a.ops), sorted(&b.ops));
        }
    }
}
