//! Untimed diagnostics that reproduce the faults the benchmark reports
//! (see the README): each prints its finding and exits.

use crate::plan::{recommend_get_users, recommend_trace};
use crate::stats::matches_by_score;
use crate::{launch, Lrs};
use pprox_crypto::sha256;
use pprox_lrs::api::{FeedbackEvent, RecommendationList, RecommendationQuery};
use pprox_lrs::api::{EVENTS_PATH, QUERIES_PATH};
use pprox_lrs::cco::CcoConfig;
use pprox_lrs::shard::{ShardEngine, ShardedLrs, DEFAULT_VNODES};
use pprox_lrs::{HttpRequest, RestHandler};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

/// Full scored list of `user` on `engine`, best first.
pub fn scored(engine: &ShardEngine, user: &str, n: usize) -> Vec<(String, f64)> {
    engine
        .get_filtered(user, n, &[])
        .items
        .into_iter()
        .map(|s| (s.item, s.score))
        .collect()
}

fn query(lrs: &dyn RestHandler, user: &str) -> Vec<String> {
    let req = HttpRequest::post(
        QUERIES_PATH,
        RecommendationQuery::new(user, pprox_lrs::MAX_RECOMMENDATIONS).to_json(),
    );
    RecommendationList::from_json(&lrs.handle(&req).body)
        .map(|l| l.items.into_iter().map(|s| s.item).collect())
        .unwrap_or_default()
}

fn post(lrs: &dyn RestHandler, user: &str, item: &str) {
    let event = FeedbackEvent {
        user: user.to_string(),
        item: item.to_string(),
        payload: None,
    };
    lrs.handle(&HttpRequest::post(EVENTS_PATH, event.to_json()));
}

/// Compares `lists` (one per user, as item ids) against a plaintext
/// reference engine by score; returns the users whose lists disagree.
fn disagreements(reference: &ShardEngine, lists: &[(String, Vec<String>)]) -> usize {
    lists
        .iter()
        .filter(|(user, got)| {
            let top = scored(reference, user, pprox_lrs::MAX_RECOMMENDATIONS);
            let all: HashMap<String, f64> =
                scored(reference, user, usize::MAX).into_iter().collect();
            !matches_by_score(got, &top, &all)
        })
        .count()
}

/// A stand-in pseudonym: a keyed digest, spelled so that its sort order
/// has nothing to do with the id's own.
fn respell(id: &str) -> String {
    let d = sha256::digest(format!("perfbench-respell/{id}").as_bytes());
    d[..12].iter().map(|b| format!("{b:02x}")).collect()
}

fn f1_count(config: &CcoConfig) -> (usize, usize) {
    let trace = recommend_trace();
    let plain = ShardEngine::with_config(config.clone());
    let spelled = ShardEngine::with_config(config.clone());
    let mut back: HashMap<String, String> = HashMap::new();
    for (u, i) in trace.interactions() {
        plain.post(&u, &i, None);
        let item = respell(&i);
        back.insert(item.clone(), i);
        spelled.post(&respell(&u), &item, None);
    }
    plain.sync();
    spelled.sync();
    let gets = recommend_get_users(&trace);
    let lists: Vec<(String, Vec<String>)> = gets
        .iter()
        .map(|u| {
            let got = scored(&spelled, &respell(u), pprox_lrs::MAX_RECOMMENDATIONS)
                .into_iter()
                .map(|(item, _)| back[&item].clone())
                .collect();
            (u.clone(), got)
        })
        .collect();
    (disagreements(&plain, &lists), gets.len())
}

/// F1: the indicator cap breaks LLR ties by item-id spelling. Replays
/// one `recommend` round in-process into an engine fed plaintext ids and
/// one fed the same ids re-spelled (as item pseudonyms are), and counts
/// the gets whose lists differ by score; then again with the cap lifted.
pub fn f1() -> i32 {
    let capped = CcoConfig::default();
    let (bad, total) = f1_count(&capped);
    println!(
        "F1 cap={}: {bad} of {total} gets differ between plaintext and re-spelled ids",
        capped.max_indicators_per_item
    );
    let lifted = CcoConfig {
        max_indicators_per_item: usize::MAX,
        ..CcoConfig::default()
    };
    let (bad_lifted, _) = f1_count(&lifted);
    println!("F1 cap lifted: {bad_lifted} of {total} gets differ");
    0
}

/// F2: a 2-shard `ShardedLrs` against one `ShardEngine` fed the same
/// `recommend` trace; prints how many users' top-20 lists agree.
pub fn f2() -> i32 {
    let trace = recommend_trace();
    let single = ShardEngine::new();
    let shards: Vec<Arc<ShardEngine>> = (0..2).map(|_| Arc::new(ShardEngine::new())).collect();
    let sharded = ShardedLrs::new(
        shards
            .iter()
            .map(|s| s.clone() as Arc<dyn RestHandler>)
            .collect(),
        DEFAULT_VNODES,
    );
    for (u, i) in trace.interactions() {
        post(&single, &u, &i);
        post(&sharded, &u, &i);
    }
    single.sync();
    for s in &shards {
        s.sync();
    }
    let users: Vec<String> = trace
        .interactions()
        .map(|(u, _)| u)
        .collect::<HashSet<_>>()
        .into_iter()
        .collect();
    let lists: Vec<(String, Vec<String>)> = users
        .iter()
        .map(|u| (u.clone(), query(&sharded, u)))
        .collect();
    let bad = disagreements(&single, &lists);
    println!(
        "F2: {} of {} users' top-20 lists agree between 2 shards and one engine",
        users.len() - bad,
        users.len()
    );
    0
}

/// F3: CPU the cluster burns with no traffic, in ms per second.
pub fn f3() -> i32 {
    let lrs = Lrs::stub();
    let Ok(mut cluster) = launch(&lrs, crate::CLUSTER_SEED) else {
        eprintln!("F3: cluster launch failed");
        return 1;
    };
    std::thread::sleep(Duration::from_millis(500));
    let idle = crate::idle_cpu_ms_per_s(Duration::from_secs(4));
    let threads = std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count());
    println!("F3: idle cluster uses {idle:.1} ms of CPU per second across {threads} threads");
    cluster.shutdown();
    0
}
