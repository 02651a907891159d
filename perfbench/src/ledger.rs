//! The per-layer cost ledger of a traced run: a few hundred requests of
//! the workload's own mix walked through each layer's public functions
//! in-process, every call timed on its own. The benchmark provisions its
//! own enclaves and keys for this through `Platform` and
//! `KeyProvisioner`, at the same 2048-bit modulus as the cluster.

use crate::plan::{Kind, Op};
use crate::stats::median;
use pprox_core::ia::{IaOptions, IaState};
use pprox_core::keys::{KeyProvisioner, IA_CODE_IDENTITY, UA_CODE_IDENTITY};
use pprox_core::message::ClientEnvelope;
use pprox_core::resilience::Deadline;
use pprox_core::shuffler::{ShuffleBuffer, ShuffleConfig};
use pprox_core::ua::UaState;
use pprox_core::{PProxError, UserClient};
use pprox_crypto::rng::SecureRng;
use pprox_crypto::rsa::RsaKeyPair;
use pprox_lrs::api::{RecommendationList, RecommendationQuery, EVENTS_PATH, QUERIES_PATH};
use pprox_lrs::shard::ShardEngine;
use pprox_lrs::{HttpRequest, RestHandler};
use pprox_sgx::Platform;
use pprox_wire::services::lrs::encode_request;
use pprox_wire::{ClientConfig, Frame, PadClass, PooledClient};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Key seed of the ledger's own deployment.
const LEDGER_SEED: u64 = 0x6c65_6467_6572;
/// Timed repetitions of the single-call probes.
const PROBE_REPS: usize = 200;

/// Per-layer samples in µs, keyed by metric name.
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        self.push(name, t.elapsed().as_secs_f64() * 1e6);
        out
    }

    fn push(&mut self, name: &'static str, us: f64) {
        self.0.entry(name).or_default().push(us);
    }

    /// Median of one metric's samples (0 when it has none).
    pub fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| median(v))
    }
}

/// The layers one ledger pass walks through.
pub struct Layers {
    ua: std::sync::Arc<pprox_sgx::Enclave<UaState>>,
    ia: std::sync::Arc<pprox_sgx::Enclave<IaState>>,
    client: UserClient,
    rng: SecureRng,
}

impl Layers {
    /// Provisions one UA and one IA enclave of the ledger's own.
    ///
    /// # Errors
    ///
    /// Attestation or provisioning failures.
    pub fn provision(seed: u64) -> Result<Layers, PProxError> {
        let mut rng = SecureRng::from_seed(LEDGER_SEED);
        let platform = Platform::new(&mut rng);
        let provisioner = KeyProvisioner::generate(2048, &mut rng);
        let ua = platform.load_enclave::<UaState>(UA_CODE_IDENTITY);
        provisioner.provision_ua(&platform, &ua)?;
        let ia = platform.load_enclave::<IaState>(IA_CODE_IDENTITY);
        provisioner.provision_ia(&platform, &ia)?;
        let client = UserClient::new(provisioner.client_keys(), seed);
        Ok(Layers {
            ua,
            ia,
            client,
            rng,
        })
    }

    /// Walks `ops` through client, frame codec, UA, IA and `lrs`,
    /// timing each call into `s`.
    ///
    /// # Errors
    ///
    /// Any layer failure: the ledger walks only well-formed requests.
    pub fn walk(
        &mut self,
        ops: &[Op],
        lrs: &dyn RestHandler,
        s: &mut Samples,
    ) -> Result<(), PProxError> {
        let opts = IaOptions::default();
        for (i, op) in ops.iter().enumerate() {
            let client = &mut self.client;
            let (envelope, ticket) = match op.kind {
                Kind::Post => (
                    s.time("client.post_us", || client.post(&op.user, &op.item, None))?,
                    None,
                ),
                Kind::Get => {
                    let (e, t) = s.time("client.get_us", || client.get(&op.user))?;
                    (e, Some(t))
                }
            };
            let envelope = s.time("frame.rt_us", || frame_round_trip(&envelope, i as u64))?;
            let layer = s.time("ua.process_us", || {
                self.ua.call(|ua| ua.process(&envelope, true))
            })??;
            match ticket {
                None => {
                    let event = s.time("ia.post_us", || {
                        self.ia.call(|ia| ia.process_post(&layer, opts))
                    })??;
                    let req = HttpRequest::post(EVENTS_PATH, event.to_json());
                    let resp = s.time("lrs.event_us", || lrs.handle(&req));
                    if !resp.is_success() {
                        return Err(PProxError::Unavailable);
                    }
                }
                Some(ticket) => {
                    let (query, token) = s.time("ia.get_us", || {
                        self.ia.call(|ia| ia.process_get(&layer, opts))
                    })??;
                    let req = HttpRequest::post(QUERIES_PATH, query.to_json());
                    let resp = s.time("lrs.query_us", || lrs.handle(&req));
                    let list = RecommendationList::from_json(&resp.body)
                        .ok_or(PProxError::MalformedMessage)?;
                    let items: Vec<String> = list.items.into_iter().map(|x| x.item).collect();
                    let encrypted = s.time("ia.get_response_us", || {
                        self.ia
                            .call(|ia| ia.process_get_response(token, &items, opts))
                    })??;
                    let client = &self.client;
                    s.time("client.open_us", || {
                        client.open_response(&ticket, &encrypted)
                    })?;
                }
            }
        }
        Ok(())
    }

    /// Times an RSA-2048 private-key decryption through
    /// `pprox_crypto::rsa`.
    pub fn rsa_decrypt(&mut self, s: &mut Samples) {
        let pair = RsaKeyPair::generate(2048, &mut self.rng);
        let Ok(ct) = pair.public.encrypt(&[7u8; 32], &mut self.rng) else {
            return;
        };
        for _ in 0..PROBE_REPS / 4 {
            let _ = s.time("crypto.rsa_decrypt_us", || pair.private.decrypt(&ct));
        }
    }
}

fn frame_round_trip(envelope: &ClientEnvelope, corr: u64) -> Result<ClientEnvelope, PProxError> {
    let bytes = Frame::new(PadClass::Request, corr, envelope.to_frame()?)
        .and_then(|f| f.encode())
        .map_err(|_| PProxError::MalformedMessage)?;
    let frame = Frame::decode(&bytes).map_err(|_| PProxError::MalformedMessage)?;
    ClientEnvelope::from_frame(&frame.payload)
}

/// Times `ShuffleBuffer::push` plus `poll_timeout` per item at the
/// paper's S = 10 and 500 ms, with arrivals 1 ms apart.
pub fn shuffle_push(s: &mut Samples) {
    const ITEMS: usize = 20_000;
    for batch in 0..5u64 {
        let mut buffer = ShuffleBuffer::new(ShuffleConfig::paper_default(), batch);
        let t = Instant::now();
        let mut released = 0usize;
        for i in 0..ITEMS {
            let now = i as u64 * 1000;
            if let Some(f) = buffer.push(now, i) {
                released += f.items.len();
            }
            if let Some(f) = buffer.poll_timeout(now) {
                released += f.items.len();
            }
        }
        std::hint::black_box(released);
        s.push(
            "shuffle.push_us",
            t.elapsed().as_secs_f64() * 1e6 / ITEMS as f64,
        );
    }
}

/// Times one IA→LRS wire hop: `PooledClient::call` to an LRS tier
/// address minus the same request handled in-process.
pub fn lrs_hop(addr: SocketAddr, lrs: &dyn RestHandler, s: &mut Samples) {
    let req = HttpRequest::post(
        QUERIES_PATH,
        RecommendationQuery::new("ledger-probe", 20).to_json(),
    );
    let payload = encode_request(&req);
    let client = PooledClient::new(addr, ClientConfig::default());
    let mut wire = Vec::new();
    let mut direct = Vec::new();
    for _ in 0..PROBE_REPS {
        let t = Instant::now();
        let ok = client
            .call(&payload, Deadline::starting_now(Duration::from_secs(2)))
            .is_ok();
        if ok {
            wire.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let t = Instant::now();
        std::hint::black_box(lrs.handle(&req));
        direct.push(t.elapsed().as_secs_f64() * 1e6);
    }
    s.push("wire.lrs_hop_us", median(&wire) - median(&direct));
}

/// Times `ShardEngine::sync` on an engine holding `events` (plaintext),
/// in ms: the median of three syncs of freshly loaded engines.
pub fn engine_sync_ms(events: &[(String, String)]) -> f64 {
    let times: Vec<f64> = (0..3)
        .map(|_| {
            let engine = ShardEngine::new();
            for (u, i) in events {
                engine.post(u, i, None);
            }
            let t = Instant::now();
            engine.sync();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}
