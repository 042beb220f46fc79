//! The two request paths the benchmark drives.
//!
//! [`ServerPath`] is the production path: edge encrypt and frame, then
//! `PastaServer::open_session`/`submit`/`poll` stamped with wall-clock
//! microseconds. [`PackedPath`] has no service front-end: the caller
//! frames each block, and the cloud side decodes the frame and calls
//! `PackedHheServer::transcipher_packed` directly.

use crate::load::Service;
use crate::trace::Tracer;
use pasta_core::{Ciphertext as PastaCiphertext, PastaParams};
use pasta_fhe::{BfvContext, BfvSecretKey, Ciphertext as FheCiphertext};
use pasta_hhe::{HheClient, PackedHheServer, ShardedCache};
use pasta_pipeline::{pack, WireFrame};
use pasta_server::{CompletionResult, PastaServer, ServerEvent, SubmitOutcome, TenantId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

/// Counters read from the program's public stats APIs; differences of
/// two snapshots give a window's share.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// Material-cache lookups served from the cache.
    pub cache_hits: u64,
    /// Material-cache lookups that built the entry.
    pub cache_misses: u64,
    /// Whole-shard cache evictions.
    pub cache_evictions: u64,
    /// Galois key-switches (packed path).
    pub key_switches: u64,
    /// Multiplexed buckets flushed.
    pub mux_buckets: u64,
    /// Blocks carried by multiplexed buckets.
    pub mux_blocks: u64,
    /// Buckets flushed full.
    pub flush_full: u64,
    /// Buckets flushed by the deadline trigger.
    pub flush_deadline: u64,
    /// Buckets flushed by the linger (drain) trigger.
    pub flush_drain: u64,
    /// Buckets whose fill is summed in `fill_permille_sum`.
    pub fills: u64,
    /// Sum of flushed buckets' slot fill, permille.
    pub fill_permille_sum: u64,
    /// Scratch-pool buffer requests.
    pub scratch_takes: u64,
    /// Scratch-pool requests that allocated.
    pub scratch_misses: u64,
    /// Parallel calls served by pool workers.
    pub pool_dispatches: u64,
    /// Parallel calls run inline (nested or contended).
    pub pool_inline: u64,
}

impl Counters {
    /// `self − earlier`, field by field.
    #[must_use]
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            cache_evictions: self.cache_evictions - earlier.cache_evictions,
            key_switches: self.key_switches - earlier.key_switches,
            mux_buckets: self.mux_buckets - earlier.mux_buckets,
            mux_blocks: self.mux_blocks - earlier.mux_blocks,
            flush_full: self.flush_full - earlier.flush_full,
            flush_deadline: self.flush_deadline - earlier.flush_deadline,
            flush_drain: self.flush_drain - earlier.flush_drain,
            fills: self.fills - earlier.fills,
            fill_permille_sum: self.fill_permille_sum - earlier.fill_permille_sum,
            scratch_takes: self.scratch_takes - earlier.scratch_takes,
            scratch_misses: self.scratch_misses - earlier.scratch_misses,
            pool_dispatches: self.pool_dispatches - earlier.pool_dispatches,
            pool_inline: self.pool_inline - earlier.pool_inline,
        }
    }

    /// Adds the process-global scratch and worker-pool counters.
    fn with_globals(mut self) -> Counters {
        let scratch = pasta_fhe::scratch::stats();
        let pool = pasta_par::pool::stats();
        self.scratch_takes = scratch.takes;
        self.scratch_misses = scratch.misses;
        self.pool_dispatches = pool.dispatches;
        self.pool_inline = pool.nested_inline + pool.contended_inline;
        self
    }
}

/// What the benchmark needs from a request path beyond [`Service`].
pub trait Path: Service {
    /// Counter snapshot.
    fn counters(&self) -> Counters;
    /// Decrypts every completed request in `reqs` and compares it with
    /// what the edge encrypted; returns the verdicts in `reqs` order.
    /// With `corrupt`, the first result is tampered with first, the way
    /// a broken circuit would leave it.
    fn verify(&mut self, reqs: &[usize], corrupt: bool) -> Vec<bool>;
    /// The lowest noise budget (bits) left on any output ciphertext of
    /// `reqs`.
    fn min_budget(&self, reqs: &[usize]) -> Option<u32>;
    /// Forgets a request's inputs and result.
    fn forget(&mut self, req: usize);
    /// The ring and analyst key the kernel probes run on.
    fn ring(&self) -> (&BfvContext, &BfvSecretKey);
    /// Whether requests go through `PastaServer` (the `server.*`
    /// metrics read 0 otherwise).
    fn through_server(&self) -> bool;
}

/// One request's inputs, a pure function of the seed and its index.
#[derive(Debug, Clone)]
pub struct Request {
    /// Index into the path's tenants.
    pub tenant: usize,
    /// Fresh PASTA nonce (the session id).
    pub nonce: u128,
    /// Plaintext message, `blocks · t` elements.
    pub message: Vec<u64>,
}

/// Builds request `req`: `blocks` full PASTA blocks of random elements
/// under a nonce no other request of the run uses.
#[must_use]
pub fn make_request(
    seed: u64,
    req: usize,
    tenant: usize,
    blocks: usize,
    p: &PastaParams,
) -> Request {
    let mut rng = StdRng::seed_from_u64(seed ^ (req as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let modulus = p.modulus().value();
    Request {
        tenant,
        nonce: (u128::from(seed) << 64) | (req as u128 + 1),
        message: (0..blocks * p.t())
            .map(|_| rng.gen_range(0..modulus))
            .collect(),
    }
}

/// Encrypts and frames one request on the edge, recording the
/// `encrypt` and `frame` spans.
fn edge_frame(
    client: &HheClient,
    r: &Request,
    req: usize,
    tracer: &mut Tracer,
) -> Result<Vec<u8>, String> {
    let id = Some(req as u64);
    let ct = tracer
        .span("encrypt", None, id, || client.encrypt(r.nonce, &r.message))
        .map_err(|e| format!("encrypt: {e}"))?;
    let bits = client.params().modulus().bits();
    Ok(tracer.span("frame", None, id, || {
        let payload = pack::pack_bits(ct.elements(), bits);
        WireFrame::data(r.nonce, req as u32, 0, payload).encode()
    }))
}

/// One tenant of the server path: its id, its edge client and the
/// index of the analyst key its results decrypt under.
#[derive(Debug)]
pub struct Tenant {
    /// Server-assigned id.
    pub id: TenantId,
    /// The tenant's edge client (its PASTA key).
    pub client: HheClient,
    /// Index into [`ServerPath::analysts`].
    pub analyst: usize,
}

/// An analyst's FHE context and secret key.
#[derive(Debug)]
pub struct Analyst {
    /// BFV context.
    pub ctx: BfvContext,
    /// FHE secret key.
    pub sk: BfvSecretKey,
}

/// Chooses tenant and block count for request `req` of `client`.
pub type Shape = Box<dyn Fn(usize, usize) -> (usize, usize)>;

/// The production path through [`PastaServer`].
pub struct ServerPath {
    /// The service under test.
    server: PastaServer,
    /// Registered tenants.
    tenants: Vec<Tenant>,
    /// Analyst keys (one shared per FHE domain, or one per tenant).
    analysts: Vec<Analyst>,
    params: PastaParams,
    seed: u64,
    shape: Shape,
    requests: HashMap<usize, Request>,
    by_seq: HashMap<u64, usize>,
    results: HashMap<usize, CompletionResult>,
}

/// Microsecond stamp for the server's clock.
fn stamp(now: f64) -> u64 {
    (now * 1e6) as u64 + 1
}

impl ServerPath {
    /// Wraps a set-up server.
    #[must_use]
    pub fn new(
        server: PastaServer,
        tenants: Vec<Tenant>,
        analysts: Vec<Analyst>,
        params: PastaParams,
        seed: u64,
        shape: Shape,
    ) -> Self {
        ServerPath {
            server,
            tenants,
            analysts,
            params,
            seed,
            shape,
            requests: HashMap::new(),
            by_seq: HashMap::new(),
            results: HashMap::new(),
        }
    }

    /// The request inputs of `req` (built on first use).
    fn request(&mut self, req: usize, client: usize) -> &Request {
        let (seed, params) = (self.seed, self.params);
        let shape = &self.shape;
        self.requests.entry(req).or_insert_with(|| {
            let (tenant, blocks) = shape(req, client);
            make_request(seed, req, tenant, blocks, &params)
        })
    }

    /// Completed results of `reqs`, grouped by the analyst key they
    /// decrypt under: `(analyst, [(index into reqs, result)])`.
    fn by_analyst(&self, reqs: &[usize]) -> Vec<(usize, Vec<(usize, &CompletionResult)>)> {
        let mut groups = vec![Vec::new(); self.analysts.len()];
        for (i, r) in reqs.iter().enumerate() {
            if let (Some(request), Some(result)) = (self.requests.get(r), self.results.get(r)) {
                groups[self.tenants[request.tenant].analyst].push((i, result));
            }
        }
        groups
            .into_iter()
            .enumerate()
            .filter(|(_, group)| !group.is_empty())
            .collect()
    }
}

impl Path for ServerPath {
    fn counters(&self) -> Counters {
        let stats = self.server.stats();
        let cache = self.server.cache().stats();
        let fills = self.server.bucket_fills();
        Counters {
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: self.server.cache().evictions(),
            mux_buckets: stats.mux_buckets,
            mux_blocks: stats.mux_blocks,
            flush_full: stats.flush_full,
            flush_deadline: stats.flush_deadline,
            flush_drain: stats.flush_drain,
            fills: fills.len() as u64,
            fill_permille_sum: fills.iter().map(|&f| u64::from(f)).sum(),
            ..Counters::default()
        }
        .with_globals()
    }

    fn verify(&mut self, reqs: &[usize], corrupt: bool) -> Vec<bool> {
        if corrupt {
            if let Some(result) = reqs.first().and_then(|r| self.results.get_mut(r)) {
                tamper(&self.analysts[0].ctx, result);
            }
        }
        let mut verdicts = vec![false; reqs.len()];
        for (a, group) in self.by_analyst(reqs) {
            let analyst = &self.analysts[a];
            let refs: Vec<&CompletionResult> = group.iter().map(|(_, r)| *r).collect();
            let Ok(decoded) = crate::verify::retrieve_all(&analyst.ctx, &analyst.sk, &refs) else {
                continue;
            };
            for ((i, _), message) in group.iter().zip(decoded) {
                verdicts[*i] = self
                    .requests
                    .get(&reqs[*i])
                    .is_some_and(|r| r.message == message);
            }
        }
        verdicts
    }

    fn min_budget(&self, reqs: &[usize]) -> Option<u32> {
        self.by_analyst(reqs)
            .into_iter()
            .flat_map(|(a, group)| {
                let analyst = &self.analysts[a];
                let refs: Vec<&CompletionResult> = group.iter().map(|(_, r)| *r).collect();
                crate::verify::distinct_ciphertexts(&refs)
                    .into_iter()
                    .map(|ct| analyst.ctx.noise_budget(&analyst.sk, ct))
                    .collect::<Vec<_>>()
            })
            .min()
    }

    fn forget(&mut self, req: usize) {
        self.requests.remove(&req);
        self.results.remove(&req);
    }

    fn ring(&self) -> (&BfvContext, &BfvSecretKey) {
        (&self.analysts[0].ctx, &self.analysts[0].sk)
    }

    fn through_server(&self) -> bool {
        true
    }
}

/// Adds 1 to every slot of one output ciphertext.
fn tamper(ctx: &BfvContext, result: &mut CompletionResult) {
    match result {
        CompletionResult::Scalar(cts) => {
            if let Some(ct) = cts.first_mut() {
                ctx.add_scalar_assign(ct, 1);
            }
        }
        CompletionResult::Muxed { positions, .. } => {
            let mut tampered: Vec<FheCiphertext> = positions.as_ref().clone();
            if let Some(ct) = tampered.first_mut() {
                ctx.add_scalar_assign(ct, 1);
            }
            *positions = Arc::new(tampered);
        }
    }
}

impl Service for ServerPath {
    fn send(
        &mut self,
        req: usize,
        client: usize,
        now: f64,
        tracer: &mut Tracer,
    ) -> Result<(), String> {
        let r = self.request(req, client).clone();
        let tenant = &self.tenants[r.tenant];
        let id = Some(req as u64);
        let bytes = edge_frame(&tenant.client, &r, req, tracer)?;
        let tenant_id = tenant.id;
        let server = &mut self.server;
        tracer
            .span("session", None, id, || {
                server.open_session(stamp(now), tenant_id, r.nonce)
            })
            .map_err(|reason| format!("{reason:?}"))?;
        let outcome = tracer.span("submit", None, id, || {
            server.submit(stamp(now), tenant_id, &bytes)
        });
        match outcome {
            SubmitOutcome::Accepted { seq, .. } => {
                self.by_seq.insert(seq, req);
                Ok(())
            }
            SubmitOutcome::Refused { reason, .. } => Err(format!("{reason:?}")),
        }
    }

    fn poll(
        &mut self,
        now: f64,
        _parent: Option<usize>,
        _tracer: &mut Tracer,
    ) -> Vec<(usize, Result<(), String>)> {
        let mut resolved = Vec::new();
        for event in self.server.poll(stamp(now)) {
            match event {
                ServerEvent::Completed(c) => {
                    if let Some(req) = self.by_seq.remove(&c.seq) {
                        self.results.insert(req, c.result);
                        resolved.push((req, Ok(())));
                    }
                }
                ServerEvent::Refused { seq, reason, .. } => {
                    if let Some(req) = self.by_seq.remove(&seq) {
                        resolved.push((req, Err(format!("{reason:?}"))));
                    }
                }
            }
        }
        resolved
    }

    fn blocks(&self, req: usize) -> usize {
        self.requests
            .get(&req)
            .map_or(0, |r| r.message.len().div_ceil(self.params.t()))
    }
}

/// The packed (rotation-mode) path: one block per request, transciphered
/// by a direct `transcipher_packed` call.
pub struct PackedPath {
    /// Analyst context.
    ctx: BfvContext,
    /// Analyst FHE secret key.
    sk: BfvSecretKey,
    /// The edge client.
    client: HheClient,
    /// The packed transciphering server.
    server: PackedHheServer,
    /// The byte-budgeted cache the server's material lives in.
    cache: ShardedCache,
    seed: u64,
    requests: HashMap<usize, Request>,
    inbox: Vec<(usize, Vec<u8>)>,
    results: HashMap<usize, FheCiphertext>,
}

impl PackedPath {
    /// Wraps a set-up packed server.
    #[must_use]
    pub fn new(
        ctx: BfvContext,
        sk: BfvSecretKey,
        client: HheClient,
        server: PackedHheServer,
        cache: ShardedCache,
        seed: u64,
    ) -> Self {
        PackedPath {
            ctx,
            sk,
            client,
            server,
            cache,
            seed,
            requests: HashMap::new(),
            inbox: Vec::new(),
            results: HashMap::new(),
        }
    }

    /// Cloud side of one frame: decode, unpack, transcipher.
    fn serve(
        &self,
        req: usize,
        bytes: &[u8],
        parent: Option<usize>,
        tracer: &mut Tracer,
    ) -> Result<FheCiphertext, String> {
        let id = Some(req as u64);
        let params = *self.client.params();
        let ct: PastaCiphertext = tracer.span("decode", parent, id, || {
            let frame = WireFrame::decode(bytes).map_err(|e| format!("{e:?}"))?;
            let bits = params.modulus().bits();
            let count = pack::elements_in(frame.payload.len(), bits);
            let elements = pack::unpack_bits(&frame.payload, bits, count);
            pack::ciphertext_from_elements(&params, frame.nonce, &elements)
                .map_err(|e| e.to_string())
        })?;
        tracer
            .span("transcipher", parent, id, || {
                self.server.transcipher_packed(&self.ctx, &ct, 0)
            })
            .map_err(|e| e.to_string())
    }
}

impl Path for PackedPath {
    fn counters(&self) -> Counters {
        let cache = self.cache.stats();
        Counters {
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: self.cache.evictions(),
            key_switches: self.server.key_switch_count(),
            ..Counters::default()
        }
        .with_globals()
    }

    fn verify(&mut self, reqs: &[usize], corrupt: bool) -> Vec<bool> {
        if corrupt {
            if let Some(ct) = reqs.first().and_then(|r| self.results.get_mut(r)) {
                self.ctx.add_scalar_assign(ct, 1);
            }
        }
        let t = self.client.params().t();
        reqs.iter()
            .map(|r| match (self.results.get(r), self.requests.get(r)) {
                (Some(ct), Some(request)) => {
                    self.server.decode(&self.ctx, &self.sk, ct, t) == request.message
                }
                _ => false,
            })
            .collect()
    }

    fn min_budget(&self, reqs: &[usize]) -> Option<u32> {
        reqs.iter()
            .filter_map(|r| self.results.get(r))
            .map(|ct| self.ctx.noise_budget(&self.sk, ct))
            .min()
    }

    fn forget(&mut self, req: usize) {
        self.requests.remove(&req);
        self.results.remove(&req);
    }

    fn ring(&self) -> (&BfvContext, &BfvSecretKey) {
        (&self.ctx, &self.sk)
    }

    fn through_server(&self) -> bool {
        false
    }
}

impl Service for PackedPath {
    fn send(
        &mut self,
        req: usize,
        _client: usize,
        _now: f64,
        tracer: &mut Tracer,
    ) -> Result<(), String> {
        let params = *self.client.params();
        let r = self
            .requests
            .entry(req)
            .or_insert_with(|| make_request(self.seed, req, 0, 1, &params))
            .clone();
        let bytes = edge_frame(&self.client, &r, req, tracer)?;
        self.inbox.push((req, bytes));
        Ok(())
    }

    fn poll(
        &mut self,
        _now: f64,
        parent: Option<usize>,
        tracer: &mut Tracer,
    ) -> Vec<(usize, Result<(), String>)> {
        let inbox = std::mem::take(&mut self.inbox);
        inbox
            .into_iter()
            .map(|(req, bytes)| {
                let outcome = self.serve(req, &bytes, parent, tracer).map(|ct| {
                    self.results.insert(req, ct);
                });
                (req, outcome)
            })
            .collect()
    }

    fn blocks(&self, req: usize) -> usize {
        usize::from(self.requests.contains_key(&req))
    }
}
