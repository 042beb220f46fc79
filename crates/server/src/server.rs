//! The multi-tenant transciphering service core.
//!
//! A [`PastaServer`] owns a set of tenants, each with its own PASTA key
//! (provisioned FHE-encrypted, as in Fig. 1), a bounded request queue,
//! and a session registry. The evaluation state — one BFV context and
//! one [`HheServer`] holding one relinearization key — belongs to the
//! tenant's FHE domain (the analyst's keypair), built once when the
//! domain's first tenant registers; a tenant outside any domain gets a
//! private one. Requests arrive as wire frames; every path that cannot
//! serve a request answers with a typed NACK
//! ([`pasta_pipeline::RefusalReason`]) — the service never drops work
//! silently and never panics on hostile input:
//!
//! - **admission control** — tenant registration pre-flights the
//!   transciphering circuit through [`NoiseBudgetGuard`] and refuses
//!   under-provisioned parameters with the prime count that would work
//!   (`BudgetRefused`), *before* any ciphertext is accepted;
//! - **backpressure** — per-tenant queues are bounded; a full queue
//!   answers `QueueFull` instead of buffering without limit;
//! - **load shedding** — each request carries a deadline; requests whose
//!   deadline passes before service begins are shed oldest-deadline-first
//!   with a `Deadline` NACK;
//! - **fault containment** — worker panics (injected or real) are caught
//!   inside the `pasta_par` pool and converted to `WorkerFault` NACKs;
//! - **isolation** — each FHE domain owns its own evaluator, and a pass
//!   keeps nothing once it returns: a bucket's composed key is built in
//!   the pass and block material is derived per pass (no session nonce
//!   recurs), so no domain's state grows with its traffic or crowds
//!   out another's;
//! - **cross-tenant slot multiplexing** — tenants that registered into
//!   the same *FHE domain* (one analyst keypair) opt into having their
//!   queued blocks packed together into the slots of one shared
//!   [`HheServer::transcipher_mux`] pass; buckets flush when they fill,
//!   when the oldest member's deadline nears, or when a linger timeout
//!   says no more compatible work is coming (see [`MultiplexConfig`]).
//!
//! All time is virtual: the service never reads a wall clock (the crate
//! is enrolled in `pasta-audit`'s determinism sweep). The caller stamps
//! every `submit`/`poll` with a `u64` microsecond instant, and the
//! scheduler's round structure — including bucket membership and flush
//! causes — is a pure function of those stamps — bit-identical across
//! runs and `PASTA_THREADS` settings.

use crate::session::SessionTable;
use pasta_core::{Ciphertext as PastaCiphertext, PastaParams};
use pasta_fhe::noise::{compact_level, transcipher_noise, Layout, NoiseModel};
use pasta_fhe::{
    BfvContext, BfvParams, BfvRelinKey, BfvSecretKey, Ciphertext as FheCiphertext, FheError,
};
use pasta_hhe::{
    retrieve_muxed, EncryptedPastaKey, HheServer, MuxMember, ShardedCache, ShardedCacheConfig,
    SlotRange,
};
use pasta_pipeline::guard::NoiseBudgetGuard;
use pasta_pipeline::pack;
use pasta_pipeline::wire::{FrameKind, WireFrame};
use pasta_pipeline::{PipelineError, RefusalReason};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Tenant handle: assigned by [`PastaServer::register_tenant`].
pub type TenantId = u64;

/// Cross-tenant slot-multiplexing policy.
#[derive(Debug, Clone, Copy)]
pub struct MultiplexConfig {
    /// Whether queued requests of same-domain tenants are packed into
    /// shared batched passes at all.
    pub enabled: bool,
    /// Upper bound on blocks per bucket (additionally clamped to the
    /// domain's slot capacity `N`).
    pub max_bucket_blocks: usize,
    /// Flush a bucket once the oldest member's deadline is within this
    /// margin of the round start (`flush_deadline`).
    pub flush_margin_us: u64,
    /// Flush a bucket once no new member has joined for this long —
    /// the "no compatible work remains" drain rule, phrased as a pure
    /// timestamp function so split and merged polls agree
    /// (`flush_drain`).
    pub linger_us: u64,
    /// Virtual service time of one multiplexed pass, regardless of how
    /// many slots it fills — the per-request → per-ciphertext cost move.
    pub service_us_per_pass: u64,
}

impl Default for MultiplexConfig {
    fn default() -> Self {
        MultiplexConfig {
            enabled: false,
            max_bucket_blocks: 256,
            flush_margin_us: 30_000,
            linger_us: 2_000,
            service_us_per_pass: 8_000,
        }
    }
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker-pool width: requests served concurrently per scheduling
    /// round (virtual concurrency; the FHE math itself additionally fans
    /// out across `PASTA_THREADS`). A multiplexed bucket occupies one
    /// worker slot no matter how many requests it carries.
    pub workers: usize,
    /// Per-tenant queue bound; a full queue answers `QueueFull`.
    pub queue_capacity: usize,
    /// Relative deadline stamped on every accepted request.
    pub deadline_us: u64,
    /// Sessions idle longer than this are expired.
    pub idle_timeout_us: u64,
    /// Virtual service time per PASTA block (models the transciphering
    /// latency the real circuit would cost at production parameters).
    pub service_us_per_block: u64,
    /// Noise-budget admission policy applied at tenant registration.
    pub admission: NoiseBudgetGuard,
    /// Ignored: the service caches nothing. Kept only because the
    /// wall-clock benchmark (`perfbench`) builds against it.
    pub cache: ShardedCacheConfig,
    /// Cross-tenant slot-multiplexing policy.
    pub multiplex: MultiplexConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_capacity: 8,
            deadline_us: 200_000,
            idle_timeout_us: 5_000_000,
            service_us_per_block: 2_000,
            admission: NoiseBudgetGuard::default(),
            cache: ShardedCacheConfig::default(),
            multiplex: MultiplexConfig::default(),
        }
    }
}

/// Everything a tenant ships at registration: its parameter choice plus
/// the one-time FHE key material of Fig. 1 provisioning.
#[derive(Debug)]
pub struct TenantProvision {
    /// The tenant's PASTA instance.
    pub pasta: PastaParams,
    /// The BFV parameters the tenant asks the service to evaluate under.
    pub bfv: BfvParams,
    /// Relinearization key for the S-box squarings. Only a domain's
    /// first registrant's key is kept: the domain evaluates every
    /// member's requests under it, so a joining member's key is dropped
    /// (every key of one analyst keypair relinearizes alike). A tenant
    /// outside any domain keeps its own.
    pub relin_key: BfvRelinKey,
    /// The tenant's PASTA key, FHE-encrypted (`2t` ciphertexts).
    pub encrypted_key: EncryptedPastaKey,
    /// The FHE domain this tenant's key material belongs to, if any.
    /// Tenants sharing a domain declare that their PASTA keys are
    /// encrypted under the *same* analyst FHE keypair — the trust
    /// prerequisite for packing their blocks into one ciphertext (see
    /// [`pasta_hhe::mux`]). Domains must be parameter-homogeneous: every
    /// registrant must bring the same `(pasta, bfv)` pair.
    pub fhe_domain: Option<u64>,
}

/// One accepted, not-yet-served request.
#[derive(Debug)]
struct QueuedRequest {
    seq: u64,
    tenant: TenantId,
    nonce: u128,
    frame_id: u32,
    counter_base: u32,
    ct: PastaCiphertext,
    enqueued_us: u64,
    deadline_us: u64,
}

/// Why a planned bucket flushed (mirrored into [`ServerStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlushCause {
    /// The bucket reached its block capacity.
    Full,
    /// The oldest member's deadline came within `flush_margin_us`.
    Deadline,
    /// No new compatible work arrived for `linger_us`.
    Drain,
}

/// What makes a unit one shared multiplexed pass: the domain, the
/// members' slot layout, and why it flushed.
struct Bucket {
    domain: u64,
    cause: FlushCause,
    assignments: Vec<SlotAssignment>,
    total_blocks: usize,
    capacity: usize,
}

/// One unit of work a scheduling round hands to a worker slot: the
/// requests it serves, plus the bucket they share if it is a
/// multiplexed pass. A unit without a bucket is one request's private
/// scalar pass.
struct RoundUnit {
    members: Vec<QueuedRequest>,
    bucket: Option<Bucket>,
}

impl RoundUnit {
    fn scalar(req: QueuedRequest) -> Self {
        RoundUnit {
            members: vec![req],
            bucket: None,
        }
    }
}

/// Which evaluator a tenant reaches: the one of the FHE domain it
/// registered into (shared with every other member, and the only kind
/// that multiplexes), or a private one keyed by its own id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum DomainId {
    Shared(u64),
    Private(TenantId),
}

/// Per-tenant server-side state: what the tenant alone owns.
struct Tenant {
    params: PastaParams,
    key: EncryptedPastaKey,
    domain: DomainId,
    sessions: SessionTable,
    queue: VecDeque<QueuedRequest>,
}

/// Per-FHE-domain evaluation state: the PASTA instance every registrant
/// must match (the BFV parameters are the context's), the ring, the one
/// evaluator, which carries the domain's relinearization key — one
/// analyst keypair per domain — and the levels its results are
/// compacted to.
struct Domain {
    pasta: PastaParams,
    ctx: BfvContext,
    hhe: HheServer,
    /// Primes kept on a scalar pass's results.
    scalar_level: usize,
    /// Primes kept on a multiplexed pass's shared positions.
    mux_level: usize,
}

impl Domain {
    /// Builds the domain's evaluation state and sizes its compact
    /// results: each finished ciphertext is switched down to the fewest
    /// primes whose predicted budget still meets the admission margin
    /// ([`compact_level`]). A scalar pass follows [`Layout::Scalar`]; a
    /// multiplexed pass follows [`Layout::Mux`], which starts from the
    /// composed key and bounds a one-member bucket too.
    fn new(
        pasta: PastaParams,
        bfv: BfvParams,
        relin_key: BfvRelinKey,
        margin_bits: f64,
    ) -> Result<Self, FheError> {
        let ctx = BfvContext::new(bfv)?;
        let hhe = HheServer::new(pasta, &ctx, relin_key)?;
        let fresh = NoiseModel::fresh(&ctx);
        let level = |layout: Layout| {
            let end = transcipher_noise(pasta.t(), pasta.rounds(), layout, fresh);
            compact_level(&ctx, end, margin_bits)
        };
        let (scalar_level, mux_level) = (level(Layout::Scalar), level(Layout::Mux));
        Ok(Domain {
            pasta,
            ctx,
            hhe,
            scalar_level,
            mux_level,
        })
    }

    /// Switches a finished result down to `level` primes.
    fn compact(&self, cts: &mut [FheCiphertext], level: usize) -> Result<(), FheError> {
        cts.iter_mut()
            .try_for_each(|ct| self.ctx.mod_switch_to(ct, level))
    }
}

impl std::fmt::Debug for Domain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Domain")
            .field("pasta", &self.pasta)
            .field("bfv", self.ctx.params())
            .finish_non_exhaustive()
    }
}

impl std::fmt::Debug for Tenant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tenant")
            .field("queued", &self.queue.len())
            .field("sessions", &self.sessions.active_count())
            .finish_non_exhaustive()
    }
}

/// What [`PastaServer::submit`] answered.
#[derive(Debug)]
pub enum SubmitOutcome {
    /// The request was queued; `seq` identifies it in later
    /// [`ServerEvent`]s, `ack` goes back to the client.
    Accepted {
        /// Server-wide request sequence number.
        seq: u64,
        /// The positive acknowledgement frame.
        ack: WireFrame,
    },
    /// The request was refused with a typed NACK.
    Refused {
        /// Why it was refused.
        reason: RefusalReason,
        /// The NACK frame carrying the reason.
        nack: WireFrame,
    },
}

/// Where one multiplexed request's blocks live inside a shared pass —
/// the demux bookkeeping that maps bucket output back to its tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotAssignment {
    /// Owning tenant.
    pub tenant: TenantId,
    /// Session (= PASTA nonce) the request belonged to.
    pub session: u128,
    /// Server-wide request sequence number.
    pub seq: u64,
    /// The slot range the request occupies in the shared ciphertexts.
    pub range: SlotRange,
}

/// The transciphered payload of a completion: either a private scalar
/// pass or one slot range of a shared multiplexed pass. Its ciphertexts
/// are compact: switched down to the fewest primes whose predicted
/// noise budget keeps the admission margin, which decryption accepts
/// as-is (see [`BfvContext::mod_switch_to`]).
#[derive(Debug)]
pub enum CompletionResult {
    /// One FHE ciphertext per message element (scalar pass).
    Scalar(Vec<FheCiphertext>),
    /// A slot range of a shared multiplexed pass: `positions` is the
    /// whole bucket's output (shared among the bucket's completions via
    /// [`Arc`]); `assignment.range` names this request's slots.
    Muxed {
        /// Position-major shared ciphertexts of the whole bucket.
        positions: Arc<Vec<FheCiphertext>>,
        /// This request's slot assignment inside the bucket.
        assignment: SlotAssignment,
    },
}

impl CompletionResult {
    /// Decrypts the message elements with the FHE secret key (analyst
    /// side): scalar results decrypt per-element, muxed results read the
    /// request's slot range out of the shared pass.
    ///
    /// # Errors
    ///
    /// Propagates FHE errors (muxed results whose range does not fit the
    /// shared ciphertexts).
    pub fn retrieve(&self, ctx: &BfvContext, sk: &BfvSecretKey) -> Result<Vec<u64>, FheError> {
        match self {
            CompletionResult::Scalar(cts) => {
                Ok(cts.iter().map(|ct| ctx.decrypt(sk, ct).scalar()).collect())
            }
            CompletionResult::Muxed {
                positions,
                assignment,
            } => retrieve_muxed(ctx, sk, positions, assignment.range),
        }
    }

    /// Number of message elements the result carries.
    #[must_use]
    pub fn elements(&self) -> usize {
        match self {
            CompletionResult::Scalar(cts) => cts.len(),
            CompletionResult::Muxed { assignment, .. } => assignment.range.elements,
        }
    }
}

/// A served request: the transciphered result plus its timeline.
#[derive(Debug)]
pub struct Completion {
    /// Server-wide request sequence number.
    pub seq: u64,
    /// Owning tenant.
    pub tenant: TenantId,
    /// Session (= PASTA nonce) the request belonged to.
    pub nonce: u128,
    /// Client-assigned frame ID (echoed for response matching).
    pub frame_id: u32,
    /// First PASTA block counter of the payload.
    pub counter_base: u32,
    /// FHE ciphertexts of the client's message elements (scalar or a
    /// slot range of a shared multiplexed pass).
    pub result: CompletionResult,
    /// When the request was accepted into the queue.
    pub accepted_us: u64,
    /// When service finished (virtual time).
    pub completed_us: u64,
}

/// An asynchronous server event surfaced by [`PastaServer::poll`].
#[derive(Debug)]
pub enum ServerEvent {
    /// A request finished service successfully.
    Completed(Completion),
    /// An *accepted* request was later refused (shed at its deadline, or
    /// its worker faulted); the typed NACK must reach the client — no
    /// accepted request ever disappears without one.
    Refused {
        /// Server-wide request sequence number.
        seq: u64,
        /// Owning tenant.
        tenant: TenantId,
        /// Why it was refused.
        reason: RefusalReason,
        /// The NACK frame carrying the reason.
        nack: WireFrame,
        /// When the refusal happened (virtual time).
        at_us: u64,
    },
}

/// Monotonic service counters. `accepted` always equals
/// `completed + shed_deadline + worker_faults + (still queued)` — the
/// no-silent-drops ledger the tests and the loadgen check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Frames offered to `submit`.
    pub submitted: u64,
    /// Requests accepted into a queue.
    pub accepted: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Refusals: tenant queue at capacity.
    pub refused_queue_full: u64,
    /// Refusals: noise-budget admission control (registration time).
    pub refused_budget: u64,
    /// Refusals: unknown/expired/replayed session.
    pub refused_session: u64,
    /// Refusals: frame failed decode, integrity or canonicity checks.
    pub refused_malformed: u64,
    /// Accepted requests shed because their deadline passed unserved.
    pub shed_deadline: u64,
    /// Accepted requests whose worker faulted (panic contained).
    pub worker_faults: u64,
    /// Sessions expired for idleness.
    pub sessions_expired: u64,
    /// Multiplexed buckets flushed.
    pub mux_buckets: u64,
    /// Requests served through a multiplexed pass.
    pub mux_requests: u64,
    /// Blocks carried by multiplexed passes (slots actually occupied).
    pub mux_blocks: u64,
    /// Buckets flushed because they reached the block cap.
    pub flush_full: u64,
    /// Buckets flushed because the oldest member's deadline neared.
    pub flush_deadline: u64,
    /// Buckets flushed because no new member joined within the linger
    /// window (drain).
    pub flush_drain: u64,
    /// Label of the SIMD backend (`"scalar"` / `"avx2"`) the arithmetic
    /// kernels under this server resolved to — sampled when the snapshot
    /// is taken ([`PastaServer::stats`]), so bench JSON says which
    /// backend actually produced the numbers even if a test or bench
    /// switched backends after the server was constructed.
    pub simd_backend: &'static str,
}

/// The multi-tenant transciphering service.
#[derive(Debug)]
pub struct PastaServer {
    cfg: ServerConfig,
    tenants: BTreeMap<TenantId, Tenant>,
    domains: BTreeMap<DomainId, Domain>,
    next_tenant: TenantId,
    next_seq: u64,
    pool_free_us: u64,
    fault_plan: BTreeSet<u64>,
    stats: ServerStats,
    /// Slot fill (‰ of bucket capacity) of every flushed bucket, in
    /// flush order — the occupancy histogram the load report summarizes.
    bucket_fill_permille: Vec<u32>,
}

impl PastaServer {
    /// An empty service.
    #[must_use]
    pub fn new(cfg: ServerConfig) -> Self {
        PastaServer {
            cfg,
            tenants: BTreeMap::new(),
            domains: BTreeMap::new(),
            next_tenant: 1,
            next_seq: 1,
            pool_free_us: 0,
            fault_plan: BTreeSet::new(),
            stats: ServerStats::default(),
            bucket_fill_permille: Vec::new(),
        }
    }

    /// Slot fill (‰ of bucket capacity) of every flushed bucket so far,
    /// in flush order.
    #[must_use]
    pub fn bucket_fills(&self) -> &[u32] {
        &self.bucket_fill_permille
    }

    /// The configuration the service runs under.
    #[must_use]
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// Current counters (with session expiries folded in).
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        let mut stats = self.stats;
        stats.simd_backend = pasta_math::simd::backend_label();
        stats.sessions_expired = self
            .tenants
            .values()
            .map(|t| t.sessions.expired_count())
            .sum();
        stats
    }

    /// An inert cache whose counters read zero: the service caches
    /// nothing. Kept only because the wall-clock benchmark
    /// (`perfbench`) builds against it.
    #[must_use]
    pub fn cache(&self) -> &ShardedCache {
        &ShardedCache
    }

    /// Total requests currently queued across all tenants.
    #[must_use]
    pub fn backlog(&self) -> usize {
        self.tenants.values().map(|t| t.queue.len()).sum()
    }

    /// The sequence number the next accepted request will get (lets a
    /// test or load generator aim a fault at "the Nth accepted request").
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Fault injection: the worker serving request `seq` will panic once
    /// (the panic is contained and converted to a `WorkerFault` NACK —
    /// the injection is transient, a retry of the work succeeds).
    pub fn inject_worker_fault(&mut self, seq: u64) {
        self.fault_plan.insert(seq);
    }

    /// The noise-budget admission check of [`Self::register_tenant`],
    /// callable on its own so a registrant can be refused before it pays
    /// for key generation. A registrant joining a shared FHE domain
    /// (`shared`) must also carry the domain's mux passes, so it is held
    /// to [`Layout::Mux`] as well as to the guard's own layouts. A
    /// refusal counts in `refused_budget`.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Refused`] with [`RefusalReason::BudgetRefused`]
    /// when the admission guard predicts the transciphering circuit
    /// would exhaust the noise budget under `bfv`; the refusal names the
    /// prime count that would work.
    pub(crate) fn admit(
        &mut self,
        pasta: &PastaParams,
        bfv: &BfvParams,
        shared: bool,
    ) -> Result<(), PipelineError> {
        let guard = &self.cfg.admission;
        let mut layouts = Layout::guarded(guard.batched).to_vec();
        if shared {
            layouts.push(Layout::Mux);
        }
        let Err(err) = guard.check_layouts(&layouts, pasta, bfv) else {
            return Ok(());
        };
        self.stats.refused_budget += 1;
        let suggested = match err {
            PipelineError::NoiseBudget {
                suggested_prime_count,
                ..
            } => suggested_prime_count.and_then(|c| u32::try_from(c).ok()),
            _ => None,
        };
        Err(PipelineError::Refused(RefusalReason::BudgetRefused {
            suggested_primes: suggested,
        }))
    }

    /// Registers a tenant: noise-budget admission, then key-shape and
    /// domain-match validation, and only then any state change. A new
    /// domain (or a tenant outside any domain) gets its BFV context and
    /// evaluator built here; a tenant joining an existing domain builds
    /// neither.
    ///
    /// # Errors
    ///
    /// - [`PipelineError::Refused`] with
    ///   [`RefusalReason::BudgetRefused`] when the admission guard
    ///   predicts the transciphering circuit (for a registrant joining a
    ///   shared domain, the mux circuit too) would exhaust the noise
    ///   budget under the tenant's BFV parameters (the refusal names the
    ///   prime count that would work);
    /// - [`PipelineError::Fhe`] when the BFV parameters are invalid, the
    ///   encrypted key has the wrong shape, or the tenant asks to join an
    ///   FHE domain whose `(pasta, bfv)` parameters differ from its own
    ///   (domains must be parameter-homogeneous — bucket members share
    ///   one slot layout and one evaluation circuit).
    pub fn register_tenant(&mut self, prov: TenantProvision) -> Result<TenantId, PipelineError> {
        self.admit(&prov.pasta, &prov.bfv, prov.fhe_domain.is_some())?;
        let domain = match prov.fhe_domain {
            Some(id) => DomainId::Shared(id),
            None => DomainId::Private(self.next_tenant),
        };
        if let Some(existing) = self.domains.get(&domain) {
            if existing.pasta != prov.pasta || *existing.ctx.params() != prov.bfv {
                return Err(PipelineError::Fhe(FheError::Incompatible(
                    "FHE domains are parameter-homogeneous: registrant's (pasta, bfv) \
                     differ from the domain's"
                        .into(),
                )));
            }
            existing.hhe.check_key(&prov.encrypted_key)?;
        } else {
            let d = Domain::new(
                prov.pasta,
                prov.bfv,
                prov.relin_key,
                self.cfg.admission.margin_bits,
            )?;
            d.hhe.check_key(&prov.encrypted_key)?;
            self.domains.insert(domain, d);
        }
        let id = self.next_tenant;
        self.next_tenant += 1;
        self.tenants.insert(
            id,
            Tenant {
                params: prov.pasta,
                key: prov.encrypted_key,
                domain,
                sessions: SessionTable::new(self.cfg.idle_timeout_us),
                queue: VecDeque::new(),
            },
        );
        Ok(id)
    }

    /// Opens a session for `tenant` under `nonce` (the session ID; see
    /// [`crate::session`] for the replay rules).
    ///
    /// The call first sweeps the tenant's sessions idle past
    /// `idle_timeout_us` at `now_us`, so a tenant holds only the
    /// sessions opened or touched within one idle timeout. That relies
    /// on the `open_session`/`submit` stamps of one tenant never
    /// decreasing (the edge's own clock); `poll` stamps may run ahead of
    /// them and do not sweep.
    ///
    /// # Errors
    ///
    /// [`RefusalReason::SessionExpired`] for an unknown tenant or a
    /// replayed nonce.
    pub fn open_session(
        &mut self,
        now_us: u64,
        tenant: TenantId,
        nonce: u128,
    ) -> Result<(), RefusalReason> {
        let Some(t) = self.tenants.get_mut(&tenant) else {
            self.stats.refused_session += 1;
            return Err(RefusalReason::SessionExpired);
        };
        t.sessions.expire_idle(now_us);
        t.sessions.open(now_us, nonce).inspect_err(|_| {
            self.stats.refused_session += 1;
        })
    }

    /// Offers one received wire frame to the service. Every outcome is
    /// explicit: either the request is queued (ACK) or it is refused
    /// with a typed NACK — hostile bytes can make the server *refuse*,
    /// never panic.
    ///
    /// A request is one whole session payload: its blocks are
    /// transciphered from counter `0`. A data frame whose
    /// `counter_base` is not `0` is refused as
    /// [`RefusalReason::Malformed`] (counted in `refused_malformed`)
    /// rather than transciphered under the wrong counters.
    pub fn submit(&mut self, now_us: u64, tenant: TenantId, bytes: &[u8]) -> SubmitOutcome {
        self.stats.submitted += 1;
        let Ok(frame) = WireFrame::decode(bytes) else {
            // Undecodable: the NACK cannot name the frame, same as the
            // session layer's blind NACK convention.
            return self.refuse(0, 0, RefusalReason::Malformed);
        };
        if frame.kind != FrameKind::Data || frame.counter_base != 0 {
            return self.refuse(frame.frame_id, frame.counter_base, RefusalReason::Malformed);
        }
        let deadline_us = now_us.saturating_add(self.cfg.deadline_us);
        let queue_capacity = self.cfg.queue_capacity;
        let Some(t) = self.tenants.get_mut(&tenant) else {
            return self.refuse(
                frame.frame_id,
                frame.counter_base,
                RefusalReason::SessionExpired,
            );
        };
        if let Err(reason) = t.sessions.touch(now_us, frame.nonce) {
            return self.refuse(frame.frame_id, frame.counter_base, reason);
        }
        let bits = t.params.modulus().bits();
        let count = pack::elements_in(frame.payload.len(), bits);
        if count == 0 {
            return self.refuse(frame.frame_id, frame.counter_base, RefusalReason::Malformed);
        }
        let elements = pack::unpack_bits(&frame.payload, bits, count);
        let Ok(ct) = pack::ciphertext_from_elements(&t.params, frame.nonce, &elements) else {
            return self.refuse(frame.frame_id, frame.counter_base, RefusalReason::Malformed);
        };
        if t.queue.len() >= queue_capacity {
            return self.refuse(frame.frame_id, frame.counter_base, RefusalReason::QueueFull);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let ack = WireFrame::ack(&frame);
        t.queue.push_back(QueuedRequest {
            seq,
            tenant,
            nonce: frame.nonce,
            frame_id: frame.frame_id,
            counter_base: frame.counter_base,
            ct,
            enqueued_us: now_us,
            deadline_us,
        });
        self.stats.accepted += 1;
        SubmitOutcome::Accepted { seq, ack }
    }

    /// Builds a refusal outcome and counts it.
    fn refuse(&mut self, frame_id: u32, counter_base: u32, reason: RefusalReason) -> SubmitOutcome {
        match reason {
            RefusalReason::QueueFull => self.stats.refused_queue_full += 1,
            RefusalReason::SessionExpired => self.stats.refused_session += 1,
            RefusalReason::Malformed => self.stats.refused_malformed += 1,
            RefusalReason::BudgetRefused { .. } => self.stats.refused_budget += 1,
            RefusalReason::Deadline => self.stats.shed_deadline += 1,
            RefusalReason::WorkerFault => self.stats.worker_faults += 1,
        }
        SubmitOutcome::Refused {
            reason,
            nack: WireFrame::nack_with_reason(frame_id, counter_base, reason),
        }
    }

    /// Runs the scheduler up to virtual time `now_us` and returns every
    /// event (completions and refusals of previously accepted requests)
    /// it produced.
    ///
    /// Scheduling is round-based: a round starts when the worker pool is
    /// free and at least one request is runnable, sheds every queued
    /// request whose deadline has already passed (oldest deadline
    /// first), then plans up to `workers` service units. With
    /// multiplexing enabled, same-domain tenants' runnable requests are
    /// packed into buckets first (each bucket one unit); remaining slots
    /// fill with scalar requests picked round-robin across the other
    /// tenants (FIFO — and therefore earliest-deadline-first — within
    /// each tenant). A partial bucket whose flush triggers have not
    /// fired yet *waits*: the round clock jumps to its next flush
    /// decision instead of serving early. The round structure — bucket
    /// membership, flush causes, timings — depends only on virtual
    /// timestamps, never on how often `poll` is called, so a run replays
    /// identically for any poll cadence and any `PASTA_THREADS`.
    pub fn poll(&mut self, now_us: u64) -> Vec<ServerEvent> {
        let mut events = Vec::new();
        // Lower bound on the next round start, advanced past lingering
        // buckets' flush-decision instants (re-derived per call: the
        // triggers are pure timestamp functions, so split and merged
        // polls reach identical rounds).
        let mut floor = 0u64;
        while let Some(earliest) = self
            .tenants
            .values()
            .flat_map(|t| t.queue.iter().map(|r| r.enqueued_us))
            .min()
        {
            let round_start = self.pool_free_us.max(earliest).max(floor);
            if round_start >= now_us {
                break;
            }
            self.shed_overdue(round_start, &mut events);
            let (units, next_decision) = self.plan_round(round_start);
            if units.is_empty() {
                // Only lingering buckets are runnable. The next thing
                // that can change the plan is either a flush trigger
                // firing or a queued-but-not-yet-runnable request
                // arriving — whichever comes first.
                let next_arrival = self
                    .tenants
                    .values()
                    .flat_map(|t| t.queue.iter().map(|r| r.enqueued_us))
                    .filter(|&e| e > round_start)
                    .min();
                let wake = match (next_decision, next_arrival) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
                match wake {
                    // Jump the round clock to the next decision point.
                    Some(at) if at < now_us => {
                        floor = floor.max(at.max(round_start.saturating_add(1)));
                        continue;
                    }
                    // The next decision point lies beyond `now`.
                    Some(_) => break,
                    // Everything runnable was shed; re-evaluate.
                    None => continue,
                }
            }
            let tenants = &self.tenants;
            let domains = &self.domains;
            let fault_plan = &self.fault_plan;
            // The worker pool: the real FHE transciphering fans out
            // here. Panics — injected or real — are caught inside each
            // per-unit closure (a panic reaching the pool's scope join
            // would take the whole service down). A faulting bucket
            // takes all its members down together — they shared one
            // pass — and each gets a retryable WorkerFault NACK.
            let results = pasta_par::parallel_map(&units, |_, unit| {
                catch_unwind(AssertUnwindSafe(|| {
                    serve(unit, tenants, domains, fault_plan)
                }))
                .unwrap_or(Err(RefusalReason::WorkerFault))
            });
            let mut round_len_us = 1;
            for (unit, outcome) in units.into_iter().zip(results) {
                let service_us = match &unit.bucket {
                    Some(_) => self.cfg.multiplex.service_us_per_pass.max(1),
                    None => {
                        let blocks: usize = unit
                            .members
                            .iter()
                            .map(|req| {
                                let block_size = self
                                    .tenants
                                    .get(&req.tenant)
                                    .map_or(1, |t| t.params.t().max(1));
                                req.ct.len().div_ceil(block_size).max(1)
                            })
                            .sum();
                        blocks as u64 * self.cfg.service_us_per_block.max(1)
                    }
                };
                round_len_us = round_len_us.max(service_us);
                let completed_us = round_start + service_us;
                for req in &unit.members {
                    self.fault_plan.remove(&req.seq);
                }
                match outcome {
                    Ok(results) => {
                        if let Some(bucket) = &unit.bucket {
                            self.stats.mux_buckets += 1;
                            match bucket.cause {
                                FlushCause::Full => self.stats.flush_full += 1,
                                FlushCause::Deadline => self.stats.flush_deadline += 1,
                                FlushCause::Drain => self.stats.flush_drain += 1,
                            }
                            self.stats.mux_blocks += bucket.total_blocks as u64;
                            self.stats.mux_requests += unit.members.len() as u64;
                            let fill = (bucket.total_blocks * 1000) / bucket.capacity.max(1);
                            self.bucket_fill_permille
                                .push(u32::try_from(fill).unwrap_or(0));
                        }
                        for (req, result) in unit.members.into_iter().zip(results) {
                            self.stats.completed += 1;
                            events.push(ServerEvent::Completed(Completion {
                                seq: req.seq,
                                tenant: req.tenant,
                                nonce: req.nonce,
                                frame_id: req.frame_id,
                                counter_base: req.counter_base,
                                result,
                                accepted_us: req.enqueued_us,
                                completed_us,
                            }));
                        }
                    }
                    Err(reason) => {
                        for req in &unit.members {
                            self.stats.worker_faults += 1;
                            events.push(refused(req, reason, completed_us));
                        }
                    }
                }
            }
            self.pool_free_us = round_start + round_len_us;
        }
        events
    }

    /// Sheds every queued request whose deadline passed before
    /// `round_start`, emitting `Deadline` NACK events oldest-deadline
    /// first.
    fn shed_overdue(&mut self, round_start: u64, events: &mut Vec<ServerEvent>) {
        let mut shed: Vec<QueuedRequest> = Vec::new();
        for t in self.tenants.values_mut() {
            let mut keep = VecDeque::with_capacity(t.queue.len());
            while let Some(req) = t.queue.pop_front() {
                if req.enqueued_us <= round_start && req.deadline_us <= round_start {
                    shed.push(req);
                } else {
                    keep.push_back(req);
                }
            }
            t.queue = keep;
        }
        shed.sort_by_key(|r| (r.deadline_us, r.seq));
        for req in &shed {
            self.stats.shed_deadline += 1;
            events.push(refused(req, RefusalReason::Deadline, round_start));
        }
    }

    /// Plans one round's worth of service units: multiplexed buckets
    /// first (when enabled), then scalar requests filling the remaining
    /// worker slots. Returns the units plus, when a partial bucket is
    /// deliberately left lingering, the earliest future instant at
    /// which one of its flush triggers will fire.
    fn plan_round(&mut self, round_start: u64) -> (Vec<RoundUnit>, Option<u64>) {
        let workers = self.cfg.workers.max(1);
        let mux_on = self.cfg.multiplex.enabled;
        let mut units: Vec<RoundUnit> = Vec::new();
        let mut next_decision: Option<u64> = None;
        if mux_on {
            let domain_ids: Vec<DomainId> = self.domains.keys().copied().collect();
            for domain in domain_ids {
                self.plan_domain(domain, round_start, workers, &mut units, &mut next_decision);
            }
        }
        let remaining = workers.saturating_sub(units.len());
        units.extend(
            self.select_scalar(round_start, remaining, mux_on)
                .into_iter()
                .map(RoundUnit::scalar),
        );
        (units, next_decision)
    }

    /// Packs one domain's runnable requests into buckets and appends the
    /// flushable ones to `units` (bounded by `workers` slots).
    ///
    /// Candidates are every member tenant's runnable FIFO queue prefix,
    /// gathered tenant-ascending, and greedily split in that order into
    /// buckets of at most `cap` blocks. Every bucket but the last is
    /// full by construction and flushes as [`FlushCause::Full`]; the
    /// final (partial) bucket flushes only when the deadline or linger
    /// trigger has fired, otherwise the earlier of the two trigger
    /// instants is merged into `next_decision` and the bucket waits.
    /// Served candidates always form a per-tenant queue prefix, so
    /// popping by per-tenant count preserves FIFO order. A request too
    /// large for any bucket (`blocks > cap`) becomes its own scalar
    /// unit so it cannot starve the queue behind it.
    fn plan_domain(
        &mut self,
        domain: DomainId,
        round_start: u64,
        workers: usize,
        units: &mut Vec<RoundUnit>,
        next_decision: &mut Option<u64>,
    ) {
        struct Cand {
            tenant: TenantId,
            blocks: usize,
            elements: usize,
            enqueued_us: u64,
            deadline_us: u64,
        }
        enum Group {
            Bucket {
                cands: Vec<Cand>,
                total_blocks: usize,
                cause: FlushCause,
            },
            Oversized(Cand),
        }
        let (DomainId::Shared(id), Some(d)) = (domain, self.domains.get(&domain)) else {
            return;
        };
        let t = d.pasta.t().max(1);
        let cap = self
            .cfg
            .multiplex
            .max_bucket_blocks
            .max(1)
            .min(d.hhe.capacity().max(1));
        let mut cands: Vec<Cand> = Vec::new();
        for (&id, tenant) in &self.tenants {
            if tenant.domain != domain {
                continue;
            }
            for req in tenant
                .queue
                .iter()
                .take_while(|r| r.enqueued_us <= round_start)
            {
                let elements = req.ct.len();
                cands.push(Cand {
                    tenant: id,
                    blocks: elements.div_ceil(t).max(1),
                    elements,
                    enqueued_us: req.enqueued_us,
                    deadline_us: req.deadline_us,
                });
            }
        }
        if cands.is_empty() {
            return;
        }
        // Greedy split into groups, in candidate order.
        let mut groups: Vec<Group> = Vec::new();
        let mut current: Vec<Cand> = Vec::new();
        let mut current_blocks = 0usize;
        for cand in cands {
            if cand.blocks > cap {
                if !current.is_empty() {
                    groups.push(Group::Bucket {
                        cands: std::mem::take(&mut current),
                        total_blocks: current_blocks,
                        cause: FlushCause::Full,
                    });
                    current_blocks = 0;
                }
                groups.push(Group::Oversized(cand));
                continue;
            }
            if current_blocks + cand.blocks > cap {
                groups.push(Group::Bucket {
                    cands: std::mem::take(&mut current),
                    total_blocks: current_blocks,
                    cause: FlushCause::Full,
                });
                current_blocks = 0;
            }
            current_blocks += cand.blocks;
            current.push(cand);
        }
        if !current.is_empty() {
            groups.push(Group::Bucket {
                cands: current,
                total_blocks: current_blocks,
                cause: FlushCause::Full,
            });
        }
        // Decide the trailing partial bucket's fate.
        if let Some(Group::Bucket {
            cands,
            total_blocks,
            cause,
        }) = groups.last_mut()
        {
            if *total_blocks < cap {
                let min_deadline = cands.iter().map(|c| c.deadline_us).min().unwrap_or(0);
                let max_enqueued = cands.iter().map(|c| c.enqueued_us).max().unwrap_or(0);
                let deadline_at = min_deadline.saturating_sub(self.cfg.multiplex.flush_margin_us);
                let drain_at = max_enqueued.saturating_add(self.cfg.multiplex.linger_us);
                if deadline_at <= round_start {
                    *cause = FlushCause::Deadline;
                } else if drain_at <= round_start {
                    *cause = FlushCause::Drain;
                } else {
                    let at = deadline_at.min(drain_at);
                    *next_decision = Some(next_decision.map_or(at, |cur| cur.min(at)));
                    groups.pop();
                }
            }
        }
        // Serve groups in order, stopping at the first that does not
        // fit: later candidates must not be served before earlier ones
        // of the same tenant.
        let mut served: Vec<Group> = Vec::new();
        let mut pop_counts: BTreeMap<TenantId, usize> = BTreeMap::new();
        for group in groups {
            if units.len() + served.len() >= workers {
                break;
            }
            match &group {
                Group::Bucket { cands, .. } => {
                    for c in cands {
                        *pop_counts.entry(c.tenant).or_insert(0) += 1;
                    }
                }
                Group::Oversized(c) => {
                    *pop_counts.entry(c.tenant).or_insert(0) += 1;
                }
            }
            served.push(group);
        }
        if served.is_empty() {
            return;
        }
        // Pop each tenant's served prefix, then re-distribute the
        // requests to their groups in candidate order.
        let mut popped: BTreeMap<TenantId, VecDeque<QueuedRequest>> = BTreeMap::new();
        for (&tenant, &count) in &pop_counts {
            if let Some(t) = self.tenants.get_mut(&tenant) {
                let mut reqs = VecDeque::with_capacity(count);
                for _ in 0..count {
                    if let Some(req) = t.queue.pop_front() {
                        reqs.push_back(req);
                    }
                }
                popped.insert(tenant, reqs);
            }
        }
        for group in served {
            match group {
                Group::Bucket {
                    cands,
                    total_blocks,
                    cause,
                } => {
                    let mut members = Vec::with_capacity(cands.len());
                    let mut assignments = Vec::with_capacity(cands.len());
                    let mut start = 0usize;
                    for c in cands {
                        let Some(req) = popped.get_mut(&c.tenant).and_then(VecDeque::pop_front)
                        else {
                            continue;
                        };
                        assignments.push(SlotAssignment {
                            tenant: req.tenant,
                            session: req.nonce,
                            seq: req.seq,
                            range: SlotRange {
                                start,
                                blocks: c.blocks,
                                elements: c.elements,
                            },
                        });
                        start += c.blocks;
                        members.push(req);
                    }
                    units.push(RoundUnit {
                        members,
                        bucket: Some(Bucket {
                            domain: id,
                            cause,
                            assignments,
                            total_blocks,
                            capacity: cap,
                        }),
                    });
                }
                Group::Oversized(c) => {
                    if let Some(req) = popped.get_mut(&c.tenant).and_then(VecDeque::pop_front) {
                        units.push(RoundUnit::scalar(req));
                    }
                }
            }
        }
    }

    /// Picks up to `limit` runnable requests round-robin across tenants
    /// (one per tenant per sweep; FIFO within a tenant). When
    /// `skip_domains` is set, tenants belonging to a multiplexing
    /// domain are left alone — their requests travel in buckets.
    fn select_scalar(
        &mut self,
        round_start: u64,
        limit: usize,
        skip_domains: bool,
    ) -> Vec<QueuedRequest> {
        let mut batch = Vec::new();
        if limit == 0 {
            return batch;
        }
        loop {
            let mut picked_any = false;
            for t in self.tenants.values_mut() {
                if batch.len() >= limit {
                    return batch;
                }
                if skip_domains && matches!(t.domain, DomainId::Shared(_)) {
                    continue;
                }
                let runnable = t
                    .queue
                    .front()
                    .is_some_and(|req| req.enqueued_us <= round_start);
                if runnable {
                    if let Some(req) = t.queue.pop_front() {
                        batch.push(req);
                        picked_any = true;
                    }
                }
            }
            if !picked_any {
                return batch;
            }
        }
    }
}

/// The `Refused` event (and its NACK) for an accepted request.
fn refused(req: &QueuedRequest, reason: RefusalReason, at_us: u64) -> ServerEvent {
    ServerEvent::Refused {
        seq: req.seq,
        tenant: req.tenant,
        reason,
        nack: WireFrame::nack_with_reason(req.frame_id, req.counter_base, reason),
        at_us,
    }
}

/// Serves one round unit on a worker: one result per member, in member
/// order, or the refusal every member gets.
fn serve(
    unit: &RoundUnit,
    tenants: &BTreeMap<TenantId, Tenant>,
    domains: &BTreeMap<DomainId, Domain>,
    fault_plan: &BTreeSet<u64>,
) -> Result<Vec<CompletionResult>, RefusalReason> {
    if let Some(req) = unit.members.iter().find(|r| fault_plan.contains(&r.seq)) {
        // audit: allow(panic, reason = "fault-injection hook: the panic is contained by the caller's catch_unwind and surfaced as a typed WorkerFault NACK for every member of the unit")
        panic!("injected worker fault on request {}", req.seq);
    }
    let fault = |_| RefusalReason::WorkerFault;
    let tenant = |req: &QueuedRequest| tenants.get(&req.tenant).ok_or(RefusalReason::WorkerFault);
    let domain = |id: DomainId| domains.get(&id).ok_or(RefusalReason::WorkerFault);
    let Some(bucket) = &unit.bucket else {
        return unit
            .members
            .iter()
            .map(|req| {
                let t = tenant(req)?;
                let d = domain(t.domain)?;
                let mut cts = d.hhe.transcipher(&d.ctx, &t.key, &req.ct).map_err(fault)?;
                d.compact(&mut cts, d.scalar_level).map_err(fault)?;
                Ok(CompletionResult::Scalar(cts))
            })
            .collect();
    };
    let d = domain(DomainId::Shared(bucket.domain))?;
    let members = unit
        .members
        .iter()
        .map(|req| {
            Ok(MuxMember {
                tenant: req.tenant,
                encrypted_key: &tenant(req)?.key,
                ct: &req.ct,
            })
        })
        .collect::<Result<Vec<_>, RefusalReason>>()?;
    let mut positions = d
        .hhe
        .transcipher_mux(&d.ctx, &members)
        .map_err(fault)?
        .positions;
    d.compact(&mut positions, d.mux_level).map_err(fault)?;
    let positions = Arc::new(positions);
    Ok(bucket
        .assignments
        .iter()
        .map(|&assignment| CompletionResult::Muxed {
            positions: Arc::clone(&positions),
            assignment,
        })
        .collect())
}
