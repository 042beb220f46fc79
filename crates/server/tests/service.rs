//! Service-level behavior: the transciphering roundtrip, backpressure,
//! session lifecycle, deadline shedding, worker-fault containment,
//! admission control, frame validation, per-domain mux isolation, and
//! the quick acceptance scenario from the loadgen.

mod common;

use pasta_fhe::noise::{compact_level, transcipher_noise, Layout, NoiseModel};
use pasta_fhe::BfvParams;
use pasta_pipeline::{pack, PipelineError, RefusalReason, WireFrame};
use pasta_server::{
    run_loadgen, CompletionResult, LoadgenConfig, MultiplexConfig, PastaServer, ServerConfig,
    ServerEvent, SubmitOutcome,
};

fn expect_accept(outcome: SubmitOutcome) -> u64 {
    match outcome {
        SubmitOutcome::Accepted { seq, .. } => seq,
        SubmitOutcome::Refused { reason, .. } => panic!("expected accept, got {reason:?}"),
    }
}

/// Every refusal must carry a typed NACK that survives the wire.
fn expect_refusal(outcome: SubmitOutcome) -> RefusalReason {
    match outcome {
        SubmitOutcome::Refused { reason, nack } => {
            let decoded = WireFrame::decode(&nack.encode()).expect("NACKs must encode cleanly");
            assert_eq!(
                decoded.refusal_reason(),
                Some(reason),
                "typed reason must roundtrip through the NACK payload"
            );
            reason
        }
        SubmitOutcome::Accepted { seq, .. } => panic!("expected refusal, got accept seq {seq}"),
    }
}

#[test]
fn transciphers_end_to_end() {
    let mut fx = common::fixture(ServerConfig::default());
    let msg = fx.side.message(1);
    fx.server.open_session(0, fx.side.tenant, 77).unwrap();
    let frame = fx.side.data_frame(77, 5, &msg);
    let seq = expect_accept(fx.server.submit(10, fx.side.tenant, &frame));
    let events = fx.server.poll(1_000_000);
    assert_eq!(events.len(), 1);
    match &events[0] {
        ServerEvent::Completed(c) => {
            assert_eq!(c.seq, seq);
            assert_eq!(c.frame_id, 5);
            assert_eq!(c.nonce, 77);
            assert!(c.completed_us > c.accepted_us);
            let recovered = c.result.retrieve(&fx.side.ctx, &fx.side.sk).unwrap();
            assert_eq!(recovered, msg, "completion must decrypt to the original");
        }
        other => panic!("expected a completion, got {other:?}"),
    }
    let stats = fx.server.stats();
    assert_eq!((stats.accepted, stats.completed), (1, 1));
}

#[test]
fn scalar_results_are_switched_to_the_fewest_primes_the_margin_allows() {
    let cfg = ServerConfig::default();
    let margin = cfg.admission.margin_bits;
    let mut fx = common::fixture(cfg);
    let (ctx, sk) = (&fx.side.ctx, &fx.side.sk);
    let msg = fx.side.message(3);
    fx.server.open_session(0, fx.side.tenant, 91).unwrap();
    expect_accept(
        fx.server
            .submit(10, fx.side.tenant, &fx.side.data_frame(91, 1, &msg)),
    );
    let events = fx.server.poll(1_000_000);
    let [ServerEvent::Completed(c)] = &events[..] else {
        panic!("expected one completion, got {events:?}");
    };
    let CompletionResult::Scalar(cts) = &c.result else {
        panic!("a domainless tenant's result is scalar");
    };
    // The level the model picks for the scalar circuit.
    let params = fx.side.params;
    let end = transcipher_noise(
        params.t(),
        params.rounds(),
        Layout::Scalar,
        NoiseModel::fresh(ctx),
    );
    let level = compact_level(ctx, end, margin);
    let top = ctx.basis().len();
    assert!(level < top, "the tiny circuit leaves primes to drop");
    let predicted = end
        .after_mod_switch(ctx.level_q_bits(level))
        .predicted_budget();
    assert!(predicted >= margin, "{predicted:.1} bits predicted");
    let full_bytes = ctx.encrypt_trivial(&ctx.encode_scalar(0)).size_bytes(ctx);
    for ct in cts {
        assert_eq!(ct.level(), level);
        let measured = f64::from(ctx.noise_budget(sk, ct));
        assert!(
            measured >= predicted,
            "measured {measured} bits below the predicted {predicted:.1}"
        );
        assert_eq!(
            ct.size_bytes(ctx) * top,
            full_bytes * level,
            "bytes fall by L/ℓ"
        );
    }
    assert_eq!(c.result.retrieve(ctx, sk).unwrap(), msg);
    // A compact result still takes the public-constant add the
    // benchmark's tamper check applies.
    let mut tampered = cts[0].clone();
    ctx.add_scalar_assign(&mut tampered, 1);
    assert_eq!(
        ctx.decrypt(sk, &tampered).scalar(),
        (msg[0] + 1) % params.modulus().value()
    );
}

#[test]
fn full_queue_answers_backpressure_and_recovers() {
    let mut fx = common::fixture(ServerConfig {
        queue_capacity: 2,
        ..ServerConfig::default()
    });
    for nonce in [1u128, 2, 3] {
        fx.server.open_session(0, fx.side.tenant, nonce).unwrap();
    }
    let msg = fx.side.message(2);
    expect_accept(
        fx.server
            .submit(0, fx.side.tenant, &fx.side.data_frame(1, 1, &msg)),
    );
    expect_accept(
        fx.server
            .submit(0, fx.side.tenant, &fx.side.data_frame(2, 2, &msg)),
    );
    let overflow = fx.side.data_frame(3, 3, &msg);
    let reason = expect_refusal(fx.server.submit(0, fx.side.tenant, &overflow));
    assert_eq!(reason, RefusalReason::QueueFull);
    assert!(reason.is_retryable(), "backpressure is transient");
    assert_eq!(fx.server.stats().refused_queue_full, 1);

    // Queue drains; the same frame retried later is accepted and served.
    let events = fx.server.poll(u64::MAX / 2);
    assert_eq!(events.len(), 2);
    expect_accept(fx.server.submit(300_000, fx.side.tenant, &overflow));
    let events = fx.server.poll(u64::MAX / 2);
    assert!(matches!(events.as_slice(), [ServerEvent::Completed(_)]));
    let stats = fx.server.stats();
    assert_eq!((stats.accepted, stats.completed), (3, 3));
}

#[test]
fn unknown_tenants_and_sessions_are_refused() {
    let mut fx = common::fixture(ServerConfig::default());
    let msg = fx.side.message(3);
    let frame = fx.side.data_frame(50, 1, &msg);
    // Unknown tenant.
    assert_eq!(
        expect_refusal(fx.server.submit(0, 999, &frame)),
        RefusalReason::SessionExpired
    );
    // Known tenant, session never opened.
    assert_eq!(
        expect_refusal(fx.server.submit(0, fx.side.tenant, &frame)),
        RefusalReason::SessionExpired
    );
    assert_eq!(fx.server.stats().refused_session, 2);
    assert_eq!(fx.server.backlog(), 0);
}

#[test]
fn idle_sessions_are_swept_when_the_tenant_opens_another() {
    let mut fx = common::fixture(ServerConfig {
        idle_timeout_us: 1_000,
        ..ServerConfig::default()
    });
    let msg = fx.side.message(2);
    fx.server.open_session(0, fx.side.tenant, 11).unwrap();
    expect_accept(
        fx.server
            .submit(10, fx.side.tenant, &fx.side.data_frame(11, 0, &msg)),
    );
    let events = fx.server.poll(100);
    assert!(matches!(events.as_slice(), [ServerEvent::Completed(_)]));
    // Served, then never touched again: the next open, past the idle
    // timeout, sweeps it.
    assert_eq!(fx.server.stats().sessions_expired, 0);
    fx.server.open_session(2_000, fx.side.tenant, 12).unwrap();
    assert_eq!(fx.server.stats().sessions_expired, 1);
    assert_eq!(fx.server.stats().refused_session, 0);
}

#[test]
fn idle_sessions_expire_and_stay_burned() {
    let mut fx = common::fixture(ServerConfig {
        idle_timeout_us: 1_000,
        ..ServerConfig::default()
    });
    fx.server.open_session(0, fx.side.tenant, 5).unwrap();
    let msg = fx.side.message(4);
    let frame = fx.side.data_frame(5, 1, &msg);
    let reason = expect_refusal(fx.server.submit(5_000, fx.side.tenant, &frame));
    assert_eq!(reason, RefusalReason::SessionExpired);
    assert!(
        !reason.is_retryable(),
        "client must re-establish, not retry"
    );
    let stats = fx.server.stats();
    assert_eq!((stats.sessions_expired, stats.refused_session), (1, 1));
    // The expired session's nonce is burned forever (replay = keystream
    // reuse); a fresh nonce works immediately.
    assert_eq!(
        fx.server.open_session(6_000, fx.side.tenant, 5),
        Err(RefusalReason::SessionExpired)
    );
    fx.server.open_session(6_000, fx.side.tenant, 6).unwrap();
    expect_accept(
        fx.server
            .submit(6_010, fx.side.tenant, &fx.side.data_frame(6, 2, &msg)),
    );
}

#[test]
fn overdue_requests_are_shed_with_deadline_nacks() {
    // One worker, 100 ms service, 150 ms deadline: of four requests
    // submitted up front, the first two are served back-to-back and the
    // last two blow their deadlines waiting and are shed (in deadline
    // order) when the pool next frees up.
    let mut fx = common::fixture(ServerConfig {
        workers: 1,
        service_us_per_block: 100_000,
        deadline_us: 150_000,
        ..ServerConfig::default()
    });
    let msg = fx.side.message(5);
    let mut seqs = Vec::new();
    for (nonce, at_us) in [(1u128, 0u64), (2, 0), (3, 0), (4, 10)] {
        fx.server
            .open_session(at_us, fx.side.tenant, nonce)
            .unwrap();
        let frame = fx.side.data_frame(nonce, nonce as u32, &msg);
        seqs.push(expect_accept(fx.server.submit(
            at_us,
            fx.side.tenant,
            &frame,
        )));
    }
    let events = fx.server.poll(u64::MAX / 2);
    let completed: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            ServerEvent::Completed(c) => Some(c.seq),
            ServerEvent::Refused { .. } => None,
        })
        .collect();
    let shed: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            ServerEvent::Refused {
                seq,
                reason: RefusalReason::Deadline,
                nack,
                ..
            } => {
                let decoded = WireFrame::decode(&nack.encode()).unwrap();
                assert_eq!(decoded.refusal_reason(), Some(RefusalReason::Deadline));
                Some(*seq)
            }
            _ => None,
        })
        .collect();
    assert_eq!(completed, vec![seqs[0], seqs[1]], "FIFO service order");
    assert_eq!(shed, vec![seqs[2], seqs[3]], "oldest deadline shed first");
    let stats = fx.server.stats();
    assert_eq!((stats.completed, stats.shed_deadline), (2, 2));
    assert_eq!(
        stats.accepted,
        stats.completed + stats.shed_deadline,
        "no accepted request vanished without an event"
    );
}

#[test]
fn worker_fault_is_contained_and_transient() {
    let mut fx = common::fixture(ServerConfig::default());
    fx.server.open_session(0, fx.side.tenant, 9).unwrap();
    let target = fx.server.next_seq();
    fx.server.inject_worker_fault(target);
    let msg = fx.side.message(6);
    let frame = fx.side.data_frame(9, 1, &msg);
    let seq = expect_accept(fx.server.submit(10, fx.side.tenant, &frame));
    assert_eq!(seq, target);
    let events = fx.server.poll(1_000_000);
    match events.as_slice() {
        [ServerEvent::Refused {
            seq: refused,
            reason,
            nack,
            ..
        }] => {
            assert_eq!(*refused, target);
            assert_eq!(*reason, RefusalReason::WorkerFault);
            assert!(reason.is_retryable(), "the injected fault is one-shot");
            let decoded = WireFrame::decode(&nack.encode()).unwrap();
            assert_eq!(decoded.refusal_reason(), Some(RefusalReason::WorkerFault));
        }
        other => panic!("expected one WorkerFault refusal, got {other:?}"),
    }
    // The retry of the same work succeeds: the panic was contained, the
    // service (and the session) survived it.
    expect_accept(fx.server.submit(50_000, fx.side.tenant, &frame));
    let events = fx.server.poll(u64::MAX / 2);
    match events.as_slice() {
        [ServerEvent::Completed(c)] => {
            let recovered = c.result.retrieve(&fx.side.ctx, &fx.side.sk).unwrap();
            assert_eq!(recovered, msg);
        }
        other => panic!("expected a completion, got {other:?}"),
    }
    let stats = fx.server.stats();
    assert_eq!(
        (stats.accepted, stats.completed, stats.worker_faults),
        (2, 1, 1)
    );
}

#[test]
fn admission_control_refuses_with_a_suggestion() {
    let mut fx = common::fixture(ServerConfig::default());
    let starved = BfvParams {
        prime_count: 2,
        ..BfvParams::test_tiny()
    };
    let (prov, ..) = common::make_provision(common::tiny_pasta(), starved, starved, 99, b"starved");
    match fx.server.register_tenant(prov) {
        Err(PipelineError::Refused(reason @ RefusalReason::BudgetRefused { suggested_primes })) => {
            let suggested = suggested_primes.expect("tiny circuit has a workable prime count");
            assert!(suggested > 2, "suggestion {suggested} must exceed the ask");
            assert!(
                !reason.is_retryable(),
                "resubmitting the same parameters cannot help"
            );
        }
        other => panic!("expected BudgetRefused, got {other:?}"),
    }
    assert_eq!(fx.server.stats().refused_budget, 1);
    // The refusal happened before any state was allocated for the
    // tenant: valid registrations still work.
    common::register(&mut fx.server, 7, b"post-refusal tenant");
}

#[test]
fn nonzero_counter_base_is_refused_as_malformed() {
    // A request is transciphered from block 0, so a frame carrying a
    // later block (here block 1, `counter_base = 1`) would complete with
    // a wrong plaintext; it must be refused instead.
    let mut fx = common::fixture(ServerConfig::default());
    let t = fx.side.params.t();
    let msg: Vec<u64> = [fx.side.message(8), fx.side.message(9)].concat();
    fx.server.open_session(0, fx.side.tenant, 31).unwrap();
    let ct = fx.side.client.encrypt(31, &msg).unwrap();
    let bits = fx.side.params.modulus().bits();
    let block_one = pack::pack_bits(&ct.elements()[t..], bits);
    let frame = WireFrame::data(31, 2, 1, block_one).encode();
    assert_eq!(
        expect_refusal(fx.server.submit(10, fx.side.tenant, &frame)),
        RefusalReason::Malformed
    );
    assert_eq!(fx.server.stats().refused_malformed, 1);
    assert_eq!(fx.server.backlog(), 0);
    assert!(fx.server.poll(u64::MAX / 2).is_empty());
}

#[test]
fn two_domains_buckets_transcipher_independently() {
    // Two FHE domains, two tenants each: every domain's bucket composes
    // its own members' keys, and every member must transcipher
    // correctly.
    let mut server = PastaServer::new(ServerConfig {
        multiplex: MultiplexConfig {
            enabled: true,
            max_bucket_blocks: 2,
            flush_margin_us: 1_000,
            linger_us: 0,
            ..MultiplexConfig::default()
        },
        ..ServerConfig::default()
    });
    // One extra prime over the scalar baseline pays for the key mask.
    let bfv = BfvParams {
        prime_count: 6,
        ..BfvParams::test_tiny()
    };
    let sides: Vec<_> = [(1, 71), (2, 72)]
        .into_iter()
        .flat_map(|(domain, seed)| common::register_domain(&mut server, 2, domain, bfv, seed))
        .collect();
    let messages: Vec<Vec<u64>> = sides.iter().map(|s| s.message(s.tenant)).collect();
    for (i, (side, msg)) in sides.iter().zip(&messages).enumerate() {
        let nonce = 11 + i as u128;
        server.open_session(0, side.tenant, nonce).unwrap();
        let frame = side.data_frame(nonce, 1, msg);
        expect_accept(server.submit(5, side.tenant, &frame));
    }
    let events = server.poll(u64::MAX / 2);
    let mut served = 0;
    for event in events {
        match event {
            ServerEvent::Completed(c) => {
                assert!(matches!(c.result, CompletionResult::Muxed { .. }));
                let idx = sides.iter().position(|s| s.tenant == c.tenant).unwrap();
                let side = &sides[idx];
                assert_eq!(
                    c.result.retrieve(&side.ctx, &side.sk).unwrap(),
                    messages[idx]
                );
                served += 1;
            }
            other => panic!("no refusals expected, got {other:?}"),
        }
    }
    assert_eq!(served, sides.len());
}

#[test]
fn quick_scenario_exercises_every_failure_path() {
    // The acceptance scenario: undersized queues, 5% frame loss, bit
    // errors, and one injected worker fault — completes with zero
    // panics, every refusal typed, every completion verified.
    let report = run_loadgen(&LoadgenConfig::quick()).unwrap();
    assert_eq!(report.unaccounted, 0, "no accepted request may vanish");
    assert!(report.completed > 0);
    assert_eq!(
        report.correct, report.completed,
        "every completion must decrypt to the original plaintext"
    );
    assert!(report.worker_faults >= 1, "the injected fault must fire");
    assert!(report.refused_queue_full >= 1, "backpressure must engage");
    assert!(report.shed_deadline >= 1, "load shedding must engage");
    assert!(report.refused_malformed >= 1, "bit errors must be caught");
    assert_eq!(report.refused_budget, 1, "the starved tenant is refused");
    assert!(report.link_dropped >= 1 && report.retries >= 1);
    assert!(report.p50_latency_us <= report.p99_latency_us);
    assert!(report.p99_latency_us <= report.max_latency_us);
    assert!(report.throughput_rps > 0.0);
}
