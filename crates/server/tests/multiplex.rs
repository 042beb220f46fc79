//! Cross-tenant slot multiplexing at the service layer: bucket packing,
//! the three flush causes, demux correctness, scalar coexistence,
//! whole-bucket fault containment, and domain registration.

mod common;

use pasta_fhe::BfvParams;
use pasta_pipeline::PipelineError;
use pasta_server::{
    CompletionResult, MultiplexConfig, PastaServer, ServerConfig, ServerEvent, SubmitOutcome,
};

/// One extra RNS prime over the scalar baseline: the composed-key slot
/// mask costs one more plaintext multiplication.
fn mux_bfv() -> BfvParams {
    BfvParams {
        prime_count: 6,
        ..BfvParams::test_tiny()
    }
}

fn mux_config(multiplex: MultiplexConfig) -> ServerConfig {
    ServerConfig {
        multiplex: MultiplexConfig {
            enabled: true,
            ..multiplex
        },
        ..ServerConfig::default()
    }
}

fn expect_accept(outcome: SubmitOutcome) -> u64 {
    match outcome {
        SubmitOutcome::Accepted { seq, .. } => seq,
        SubmitOutcome::Refused { reason, .. } => panic!("unexpected refusal: {reason:?}"),
    }
}

#[test]
fn full_bucket_flush_demuxes_each_member() {
    let mut server = PastaServer::new(mux_config(MultiplexConfig {
        max_bucket_blocks: 2,
        flush_margin_us: 1_000,
        linger_us: 100_000,
        ..MultiplexConfig::default()
    }));
    let sides = common::register_domain(&mut server, 2, 1, mux_bfv(), 99);
    let messages: Vec<Vec<u64>> = sides.iter().map(|s| s.message(7)).collect();
    for (i, (side, msg)) in sides.iter().zip(&messages).enumerate() {
        let nonce = 100 + i as u128;
        server.open_session(0, side.tenant, nonce).unwrap();
        expect_accept(server.submit(10, side.tenant, &side.data_frame(nonce, i as u32, msg)));
    }
    let events = server.poll(u64::MAX / 2);
    assert_eq!(events.len(), 2);
    for event in &events {
        let ServerEvent::Completed(c) = event else {
            panic!("expected completions, got {event:?}");
        };
        assert!(
            matches!(c.result, CompletionResult::Muxed { .. }),
            "a full bucket must serve its members multiplexed"
        );
        let idx = sides.iter().position(|s| s.tenant == c.tenant).unwrap();
        let recovered = c.result.retrieve(&sides[idx].ctx, &sides[idx].sk).unwrap();
        assert_eq!(recovered, messages[idx], "demux must recover tenant {idx}");
        // The shared positions are compacted below the top level.
        let CompletionResult::Muxed { positions, .. } = &c.result else {
            unreachable!()
        };
        let top = sides[idx].ctx.basis().len();
        assert!(positions.iter().all(|ct| ct.level() < top));
    }
    let stats = server.stats();
    assert_eq!((stats.mux_buckets, stats.mux_requests), (1, 2));
    assert_eq!(
        (stats.flush_full, stats.flush_deadline, stats.flush_drain),
        (1, 0, 0)
    );
    assert_eq!(server.bucket_fills(), &[1_000], "2 of 2 blocks = full");
}

#[test]
fn partial_bucket_lingers_then_drains() {
    let mut server = PastaServer::new(mux_config(MultiplexConfig {
        max_bucket_blocks: 8,
        flush_margin_us: 1_000,
        linger_us: 2_000,
        ..MultiplexConfig::default()
    }));
    let sides = common::register_domain(&mut server, 1, 1, mux_bfv(), 5);
    let msg = sides[0].message(3);
    server.open_session(0, sides[0].tenant, 7).unwrap();
    expect_accept(server.submit(0, sides[0].tenant, &sides[0].data_frame(7, 0, &msg)));
    assert!(
        server.poll(1_500).is_empty(),
        "a lingering partial bucket must not flush before its trigger"
    );
    let events = server.poll(u64::MAX / 2);
    let [ServerEvent::Completed(c)] = events.as_slice() else {
        panic!("expected one completion, got {events:?}");
    };
    assert_eq!(c.result.retrieve(&sides[0].ctx, &sides[0].sk).unwrap(), msg);
    let stats = server.stats();
    assert_eq!(
        (stats.flush_full, stats.flush_deadline, stats.flush_drain),
        (0, 0, 1)
    );
    assert_eq!(server.bucket_fills(), &[125], "1 of 8 blocks");
}

#[test]
fn deadline_trigger_beats_a_long_linger() {
    let mut server = PastaServer::new(ServerConfig {
        deadline_us: 20_000,
        ..mux_config(MultiplexConfig {
            max_bucket_blocks: 8,
            flush_margin_us: 5_000,
            linger_us: 1_000_000,
            ..MultiplexConfig::default()
        })
    });
    let sides = common::register_domain(&mut server, 1, 1, mux_bfv(), 6);
    let msg = sides[0].message(4);
    server.open_session(0, sides[0].tenant, 9).unwrap();
    expect_accept(server.submit(0, sides[0].tenant, &sides[0].data_frame(9, 0, &msg)));
    let events = server.poll(u64::MAX / 2);
    let [ServerEvent::Completed(c)] = events.as_slice() else {
        panic!("expected one completion, got {events:?}");
    };
    assert_eq!(c.result.retrieve(&sides[0].ctx, &sides[0].sk).unwrap(), msg);
    let stats = server.stats();
    assert_eq!((stats.shed_deadline, stats.flush_deadline), (0, 1));
}

#[test]
fn one_tenant_spans_two_buckets() {
    let mut server = PastaServer::new(mux_config(MultiplexConfig {
        max_bucket_blocks: 2,
        flush_margin_us: 1_000,
        linger_us: 0,
        ..MultiplexConfig::default()
    }));
    let sides = common::register_domain(&mut server, 1, 1, mux_bfv(), 8);
    let side = &sides[0];
    let messages: Vec<Vec<u64>> = (0..3).map(|i| side.message(20 + i)).collect();
    for (i, msg) in messages.iter().enumerate() {
        let nonce = 50 + i as u128;
        server.open_session(0, side.tenant, nonce).unwrap();
        expect_accept(server.submit(0, side.tenant, &side.data_frame(nonce, i as u32, msg)));
    }
    let events = server.poll(u64::MAX / 2);
    assert_eq!(events.len(), 3);
    for event in &events {
        let ServerEvent::Completed(c) = event else {
            panic!("expected completions, got {event:?}");
        };
        let idx = (c.nonce - 50) as usize;
        assert_eq!(
            c.result.retrieve(&side.ctx, &side.sk).unwrap(),
            messages[idx]
        );
    }
    let stats = server.stats();
    assert_eq!(stats.mux_buckets, 2, "three blocks at cap 2 = two buckets");
    assert_eq!((stats.flush_full, stats.flush_drain), (1, 1));
    assert_eq!(server.bucket_fills(), &[1_000, 500]);
}

#[test]
fn bucket_fault_nacks_every_member_and_the_retry_succeeds() {
    let mut server = PastaServer::new(mux_config(MultiplexConfig {
        max_bucket_blocks: 2,
        flush_margin_us: 1_000,
        linger_us: 0,
        ..MultiplexConfig::default()
    }));
    let sides = common::register_domain(&mut server, 2, 1, mux_bfv(), 13);
    let messages: Vec<Vec<u64>> = sides.iter().map(|s| s.message(40)).collect();
    let mut frames = Vec::new();
    for (i, (side, msg)) in sides.iter().zip(&messages).enumerate() {
        let nonce = 70 + i as u128;
        server.open_session(0, side.tenant, nonce).unwrap();
        frames.push(side.data_frame(nonce, i as u32, msg));
    }
    let seq = expect_accept(server.submit(0, sides[0].tenant, &frames[0]));
    expect_accept(server.submit(0, sides[1].tenant, &frames[1]));
    server.inject_worker_fault(seq);
    let events = server.poll(u64::MAX / 2);
    assert_eq!(events.len(), 2, "one faulting pass takes the whole bucket");
    for event in &events {
        assert!(
            matches!(event, ServerEvent::Refused { .. }),
            "every bucket member must get a typed NACK, got {event:?}"
        );
    }
    assert_eq!(server.stats().worker_faults, 2);
    // The panic was contained: resubmitting the same frames succeeds.
    for (side, frame) in sides.iter().zip(&frames) {
        expect_accept(server.submit(100_000, side.tenant, frame));
    }
    let events = server.poll(u64::MAX / 2);
    assert_eq!(events.len(), 2);
    for event in &events {
        let ServerEvent::Completed(c) = event else {
            panic!("expected completions, got {event:?}");
        };
        let idx = sides.iter().position(|s| s.tenant == c.tenant).unwrap();
        assert_eq!(
            c.result.retrieve(&sides[idx].ctx, &sides[idx].sk).unwrap(),
            messages[idx]
        );
    }
}

#[test]
fn mux_and_scalar_tenants_coexist() {
    let mut server = PastaServer::new(mux_config(MultiplexConfig {
        max_bucket_blocks: 2,
        flush_margin_us: 1_000,
        linger_us: 0,
        ..MultiplexConfig::default()
    }));
    let sides = common::register_domain(&mut server, 2, 1, mux_bfv(), 21);
    let lone = common::register(&mut server, 4242, b"scalar neighbour");
    let mux_msgs: Vec<Vec<u64>> = sides.iter().map(|s| s.message(60)).collect();
    let lone_msg = lone.message(61);
    for (i, (side, msg)) in sides.iter().zip(&mux_msgs).enumerate() {
        let nonce = 200 + i as u128;
        server.open_session(0, side.tenant, nonce).unwrap();
        expect_accept(server.submit(0, side.tenant, &side.data_frame(nonce, i as u32, msg)));
    }
    server.open_session(0, lone.tenant, 900).unwrap();
    expect_accept(server.submit(0, lone.tenant, &lone.data_frame(900, 9, &lone_msg)));
    let events = server.poll(u64::MAX / 2);
    assert_eq!(events.len(), 3);
    for event in &events {
        let ServerEvent::Completed(c) = event else {
            panic!("expected completions, got {event:?}");
        };
        if c.tenant == lone.tenant {
            assert!(
                matches!(c.result, CompletionResult::Scalar(_)),
                "a domainless tenant must stay on the private scalar path"
            );
            assert_eq!(c.result.retrieve(&lone.ctx, &lone.sk).unwrap(), lone_msg);
        } else {
            assert!(matches!(c.result, CompletionResult::Muxed { .. }));
            let idx = sides.iter().position(|s| s.tenant == c.tenant).unwrap();
            assert_eq!(
                c.result.retrieve(&sides[idx].ctx, &sides[idx].sk).unwrap(),
                mux_msgs[idx]
            );
        }
    }
    let stats = server.stats();
    assert_eq!((stats.completed, stats.mux_requests), (3, 2));
}

#[test]
fn oversized_request_falls_back_to_the_scalar_path() {
    let mut server = PastaServer::new(mux_config(MultiplexConfig {
        max_bucket_blocks: 1,
        flush_margin_us: 1_000,
        linger_us: 0,
        ..MultiplexConfig::default()
    }));
    // The request comes from the domain's second member, whose own
    // relinearization key the service does not keep: the scalar pass
    // runs on the domain's evaluator.
    let sides = common::register_domain(&mut server, 2, 1, mux_bfv(), 31);
    let side = &sides[1];
    // Two blocks (t = 4, 8 elements) against a 1-block bucket cap.
    let msg: Vec<u64> = (0..8).map(|i| (i * 1_234 + 5) % 65_537).collect();
    server.open_session(0, side.tenant, 33).unwrap();
    expect_accept(server.submit(0, side.tenant, &side.data_frame(33, 0, &msg)));
    let events = server.poll(u64::MAX / 2);
    let [ServerEvent::Completed(c)] = events.as_slice() else {
        panic!("expected one completion, got {events:?}");
    };
    assert!(
        matches!(c.result, CompletionResult::Scalar(_)),
        "a request larger than any bucket must not starve — it runs scalar"
    );
    assert_eq!(c.result.retrieve(&side.ctx, &side.sk).unwrap(), msg);
    assert_eq!(server.stats().mux_buckets, 0);
}

/// One prime more than [`mux_bfv`]: a ring the domain's members do not
/// share.
fn other_bfv() -> BfvParams {
    BfvParams {
        prime_count: 7,
        ..BfvParams::test_tiny()
    }
}

#[test]
fn a_refused_first_registrant_founds_no_domain() {
    let mut server = PastaServer::new(mux_config(MultiplexConfig::default()));
    let pasta = common::tiny_pasta();
    let (mut short, ..) = common::make_provision(pasta, mux_bfv(), mux_bfv(), 51, b"short key");
    short.encrypted_key.elements.truncate(3);
    short.fhe_domain = Some(5);
    assert!(matches!(
        server.register_tenant(short),
        Err(PipelineError::Fhe(_))
    ));
    // Domain 5 has no members, so a registrant with other parameters
    // founds it.
    let (mut valid, ..) = common::make_provision(pasta, other_bfv(), other_bfv(), 52, b"valid");
    valid.fhe_domain = Some(5);
    server
        .register_tenant(valid)
        .expect("a refused registrant must leave no domain behind");
}

#[test]
fn a_registrant_on_another_ring_is_refused_and_the_domain_still_serves() {
    let mut server = PastaServer::new(mux_config(MultiplexConfig {
        linger_us: 0,
        ..MultiplexConfig::default()
    }));
    let sides = common::register_domain(&mut server, 1, 1, mux_bfv(), 61);
    let (mut other, ..) = common::make_provision(
        common::tiny_pasta(),
        other_bfv(),
        other_bfv(),
        62,
        b"other ring",
    );
    other.fhe_domain = Some(1);
    assert!(matches!(
        server.register_tenant(other),
        Err(PipelineError::Fhe(_))
    ));
    let side = &sides[0];
    let msg = side.message(63);
    server.open_session(0, side.tenant, 64).unwrap();
    expect_accept(server.submit(0, side.tenant, &side.data_frame(64, 0, &msg)));
    let events = server.poll(u64::MAX / 2);
    let [ServerEvent::Completed(c)] = events.as_slice() else {
        panic!("expected one completion, got {events:?}");
    };
    assert_eq!(c.result.retrieve(&side.ctx, &side.sk).unwrap(), msg);
}
