//! Analyst-side retrieval of server completions, outside the timed
//! window.
//!
//! Every member of a multiplexed bucket shares the bucket's position
//! ciphertexts. Decrypting them once per bucket, rather than once per
//! member as `retrieve_muxed` does, keeps verification cheap enough to
//! check every request.

use pasta_fhe::{BatchEncoder, BfvContext, BfvSecretKey, Ciphertext, FheError};
use pasta_server::CompletionResult;
use std::collections::HashMap;
use std::sync::Arc;

/// Decodes one completion per entry, all under the same analyst key.
/// Shared bucket ciphertexts are decrypted once; the slot ranges are
/// then read exactly as `pasta_hhe::retrieve_muxed` reads them.
///
/// # Errors
///
/// Propagates encoder errors; a slot range that does not fit its
/// bucket is [`FheError::Incompatible`].
pub fn retrieve_all(
    ctx: &BfvContext,
    sk: &BfvSecretKey,
    results: &[&CompletionResult],
) -> Result<Vec<Vec<u64>>, FheError> {
    let encoder =
        BatchEncoder::new(ctx.params().plain_modulus, ctx.params().n).map_err(FheError::from)?;
    let mut buckets: HashMap<*const Vec<Ciphertext>, Vec<Vec<u64>>> = HashMap::new();
    let mut out = Vec::with_capacity(results.len());
    for result in results {
        match result {
            CompletionResult::Scalar(cts) => {
                out.push(cts.iter().map(|ct| ctx.decrypt(sk, ct).scalar()).collect());
            }
            CompletionResult::Muxed {
                positions,
                assignment,
            } => {
                let slots = buckets.entry(Arc::as_ptr(positions)).or_insert_with(|| {
                    positions
                        .iter()
                        .map(|ct| encoder.decode(&ctx.decrypt(sk, ct)))
                        .collect()
                });
                let range = assignment.range;
                let t = slots.len();
                if t == 0
                    || range.elements > range.blocks * t
                    || range.start + range.blocks > encoder.slots()
                {
                    return Err(FheError::Incompatible(
                        "slot range does not fit the muxed positions".into(),
                    ));
                }
                let mut message = vec![0u64; range.elements];
                for (i, decoded) in slots.iter().enumerate() {
                    for b in 0..range.blocks {
                        if let Some(m) = message.get_mut(b * t + i) {
                            *m = decoded[range.start + b];
                        }
                    }
                }
                out.push(message);
            }
        }
    }
    Ok(out)
}

/// The distinct ciphertexts behind `results` (each bucket's positions
/// once), for noise-budget readings.
#[must_use]
pub fn distinct_ciphertexts<'a>(results: &[&'a CompletionResult]) -> Vec<&'a Ciphertext> {
    let mut seen: Vec<*const Vec<Ciphertext>> = Vec::new();
    let mut out = Vec::new();
    for result in results {
        match result {
            CompletionResult::Scalar(cts) => out.extend(cts.iter()),
            CompletionResult::Muxed { positions, .. } => {
                let ptr = Arc::as_ptr(positions);
                if !seen.contains(&ptr) {
                    seen.push(ptr);
                    out.extend(positions.iter());
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasta_core::PastaParams;
    use pasta_fhe::BfvParams;
    use pasta_hhe::{retrieve_muxed, HheClient, MuxHheServer, MuxMember};
    use pasta_math::Modulus;
    use pasta_server::SlotAssignment;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bucket_deduplicated_retrieval_agrees_with_per_member_retrieve_muxed() {
        let params = PastaParams::custom(4, 2, Modulus::PASTA_17_BIT).unwrap();
        let bfv = BfvParams {
            prime_count: 6,
            ..BfvParams::test_tiny()
        };
        let ctx = BfvContext::new(bfv).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let sk = ctx.generate_secret_key(&mut rng);
        let pk = ctx.generate_public_key(&sk, &mut rng);
        let rk = ctx.generate_relin_key(&sk, &mut rng);
        let clients: Vec<HheClient> = (0..3u8).map(|i| HheClient::new(params, &[i])).collect();
        let keys: Vec<_> = clients
            .iter()
            .map(|c| c.provision_key(&ctx, &pk, &mut rng))
            .collect();
        let mux = MuxHheServer::new(params, &ctx, rk).unwrap();
        // Two buckets: members of 1, 3 (partial last block) and 2 blocks,
        // then a single-member bucket.
        let sizes = [[4usize, 10, 8].as_slice(), [5].as_slice()];
        let mut results = Vec::new();
        let mut messages = Vec::new();
        for (b, bucket) in sizes.iter().enumerate() {
            let mut cts = Vec::new();
            for (m, &len) in bucket.iter().enumerate() {
                let msg: Vec<u64> = (0..len as u64).map(|i| i * 97 + m as u64 + 1).collect();
                cts.push(clients[m].encrypt((b * 10 + m) as u128, &msg).unwrap());
                messages.push(msg);
            }
            let members: Vec<_> = cts
                .iter()
                .enumerate()
                .map(|(m, ct)| MuxMember {
                    tenant: m as u64,
                    encrypted_key: &keys[m],
                    ct,
                })
                .collect();
            let out = mux.transcipher_mux(&ctx, &members).unwrap();
            let positions = Arc::new(out.positions);
            for (m, range) in out.ranges.iter().enumerate() {
                results.push(CompletionResult::Muxed {
                    positions: Arc::clone(&positions),
                    assignment: SlotAssignment {
                        tenant: m as u64,
                        session: 0,
                        seq: 0,
                        range: *range,
                    },
                });
            }
        }
        let refs: Vec<&CompletionResult> = results.iter().collect();
        let deduped = retrieve_all(&ctx, &sk, &refs).unwrap();
        for (i, result) in results.iter().enumerate() {
            let CompletionResult::Muxed {
                positions,
                assignment,
            } = result
            else {
                unreachable!()
            };
            let per_member = retrieve_muxed(&ctx, &sk, positions, assignment.range).unwrap();
            assert_eq!(deduped[i], per_member, "member {i}");
            assert_eq!(deduped[i], messages[i], "member {i}");
        }
        // One bucket's 4 positions plus the other's 4, each once.
        assert_eq!(distinct_ciphertexts(&refs).len(), 8);
    }
}
