//! Corruption fuzz for the HE wire layer: every reader must survive
//! arbitrary bytes without panicking.
//!
//! The readers in `pi_he::wire` are the trust boundary of the serving
//! runtime — the bytes they parse come from the network peer, not from
//! this process. Three sweeps per frame type:
//!
//! * **Truncation**: every prefix of a valid frame (dense near the header
//!   and the tail, strided through the body) must return a typed
//!   [`WireError`] — a short buffer is never `Ok` and never a panic.
//! * **Padding**: a valid frame with one byte or a thousand appended is a
//!   frame of the wrong length, never `Ok`.
//! * **Bit flips**: single-bit corruption at strided positions must
//!   either fail with a typed error or decode to *some* frame — flipping
//!   a packed coefficient bit legitimately yields another valid
//!   coefficient — but must never panic or abort.
//!
//! The strided walk never lands on the per-entry element inside a Galois
//! key frame, which is exactly the field whose value indexes a table
//! downstream, and visits the frame's own header (both moduli, the entry
//! count) only in passing; those get a structure-aware sweep of their
//! own — every bit of every header byte, with nothing decoded before the
//! headers pass, and every frame that still parses is then *used*.
//!
//! Deterministic by construction (fixed RNG seeds, fixed stride walk), so
//! a failure reproduces exactly. CI runs this suite in release.

use pi_he::{
    ciphertext_from_bytes, ciphertext_to_bytes, ciphertext_to_bytes_seeded, galois_keys_frame,
    galois_keys_frame_entries, galois_keys_from_bytes, galois_keys_to_bytes, public_key_from_bytes,
    public_key_to_bytes, BatchEncoder, BfvParams, KeySet, SecretKey, WireError,
};
use rand::{Rng, SeedableRng};

/// A fresh encryption of zero, as the client encrypts.
fn zero_upload(secret: &SecretKey, rng: &mut impl Rng) -> pi_he::Ciphertext {
    let ring = secret.params().ring().clone();
    let zero = pi_he::Plaintext {
        poly: pi_poly::Poly::zero(ring),
    };
    secret.encrypt_seeded(&zero, rng).0
}

/// The positions a sweep visits: every byte in the first and last 48
/// (headers, trailing seeds, final packed words), plus at most ~120
/// strided samples through the body. The stride is odd, so strided bit
/// flips cycle through all eight bit indexes; the cap keeps the sweep
/// affordable on multi-hundred-KB key frames (each corrupted parse can
/// cost a full deserialization, seed expansion included).
fn positions(len: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..len.min(48)).collect();
    let stride = (len.saturating_sub(96) / 120).max(97) | 1;
    let mut p = 48;
    while p + 48 < len {
        v.push(p);
        p += stride;
    }
    v.extend(len.saturating_sub(48)..len);
    v.dedup();
    v
}

/// Asserts that `parse` never panics on any truncation, padding or
/// single-bit corruption of `bytes`, and that every strict prefix and every
/// padded frame is an error.
fn fuzz_frame<T>(name: &str, bytes: &[u8], parse: impl Fn(&[u8]) -> Result<T, WireError>) {
    assert!(
        parse(bytes).is_ok(),
        "{name}: pristine frame failed to parse"
    );
    for cut in positions(bytes.len()) {
        if cut == bytes.len() {
            continue;
        }
        assert!(
            parse(&bytes[..cut]).is_err(),
            "{name}: truncation to {cut}/{} bytes parsed Ok",
            bytes.len()
        );
    }
    for extra in [1usize, 1000] {
        let mut padded = bytes.to_vec();
        padded.resize(bytes.len() + extra, 0);
        assert!(
            matches!(parse(&padded), Err(WireError::Truncated)),
            "{name}: {extra} trailing byte(s) not rejected as a wrong-length frame"
        );
    }
    let mut scratch = bytes.to_vec();
    for pos in positions(bytes.len()) {
        if pos >= bytes.len() {
            continue;
        }
        let bit = 1u8 << (pos % 8);
        scratch[pos] ^= bit;
        // Err or Ok are both acceptable; the assertion is "no panic",
        // which a panic would fail loudly on its own.
        let _ = parse(&scratch);
        scratch[pos] ^= bit;
    }
    assert_eq!(&scratch, bytes, "{name}: fuzz scratch buffer corrupted");
}

#[test]
fn single_prime_frames_survive_corruption() {
    // Deliberately small ring: the sweeps below pay a full parse per
    // corrupted buffer, and nothing in the format depends on n or q size.
    let params = BfvParams::new(1024, 40, 16);
    let mut rng = rand::rngs::StdRng::seed_from_u64(4242);
    let keys = KeySet::generate_for_dims(&params, &[64], &mut rng);
    let enc = BatchEncoder::new(&params);
    let msg: Vec<u64> = (0..32)
        .map(|_| rng.gen_range(0..params.t().value()))
        .collect();
    let pt = enc.encode(&msg);

    // The client's upload, seeded and as the same ciphertext unseeded, and
    // the server's down-switched response.
    let (ct, seed) = keys.secret.encrypt_seeded(&pt, &mut rng);
    fuzz_frame("ciphertext", &ciphertext_to_bytes(&ct), |b| {
        ciphertext_from_bytes(b, &params)
    });

    fuzz_frame(
        "seeded ciphertext",
        &ciphertext_to_bytes_seeded(&ct, &seed),
        |b| ciphertext_from_bytes(b, &params),
    );

    let switched = ct.mod_switch_down(&params);
    fuzz_frame(
        "switched ciphertext",
        &ciphertext_to_bytes(&switched),
        |b| ciphertext_from_bytes(b, &params),
    );

    fuzz_frame("public key", &public_key_to_bytes(&keys.public), |b| {
        public_key_from_bytes(b, &params)
    });

    fuzz_frame("galois keys", &galois_keys_to_bytes(&keys.galois), |b| {
        galois_keys_from_bytes(b, &params)
    });
}

#[test]
fn every_frame_kind_refuses_every_other_version() {
    // The version byte names the layout, and versions 3 and 4 changed what
    // a Galois key's words mean (evaluation form; digits over q·P): an
    // older frame decoded as version 4 would be garbage at best, so
    // readers refuse by version, never by guessing.
    let params = BfvParams::new(1024, 40, 16);
    let mut rng = rand::rngs::StdRng::seed_from_u64(4244);
    let secret = SecretKey::generate(&params, &mut rng);
    let public = secret.public_key(&mut rng);
    let plan = pi_he::linalg::key_plan(&params, &[64]);
    let (sct, seed) = secret.encrypt_seeded(&BatchEncoder::new(&params).encode(&[1]), &mut rng);
    type Parse<'a> = Box<dyn Fn(&[u8]) -> Option<WireError> + 'a>;
    let frames: [(&str, Vec<u8>, Parse); 4] = [
        (
            "ciphertext",
            ciphertext_to_bytes(&sct),
            Box::new(|b| ciphertext_from_bytes(b, &params).err()),
        ),
        (
            "seeded ciphertext",
            ciphertext_to_bytes_seeded(&sct, &seed),
            Box::new(|b| ciphertext_from_bytes(b, &params).err()),
        ),
        (
            "public key",
            public_key_to_bytes(&public),
            Box::new(|b| public_key_from_bytes(b, &params).err()),
        ),
        (
            "galois keys",
            galois_keys_frame(&secret, &plan, &mut rng),
            Box::new(|b| galois_keys_from_bytes(b, &params).err()),
        ),
    ];
    for (name, mut frame, parse) in frames {
        assert_eq!(frame[4], 4, "{name}: writers emit version 4");
        assert_eq!(parse(&frame), None, "{name}: pristine frame");
        for version in (0..=u8::MAX).filter(|&v| v != 4) {
            frame[4] = version;
            assert_eq!(
                parse(&frame),
                Some(WireError::UnsupportedVersion(version)),
                "{name} as version {version}"
            );
        }
    }
}

/// Common header, `q`, `P`, `num_entries`, seed.
const GK_PREAMBLE_LEN: usize = 10 + 8 + 8 + 4 + 32;
/// Offset of `P` and of the entry count in a Galois-key frame.
const GK_SPECIAL_AT: usize = 10 + 8;
const GK_COUNT_AT: usize = 10 + 8 + 8;

/// Length of one Galois-key entry: `g`, then per digit (two of them) the
/// packed `k0` under `q` and under `P`.
fn galois_entry_len(params: &BfvParams) -> usize {
    let packed = |bits: u32| pi_poly::pack::packed_len(params.n(), bits as usize);
    4 + 2 * (packed(params.q().bits()) + packed(params.special_p().bits()))
}

/// Offset of every entry (its `g: u32`) in a pristine Galois-key frame.
fn galois_entries(frame: &[u8], params: &BfvParams) -> Vec<usize> {
    let count = u32::from_le_bytes(frame[GK_COUNT_AT..GK_COUNT_AT + 4].try_into().unwrap());
    let len = galois_entry_len(params);
    assert_eq!(
        frame.len(),
        GK_PREAMBLE_LEN + count as usize * len,
        "entry walk must end at the frame end"
    );
    (0..count as usize)
        .map(|i| GK_PREAMBLE_LEN + i * len)
        .collect()
}

/// The Galois-key fixture of the tests below: a key frame and a
/// ciphertext to rotate with whatever a corrupted frame still yields.
fn galois_fixture() -> (BfvParams, Vec<u8>, pi_he::Ciphertext) {
    let params = BfvParams::new(1024, 40, 16);
    let mut rng = rand::rngs::StdRng::seed_from_u64(4243);
    let keys = KeySet::generate_for_dims(&params, &[64], &mut rng);
    let frame = galois_keys_to_bytes(&keys.galois);
    let ct = zero_upload(&keys.secret, &mut rng);
    (params, frame, ct)
}

#[test]
fn galois_key_entry_headers_survive_every_bit_flip() {
    // All eight bits of every byte of the frame's own header and of every
    // entry's element. A flip either fails with a typed error — from the
    // header walk alone, before any polynomial is unpacked — or yields a
    // key set that can be *used*: the element steers a permutation lookup
    // at the first rotation, long after the parse returned.
    let (params, frame, ct) = galois_fixture();
    let entries = galois_entries(&frame, &params);
    assert!(entries.len() >= 2, "fixture must hold several entries");
    let header = 0..GK_PREAMBLE_LEN - 32; // the seed is any 32 bytes
    let elements = entries.iter().flat_map(|&off| off..off + 4);
    let mut scratch = frame.clone();
    let (mut rejected, mut accepted) = (0usize, 0usize);
    for pos in header.chain(elements) {
        for bit in 0..8 {
            scratch[pos] ^= 1 << bit;
            let announced = galois_keys_frame_entries(&scratch, &params);
            match galois_keys_from_bytes(&scratch, &params) {
                Err(e) => {
                    // Nothing but a header was touched: the header walk is
                    // what refuses, with the same error.
                    assert_eq!(announced, Err(e), "byte {pos} bit {bit}");
                    rejected += 1;
                }
                Ok(gk) => {
                    assert!(pos >= GK_PREAMBLE_LEN, "a header flip parsed");
                    assert!(gk.elements().eq(announced.expect("it decoded")));
                    accepted += 1;
                    for g in (1..2 * params.n()).step_by(2).filter(|&g| gk.contains(g)) {
                        gk.apply(&ct, g).expect("a held key must switch");
                    }
                    let _ = gk.rotate_hoisted(&gk.hoist(&ct), 1);
                }
            }
            scratch[pos] ^= 1 << bit;
        }
    }
    assert_eq!(scratch, frame, "fuzz scratch buffer corrupted");
    // Every flip in the frame's header is refused; of an element's 32 bits
    // the ten above bit 0 and below 2N turn `g` into another odd element,
    // which is a legitimate frame.
    assert_eq!(accepted, entries.len() * 10);
    assert!(
        rejected > accepted,
        "{rejected} rejected, {accepted} accepted"
    );
}

#[test]
fn galois_key_entries_no_key_switch_can_use_are_rejected() {
    let (params, frame, _) = galois_fixture();
    let off = galois_entries(&frame, &params)[0];
    let corrupt = |edit: &dyn Fn(&mut Vec<u8>)| {
        let mut bytes = frame.clone();
        edit(&mut bytes);
        // Refused from the headers, so refused before any decode.
        let decoded = galois_keys_from_bytes(&bytes, &params).err();
        assert_eq!(
            galois_keys_frame_entries(&bytes, &params).err(),
            decoded,
            "the header walk and the decode disagree"
        );
        decoded
    };
    // An even element has no slot permutation.
    assert_eq!(
        corrupt(&|b| b[off] ^= 1),
        Some(WireError::ParamMismatch),
        "even g"
    );
    // Nor has one at or above 2N.
    assert_eq!(
        corrupt(&|b| b[off..off + 4].copy_from_slice(&(2 * 1024u32 + 1).to_le_bytes())),
        Some(WireError::ParamMismatch),
        "g >= 2n"
    );
    // Keys over another special prime — here the next NTT prime down, a
    // perfectly good P for someone else — divide by the wrong number.
    let other = pi_field::find_distinct_ntt_primes(params.special_p().bits(), 2, 2 * 1024)
        .expect("two primes at this width")[1];
    assert_ne!(other, params.special_p().value());
    assert_eq!(
        corrupt(&|b| b[GK_SPECIAL_AT..GK_SPECIAL_AT + 8].copy_from_slice(&other.to_le_bytes())),
        Some(WireError::ParamMismatch),
        "another P"
    );
    // An entry count that disagrees with the frame's length, either way.
    let count = galois_entries(&frame, &params).len() as u32;
    for wrong in [count - 1, count + 1, u32::MAX] {
        assert_eq!(
            corrupt(&|b| b[GK_COUNT_AT..GK_COUNT_AT + 4].copy_from_slice(&wrong.to_le_bytes())),
            Some(WireError::Truncated),
            "{wrong} entries announced, {count} carried"
        );
    }
}

#[test]
fn a_key_word_at_or_above_its_modulus_is_refused_after_the_headers_passed() {
    // The first word of the first k0 under q, then under P, raised to all
    // ones: the headers are untouched, so the header walk still announces
    // the plan, and the decode refuses the word — under whichever modulus
    // it was packed.
    let (params, frame, _) = galois_fixture();
    let plan = galois_keys_frame_entries(&frame, &params).expect("own frame");
    let under_q = galois_entries(&frame, &params)[0] + 4;
    let under_p = under_q + pi_poly::pack::packed_len(params.n(), params.q().bits() as usize);
    for (start, bits) in [
        (under_q, params.q().bits()),
        (under_p, params.special_p().bits()),
    ] {
        let mut bytes = frame.clone();
        // A packed word starts at bit 0 of its polynomial's stream.
        for bit in 0..bits as usize {
            bytes[start + bit / 8] |= 1 << (bit % 8);
        }
        assert_eq!(galois_keys_frame_entries(&bytes, &params), Ok(plan.clone()));
        assert_eq!(
            galois_keys_from_bytes(&bytes, &params).err(),
            Some(WireError::UnreducedCoefficient)
        );
    }
}

#[test]
fn cross_frame_confusion_is_rejected() {
    // Feeding one frame type to another type's reader must fail with
    // BadMagic (or a downstream typed error), never panic or mis-decode.
    let params = BfvParams::new(1024, 40, 16);
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let keys = KeySet::generate_for_dims(&params, &[64], &mut rng);
    let ct_bytes = ciphertext_to_bytes(&zero_upload(&keys.secret, &mut rng));
    let pk_bytes = public_key_to_bytes(&keys.public);
    let gk_bytes = galois_keys_to_bytes(&keys.galois);

    assert!(ciphertext_from_bytes(&pk_bytes, &params).is_err());
    assert!(ciphertext_from_bytes(&gk_bytes, &params).is_err());
    assert!(public_key_from_bytes(&ct_bytes, &params).is_err());
    assert!(public_key_from_bytes(&gk_bytes, &params).is_err());
    assert!(galois_keys_from_bytes(&ct_bytes, &params).is_err());

    // Random garbage of plausible length.
    let mut garbage = vec![0u8; 4096];
    rng.fill(&mut garbage[..]);
    assert!(ciphertext_from_bytes(&garbage, &params).is_err());
    assert!(galois_keys_from_bytes(&garbage, &params).is_err());
    assert!(public_key_from_bytes(&garbage, &params).is_err());
    assert!(pi_he::flat_frame_len(&garbage).is_none());
}

mod roundtrip_props {
    use super::*;
    use pi_he::Ciphertext;
    use pi_poly::Poly;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Serialization is canonical across random rings and polynomial
        /// forms: NTT-form and lazy `[0,2q)` representatives produce the
        /// same bytes as their reduced coefficient-form twin, and
        /// parse∘serialize is idempotent (the reader's canonical form
        /// reserializes to the identical frame).
        #[test]
        fn ct_frames_canonical_across_params_and_forms(
            n_exp in 9usize..=11,
            q_bits in 40u32..=62,
            seed in any::<u64>(),
            ntt_form in any::<bool>(),
        ) {
            let n = 1usize << n_exp;
            let params = BfvParams::new(n, q_bits, 16);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let secret = SecretKey::generate(&params, &mut rng);
            let ct = zero_upload(&secret, &mut rng);

            let shaped = if ntt_form {
                Ciphertext { c0: ct.c0.clone().into_ntt(), c1: ct.c1.clone().into_ntt() }
            } else {
                Ciphertext { c0: ct.c0.clone().into_coeff(), c1: ct.c1.clone().into_coeff() }
            };
            let bytes = ciphertext_to_bytes(&shaped);
            prop_assert_eq!(&bytes, &ciphertext_to_bytes(&ct));

            // Lazy [0,2q) representatives on c0 serialize identically.
            let q = params.q();
            let reduced = ct.c0.clone().into_ntt();
            let lazy_data: Vec<u64> = reduced
                .data()
                .iter()
                .enumerate()
                .map(|(i, &x)| if i % 3 == 0 { x + q.value() } else { x })
                .collect();
            let lazy_ct = Ciphertext {
                c0: Poly::from_ntt_data_lazy(params.ring().clone(), lazy_data),
                c1: ct.c1.clone(),
            };
            prop_assert_eq!(&ciphertext_to_bytes(&lazy_ct), &bytes);

            // parse ∘ serialize is the identity on frames.
            let back = ciphertext_from_bytes(&bytes, &params).unwrap();
            prop_assert_eq!(&ciphertext_to_bytes(&back), &bytes);

            // Down-switched frames round-trip under the same params.
            let sw = ct.mod_switch_down(&params);
            let sw_bytes = ciphertext_to_bytes(&sw);
            let sw_back = ciphertext_from_bytes(&sw_bytes, &params).unwrap();
            prop_assert_eq!(&ciphertext_to_bytes(&sw_back), &sw_bytes);
        }
    }
}
