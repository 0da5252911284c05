//! IKNP OT-extension throughput (labels per second).
//!
//! The `ot_packed_vs_bool` group is the same-run A/B for the extension hot
//! path: the packed bit-matrix pipeline (AES-CTR PRG into `u128` words,
//! blocked SWAR transpose, batched transfer masks) against the retained
//! bool-matrix `ext::reference` oracle on identical setups and inputs.
//! Prints `csv,aes_backend,<name>` so CI can assert the hardware AES
//! dispatch engaged.
//!
//! The `base_ot` group is the same-run A/B for the 1024-bit group
//! arithmetic behind the 128 base OTs, and `setup_in_process` itself (what
//! the ledger reports as `ot.base_ms`).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pi_field::{ModpGroup, U1024};
use pi_gc::aes;
use pi_ot::bitmat::BitVec;
use pi_ot::ext::{reference, setup_in_process, OtExtReceiver, OtExtSender};
use rand::{Rng, SeedableRng};

fn bench_ot(c: &mut Criterion) {
    println!("csv,aes_backend,{}", aes::auto_backend().name());

    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let (s, r) = setup_in_process(&mut rng);
    let sender = OtExtSender::new(s.clone());
    let receiver = OtExtReceiver::new(r.clone());
    let m = 1024usize;
    let choice_bits: Vec<bool> = (0..m).map(|_| rng.gen()).collect();
    let choices = BitVec::from_bools(&choice_bits);
    let pairs: Vec<(u128, u128)> = (0..m).map(|_| (rng.gen(), rng.gen())).collect();

    let mut group = c.benchmark_group("ot_extension");
    group.sample_size(20);
    group.throughput(Throughput::Elements(m as u64));
    group.bench_function("extend_1024", |b| {
        b.iter(|| receiver.extend(&choices, &mut rng))
    });
    let (u_msg, keys) = receiver.extend(&choices, &mut rng);
    group.bench_function("transfer_1024", |b| {
        b.iter(|| sender.transfer(&u_msg, &pairs))
    });
    let y = sender.transfer(&u_msg, &pairs);
    group.bench_function("decode_1024", |b| {
        b.iter(|| receiver.decode(&y, &choices, &keys))
    });
    group.finish();

    // Same-run A/B: the packed pipeline against the seed bool-matrix path
    // on the same setups — both produce bit-identical messages, so this is
    // a pure representation/batching comparison.
    let mut group = c.benchmark_group("ot_packed_vs_bool");
    group.sample_size(10);
    group.throughput(Throughput::Elements(m as u64));
    group.bench_function("extend_1024_bool", |b| {
        b.iter(|| reference::extend(&r, 0, &choice_bits))
    });
    group.bench_function("extend_1024_packed", |b| {
        b.iter(|| receiver.extend(&choices, &mut rng))
    });
    group.bench_function("transfer_1024_bool", |b| {
        b.iter(|| reference::transfer(&s, 0, &u_msg, &pairs))
    });
    group.bench_function("transfer_1024_packed", |b| {
        b.iter(|| sender.transfer(&u_msg, &pairs))
    });
    group.bench_function("decode_1024_bool", |b| {
        b.iter(|| reference::decode(&y, &choice_bits, &keys))
    });
    group.bench_function("decode_1024_packed", |b| {
        b.iter(|| receiver.decode(&y, &choices, &keys))
    });
    group.finish();
}

/// Bit-by-bit square-and-multiply through the public `mul`: the shape of
/// exponentiation the base OT used before `pow` was windowed. `mul` takes
/// and returns normal-form values, so each of its ≈1 536 steps is **two**
/// Montgomery multiplications where the in-crate oracle (`bignum.rs`'s
/// test module) spends one: read `pow_binary_via_mul` ÷ 2 against
/// `pow_windowed` for the algorithmic ratio, and `mul` ÷ 2 for the cost of
/// one Montgomery multiplication.
fn pow_binary_via_mul(g: &ModpGroup, base: &U1024, exp: &U1024) -> U1024 {
    let mut acc = U1024::ONE;
    for i in (0..exp.bit_len()).rev() {
        acc = g.mul(&acc, &acc);
        if exp.bit(i) {
            acc = g.mul(&acc, base);
        }
    }
    acc
}

fn bench_base_ot(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let g = ModpGroup::oakley2();
    let (_, base) = g.random_element(&mut rng);
    let exp = g.random_exponent(&mut rng);
    assert_eq!(pow_binary_via_mul(g, &base, &exp), g.pow(&base, &exp));
    let elems: Vec<U1024> = (0..128).map(|_| g.random_element(&mut rng).1).collect();

    let mut group = c.benchmark_group("base_ot");
    group.sample_size(10);
    group.bench_function("mul", |b| b.iter(|| g.mul(&base, &elems[0])));
    group.bench_function("pow_binary_via_mul", |b| {
        b.iter(|| pow_binary_via_mul(g, &base, &exp))
    });
    group.bench_function("pow_windowed", |b| b.iter(|| g.pow(&base, &exp)));
    group.bench_function("pow_g_table", |b| b.iter(|| g.pow_g(&exp)));
    group.bench_function("fixed_base_build", |b| b.iter(|| g.fixed_base(&base)));
    group.bench_function("inv_x128", |b| {
        b.iter(|| elems.iter().map(|a| g.inv(a)).collect::<Vec<_>>())
    });
    group.bench_function("batch_inv_128", |b| b.iter(|| g.batch_inv(&elems)));
    group.bench_function("setup_in_process", |b| {
        b.iter(|| setup_in_process(&mut rng))
    });
    group.finish();
}

criterion_group!(benches, bench_ot, bench_base_ot);
criterion_main!(benches);
