//! IKNP OT extension and the base OT under it, kernel by kernel.
//!
//! The `ot_packed_vs_bool` group is the same-run A/B for the extension hot
//! path: the packed bit-matrix pipeline (AES-CTR PRG into `u128` words,
//! blocked SWAR transpose, batched transfer masks) against the retained
//! bool-matrix `ext::reference` oracle on identical setups and inputs.
//! Prints `csv,aes_backend,<name>` so CI can assert the hardware AES
//! dispatch engaged. At one `relu_heavy` phase's 163 840 OTs, each kernel
//! runs on one thread and split across the host's cores
//! (`csv,par_threads,<t>` and `csv,par_ab,…`).
//!
//! The `base_ot` group times the edwards25519 arithmetic behind the 128 base
//! OTs piece by piece, and `setup_in_process` itself (what the ledger
//! reports as `ot.base_ms`). `scalar_mul_var_x8` is eight of
//! `scalar_mul_var`'s products under one scalar, as the sender's transfer
//! takes them: on the AVX-512 IFMA lanes where they run
//! (`csv,curve_lanes,<ifma|scalar>`). Each of the three per-transfer loops of one
//! 128-transfer base OT (the sender's transfer, the receiver's choice and
//! its receive) then runs on one thread and split across the host's cores
//! (`csv,par_ab,base_ot_{transfer,choose,receive}128,…`). It ends with
//! `csv,base_ot,setup_ms=…,var_us=…,fixed_us=…`, which CI greps for: the
//! group's own `setup_in_process`, `scalar_mul_var` and `scalar_mul_fixed`
//! medians in those units.

use pi_bench::{kernel, one_thread_vs_split};
use pi_gc::aes;
use pi_ot::base::{BaseOtReceiver, BaseOtSender};
use pi_ot::bitmat::BitVec;
use pi_ot::curve::{base_table, lanes_active, Fe, Point, Scalar, Table};
use pi_ot::ext::{reference, setup_in_process, OtExtReceiver, OtExtSender};
use pi_trace::par;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn bench_ot() {
    println!("csv,aes_backend,{}", aes::auto_backend().name());

    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let (s, r) = setup_in_process(&mut rng);
    let sender = OtExtSender::new(s.clone());
    let receiver = OtExtReceiver::new(r.clone());
    let m = 1024usize;
    let choice_bits: Vec<bool> = (0..m).map(|_| rng.gen()).collect();
    let choices = BitVec::from_bools(&choice_bits);
    let pairs: Vec<(u128, u128)> = (0..m).map(|_| (rng.gen(), rng.gen())).collect();

    // Same-run A/B: the packed pipeline against the seed bool-matrix path
    // on the same setups — both produce bit-identical messages, so this is
    // a pure representation/batching comparison.
    let (u_msg, keys) = receiver.extend(&choices, &mut rng);
    let y = sender.transfer(&u_msg, &pairs);
    let samples = 10;
    kernel("ot_packed_vs_bool/extend_1024_bool", samples, || {
        reference::extend(&r, 0, &choice_bits)
    });
    kernel("ot_packed_vs_bool/extend_1024_packed", samples, || {
        receiver.extend(&choices, &mut rng)
    });
    kernel("ot_packed_vs_bool/transfer_1024_bool", samples, || {
        reference::transfer(&s, 0, &u_msg, &pairs)
    });
    kernel("ot_packed_vs_bool/transfer_1024_packed", samples, || {
        sender.transfer(&u_msg, &pairs)
    });
    kernel("ot_packed_vs_bool/decode_1024_bool", samples, || {
        reference::decode(&y, &choice_bits, &keys)
    });
    kernel("ot_packed_vs_bool/decode_1024_packed", samples, || {
        receiver.decode(&y, &choices, &keys)
    });

    // One relu_heavy phase's label OTs (8192 ReLUs × 20 bits), far above
    // `ext::GRAIN`: each kernel on one thread against split across the
    // host's cores, as an alternating same-run A/B.
    let m = 163_840usize;
    println!("csv,par_threads,{}", par::threads());
    let choices = BitVec::from_bools(&(0..m).map(|_| rng.gen()).collect::<Vec<bool>>());
    let pairs: Vec<(u128, u128)> = (0..m).map(|_| (rng.gen(), rng.gen())).collect();
    let (u_msg, keys) = receiver.extend(&choices, &mut rng);
    let y = sender.transfer(&u_msg, &pairs);
    let extend = || _ = black_box(receiver.extend_at(0, &choices));
    one_thread_vs_split(&format!("extend{m}"), extend, 7);
    let transfer = || _ = black_box(sender.transfer(&u_msg, &pairs));
    one_thread_vs_split(&format!("transfer{m}"), transfer, 7);
    let decode = || _ = black_box(receiver.decode(&y, &choices, &keys));
    one_thread_vs_split(&format!("decode{m}"), decode, 7);
}

fn bench_base_ot() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let mut fe = || Fe::from_bytes(&std::array::from_fn(|_| rng.gen()));
    let (x, y) = (fe(), fe());
    let k = Scalar::random(&mut rng);
    let point = base_table().mul(&Scalar::random(&mut rng));
    let table = Table::new(&point);
    assert_eq!(point.mul(&k).encode(), table.mul(&k).encode());
    let points: Vec<Point> = (0..128)
        .map(|_| base_table().mul(&Scalar::random(&mut rng)))
        .collect();
    let encoded = point.encode();

    let samples = 10;
    kernel("base_ot/fe_mul", samples, || {
        black_box(&x).mul(black_box(&y))
    });
    let var = kernel("base_ot/scalar_mul_var", samples, || {
        point.mul(black_box(&k))
    });
    // Eight products under one scalar, as the sender's transfer takes
    // them: through the IFMA lanes where they run, else eight `mul`s.
    println!(
        "csv,curve_lanes,{}",
        if lanes_active() { "ifma" } else { "scalar" }
    );
    let eight = &points[..8];
    kernel("base_ot/scalar_mul_var_x8", samples, || {
        Point::mul_shared(black_box(eight), black_box(&k))
    });
    let fixed = kernel("base_ot/scalar_mul_fixed", samples, || {
        table.mul(black_box(&k))
    });
    kernel("base_ot/fixed_table_build", samples, || Table::new(&point));
    kernel("base_ot/encode_128_batched", samples, || {
        Point::encode_batch(&points)
    });
    kernel("base_ot/decode", samples, || {
        Point::decode(black_box(&encoded))
    });
    let setup = kernel("base_ot/setup_in_process", samples, || {
        setup_in_process(&mut rng)
    });

    // The IKNP setup's base OT, loop by loop: one thread vs split.
    let s: u128 = rng.gen();
    let pairs: Vec<(u128, u128)> = (0..128).map(|_| (rng.gen(), rng.gen())).collect();
    let (sender, setup_msg) = BaseOtSender::new(&mut rng);
    let choose = |rng: &mut rand::rngs::StdRng| {
        BaseOtReceiver::choose_packed(&setup_msg, s, 128, rng).expect("honest setup")
    };
    let (receiver, choice) = choose(&mut rng);
    let transfer = sender
        .transfer(&choice, &pairs, &mut rng)
        .expect("honest choice");
    let mut r1 = rng.clone();
    one_thread_vs_split("base_ot_choose128", || _ = black_box(choose(&mut r1)), 9);
    let transfer128 = || _ = black_box(sender.transfer(&choice, &pairs, &mut r1.clone()));
    one_thread_vs_split("base_ot_transfer128", transfer128, 9);
    let receive128 = || _ = black_box(receiver.receive(&transfer));
    one_thread_vs_split("base_ot_receive128", receive128, 9);

    println!(
        "csv,base_ot,setup_ms={:.2},var_us={:.1},fixed_us={:.1}",
        setup / 1e6,
        var / 1e3,
        fixed / 1e3
    );
}

fn main() {
    bench_ot();
    bench_base_ot();
}
