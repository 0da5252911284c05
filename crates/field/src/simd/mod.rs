//! Lane kernels for the Shoup/lazy hot loops, behind runtime backend
//! dispatch — each kernel written once over a small per-ISA primitive set.
//!
//! # Shape
//!
//! * `lanes.rs` defines the `Lanes` trait — one register of `W` u64 lanes
//!   with wrapping arithmetic — and **every kernel exactly once** as an
//!   `#[inline(always)]` generic function over it: `mul_shoup_lazy`, the
//!   lane Barrett reduction, the forward/inverse butterfly, and on top of
//!   those all the public kernels of this module.
//! * One file per ISA supplies the primitives and nothing else: `W`,
//!   `splat`, `load`, `store`, `add`, `sub`, `mullo`, `mulhi`, `csub`
//!   (conditional subtract), `lt` (unsigned compare to a lane mask),
//!   `inc_if` (`+1` on a lane mask) and `permute_block` (`W` lanes of a
//!   blocked permutation); `mulfull` and the carry-out add are
//!   derived, and overridable where an ISA computes both product halves
//!   from shared partial products.
//!   - `avx512.rs` — `Zmm`, 8 lanes (AVX512F+DQ+VL): native `vpmullq` low
//!     multiplies, mask-register compares, `vpermq` block permutes, plus
//!     the one ISA-specific hook: permute-based butterfly stages for
//!     strides below a register (see [`forward_stage`]).
//!   - `avx2.rs` — `Ymm`, 4 lanes: no 64×64 multiply exists, so high and
//!     low product halves are emulated from four `vpmuludq` (32×32→64)
//!     cross products.
//!   - `neon.rs` — 4 lanes as two `uint64x2_t`: the same cross-product
//!     emulation from `umull` over narrowed 32-bit halves.
//!   - `portable.rs` — `u64` itself, `W = 1`. This *is* the
//!     [`SimdBackend::Portable`] backend (the default wherever no vector
//!     unit is detected) and also the tail of every vector kernel: a
//!     pointwise entry point runs the kernel at the ISA's lanes over the
//!     whole registers and the same kernel at `u64` lanes over the rest.
//! * Macro-generated `#[target_feature]` entry points instantiate the
//!   generic kernels per ISA; the `dispatch!` macro here enters them after
//!   checking detection. The primitives are `#[inline(always)]` and carry
//!   no target feature themselves — they fold into the entry point (the
//!   `memchr` `Vector` idiom).
//!
//! [`SimdBackend::Scalar`] is the differential-test oracle, and it lives
//! here too: `scalar.rs` holds the canonical element-at-a-time Harvey
//! butterflies and pointwise loops, safe code written against
//! [`Modulus`]'s word operations and never against `Lanes`, so it shares no
//! arithmetic with the kernels it checks. `dispatch!` routes to it like to
//! any other backend — a caller passes [`backend`]'s answer to a wrapper
//! and never asks which one it got.
//!
//! Every lane backend computes the *identical* sequence of wrapping u64
//! operations — by construction, since the sequence is written once — so
//! results agree with the scalar engine **bit for bit**, including
//! unreduced lazy-domain representatives; the `ntt_simd_differential`
//! umbrella suite asserts it, and the primitive-level test in this module
//! checks each `Lanes` impl against `u64`/`u128` arithmetic by name.
//!
//! # Safety
//!
//! All `unsafe` lives in this module tree. The safe wrappers below are the
//! whole safety argument: each asserts its slice geometry (equal operand
//! lengths; for stages `a.len() == 2·m·t` and `m` twiddles; for the blocked
//! permutes that every source block lies inside `src` and every pattern
//! byte is `< 8`), `stage_backend` hands a lane backend only the strides
//! its registers divide, and `dispatch!` verifies the CPU feature, before
//! any generic kernel runs its unchecked register loads and stores.
//!
//! One rule for ISA files: an `asm!` operand of class `ymm_reg`/`zmm_reg`
//! is accepted only inside a function that itself carries the target
//! feature, and `#[inline(always)]` cannot be combined with
//! `#[target_feature]`. So the opaque-`vpmuludq` guard (which stops LLVM
//! from scalarizing the high-half emulation, see `avx2::mul_epu32_opaque`)
//! is an `#[inline] #[target_feature]` helper *called from* the trait
//! method, exactly as the intrinsics themselves are.
//!
//! # Blocked permutes
//!
//! [`permute8`], [`permute8_add_lazy`] and [`permute8_mul_acc_shoup2`]
//! move data by the aligned-8-block structure that every Galois
//! automorphism has in the bit-reversed slot order: each aligned 8-lane
//! output block reads a permutation of exactly one aligned 8-lane source
//! block, `out[8b+t] = src[8·bsrc[b] + pat_b(t)]` with
//! `pat_b(t) = (bpat[b] >> 8t) & 7`. AVX-512 does one contiguous zmm load
//! and one `vpermq` per block; the other ISAs pick lanes out of the block's
//! single cache line and keep the lane arithmetic vectorized. `src` must
//! not overlap the destination (enforced by the borrows at the wrapper
//! signatures). Rings with `n < 8` have no blocked table, so the scalar
//! form of these three is the caller's walk over the full index table
//! (`pi_poly::GaloisPerm`), not a loop in `scalar.rs`; under `Scalar` the
//! wrappers here run the block schedule at `u64` lanes.
//!
//! # Lazy-range invariants per kernel
//!
//! With `q < 2^62` every value in `[0, 4q)` fits a `u64` (see the
//! `modulus` module docs):
//!
//! | kernel                    | inputs                    | outputs    | stride    |
//! |---------------------------|---------------------------|------------|-----------|
//! | [`forward_stage`]         | `[0, 4q)`                 | `[0, 4q)`  | `t ≥ 1`   |
//! | [`inverse_stage`]         | `[0, 2q)`                 | `[0, 2q)`  | `t ≥ 1`   |
//! | [`inverse_last_stage`]    | `[0, 2q)`                 | `[0, q)`   | `len/2 ≥ 1` |
//! | [`reduce_4q`]             | `[0, 4q)`                 | `[0, q)`   |           |
//! | [`dyadic_mul_shoup`]      | `a` any u64, op reduced   | `[0, q)`   |           |
//! | [`dyadic_mul_acc_shoup`]  | acc `[0, 2q)`, `a` any    | `[0, 2q)`  |           |
//! | [`dyadic_mul`]            | both `[0, q)`             | `[0, q)`   |           |
//! | [`dyadic_mul_acc`]        | all `[0, q)`              | `[0, q)`   |           |
//! | [`permute8`]              | any u64                   | unchanged  |           |
//! | [`permute8_add_lazy`]     | acc, src `[0, 2q)`        | `[0, 2q)`  |           |
//! | [`permute8_mul_acc_shoup2`] | acc `[0, 2q)`, src any  | `[0, 2q)`  |           |
//!
//! The `_many` forms take the stride of their single-column kernel.
//!
//! The butterfly kernels implement exactly the Harvey formulation from
//! `pi-poly`: the forward stage conditionally subtracts `2q` from the upper
//! operand, runs `mul_shoup_lazy` on the lower one, and emits `u + v` /
//! `u + 2q − v`; the inverse stage pairs `add_lazy` with a lazy Shoup
//! multiply of `u + 2q − v`; the last inverse stage folds `n^{-1}` into its
//! twiddles and reduces exactly.
//!
//! # Dispatch rules
//!
//! [`backend`] resolves once per process (cached in an atomic), in order:
//!
//! 1. a programmatic override installed with [`force_backend`] (used by the
//!    differential tests to pin both sides of a comparison);
//! 2. the `PI_SIMD` environment variable: `scalar`/`off`/`0` select the
//!    scalar oracle, `portable` the `u64`-lane backend, `avx2`/`avx512`/
//!    `neon` demand that specific vector unit (**panicking** if it is not
//!    compiled in or not detected — a forced-SIMD CI run fails loudly
//!    instead of silently degrading), `auto`/`on`/`1` the automatic
//!    choice, and anything else panics;
//! 3. automatic detection: AVX-512 (F+DQ+VL), then AVX2, via
//!    `is_x86_feature_detected!` on x86_64; NEON unconditionally on
//!    aarch64 (baseline feature); otherwise the portable backend.
//!
//! Compiling with `--no-default-features` (disabling the `simd` cargo
//! feature) removes the intrinsics impls entirely; resolution then picks
//! the portable backend, which is how the non-AVX2 code path is built and
//! tested on every CI run.
//!
//! Stage granularity: the stage wrappers accept every stride `t ≥ 1`, and
//! one rule (`stage_backend`, beside `dispatch!`) decides per stage who
//! runs it: the lane kernels when `t` is a multiple of [`LANES`] = 4,
//! whatever the register width; on AVX-512 also `t ∈ {1, 2}` through its
//! permute hook whenever the slice holds whole 16-element groups; and the
//! scalar butterflies of `scalar.rs` otherwise — the last `log2(LANES)`
//! stages of a transform on the 4-lane backends, every stage under
//! `Scalar`.

use crate::modulus::{Modulus, ShoupMul};
use std::sync::atomic::{AtomicU8, Ordering};

// First, and `#[macro_use]`: the ISA modules below invoke its entry-point
// macros.
#[macro_use]
mod lanes;

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx2;
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx512;
#[cfg(all(feature = "simd", target_arch = "aarch64"))]
mod neon;
mod portable;
mod scalar;

/// The stride contract every lane backend shares, whatever its register
/// width: a butterfly stage whose stride is a positive multiple of `LANES`
/// runs on the lane kernels.
pub const LANES: usize = 4;

/// The selected kernel implementation (see the module docs for the
/// dispatch rules).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum SimdBackend {
    /// The element-at-a-time loops of `scalar.rs` — the differential
    /// oracle.
    Scalar = 1,
    /// The generic kernels at scalar `u64` lanes (compiled on every
    /// platform).
    Portable = 2,
    /// AVX2 `vpmuludq` high-half emulation on x86_64.
    Avx2 = 3,
    /// NEON `umull` cross products on aarch64.
    Neon = 4,
    /// AVX-512 (F+DQ+VL): 8 lanes, native `vpmullq` low multiplies, mask
    /// compares. Preferred over AVX2 when detected.
    Avx512 = 5,
}

impl SimdBackend {
    /// Short lowercase name, used in bench/CI logs (`csv,simd_backend,…`).
    pub fn name(self) -> &'static str {
        match self {
            SimdBackend::Scalar => "scalar",
            SimdBackend::Portable => "portable",
            SimdBackend::Avx2 => "avx2",
            SimdBackend::Neon => "neon",
            SimdBackend::Avx512 => "avx512",
        }
    }

    /// Whether this backend runs the lane kernels (everything except the
    /// scalar oracle).
    pub fn is_vector(self) -> bool {
        self != SimdBackend::Scalar
    }

    /// Whether this backend can run on the current build and CPU.
    pub fn available(self) -> bool {
        match self {
            SimdBackend::Scalar | SimdBackend::Portable => true,
            SimdBackend::Avx2 => {
                #[cfg(all(feature = "simd", target_arch = "x86_64"))]
                {
                    std::arch::is_x86_feature_detected!("avx2")
                }
                #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
                {
                    false
                }
            }
            SimdBackend::Neon => cfg!(all(feature = "simd", target_arch = "aarch64")),
            SimdBackend::Avx512 => {
                #[cfg(all(feature = "simd", target_arch = "x86_64"))]
                {
                    std::arch::is_x86_feature_detected!("avx512f")
                        && std::arch::is_x86_feature_detected!("avx512dq")
                        && std::arch::is_x86_feature_detected!("avx512vl")
                }
                #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
                {
                    false
                }
            }
        }
    }

    fn from_u8(v: u8) -> SimdBackend {
        match v {
            1 => SimdBackend::Scalar,
            2 => SimdBackend::Portable,
            3 => SimdBackend::Avx2,
            4 => SimdBackend::Neon,
            5 => SimdBackend::Avx512,
            _ => unreachable!("invalid backend encoding"),
        }
    }
}

/// 0 = unresolved; otherwise a `SimdBackend` discriminant.
static BACKEND: AtomicU8 = AtomicU8::new(0);

/// The backend every dispatching caller should use, resolved once per
/// process (override > `PI_SIMD` environment variable > detection) and
/// cached. See the module docs for the full rules.
#[inline]
pub fn backend() -> SimdBackend {
    match BACKEND.load(Ordering::Relaxed) {
        0 => {
            let be = resolve();
            BACKEND.store(be as u8, Ordering::Relaxed);
            be
        }
        v => SimdBackend::from_u8(v),
    }
}

/// The backend automatic detection would pick on this build and CPU,
/// ignoring any override or environment setting.
pub fn auto_backend() -> SimdBackend {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        if SimdBackend::Avx512.available() {
            return SimdBackend::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdBackend::Avx2;
        }
    }
    #[cfg(all(feature = "simd", target_arch = "aarch64"))]
    return SimdBackend::Neon;
    #[allow(unreachable_code)]
    SimdBackend::Portable
}

/// Pins the dispatched backend, overriding environment and detection.
/// Intended for differential tests and benchmarks that compare paths
/// in-process; serialize callers that flip it concurrently.
///
/// # Panics
///
/// Panics if the requested backend is not available on this build/CPU.
pub fn force_backend(be: SimdBackend) {
    assert!(
        be.available(),
        "SIMD backend {} is not available on this build/CPU",
        be.name()
    );
    BACKEND.store(be as u8, Ordering::Relaxed);
}

/// Removes a [`force_backend`] override; the next [`backend`] call
/// re-resolves from the environment and detection.
pub fn clear_forced_backend() {
    BACKEND.store(0, Ordering::Relaxed);
}

fn resolve() -> SimdBackend {
    match std::env::var("PI_SIMD") {
        Err(_) => auto_backend(),
        Ok(v) => match v.to_ascii_lowercase().as_str() {
            "" | "1" | "on" | "auto" => auto_backend(),
            "0" | "off" | "scalar" => SimdBackend::Scalar,
            "portable" => SimdBackend::Portable,
            "avx2" => {
                assert!(
                    SimdBackend::Avx2.available(),
                    "PI_SIMD=avx2 requested but AVX2 is unavailable \
                     (not an x86_64 build with the `simd` feature, or the CPU lacks it)"
                );
                SimdBackend::Avx2
            }
            "avx512" => {
                assert!(
                    SimdBackend::Avx512.available(),
                    "PI_SIMD=avx512 requested but AVX-512 (F+DQ+VL) is unavailable \
                     (not an x86_64 build with the `simd` feature, or the CPU lacks it)"
                );
                SimdBackend::Avx512
            }
            "neon" => {
                assert!(
                    SimdBackend::Neon.available(),
                    "PI_SIMD=neon requested but NEON is unavailable \
                     (not an aarch64 build with the `simd` feature)"
                );
                SimdBackend::Neon
            }
            other => panic!(
                "unknown PI_SIMD value {other:?} \
                 (expected scalar|portable|avx2|avx512|neon|auto)"
            ),
        },
    }
}

/// Routes one kernel invocation to the requested backend: the scalar
/// oracle's safe loops, or (`@lanes`) the generic kernels at that backend's
/// registers. The blocked permutes have no loop in `scalar.rs` (their
/// callers keep the oracle side, see the module docs) and enter at
/// `@lanes`. An
/// unavailable vector backend (possible only if a caller passes a stale
/// enum value, since [`force_backend`]/[`backend`] validate) degrades to
/// the portable fallback rather than risking an illegal-instruction fault.
macro_rules! dispatch {
    ($be:expr, $name:ident($($arg:expr),* $(,)?)) => {{
        match $be {
            SimdBackend::Scalar => scalar::$name($($arg),*),
            be => dispatch!(@lanes be, $name($($arg),*)),
        }
    }};
    (@lanes $be:expr, $name:ident($($arg:expr),* $(,)?)) => {{
        match $be {
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            SimdBackend::Avx512 if SimdBackend::Avx512.available() => {
                // SAFETY: AVX512F/DQ/VL support was just verified on this CPU.
                #[allow(unsafe_code)]
                unsafe { avx512::$name($($arg),*) }
            }
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            SimdBackend::Avx2 if std::arch::is_x86_feature_detected!("avx2") => {
                // SAFETY: AVX2 support was just verified on this CPU.
                #[allow(unsafe_code)]
                unsafe { avx2::$name($($arg),*) }
            }
            #[cfg(all(feature = "simd", target_arch = "aarch64"))]
            SimdBackend::Neon => {
                // SAFETY: NEON is a baseline feature of every aarch64 target.
                #[allow(unsafe_code)]
                unsafe { neon::$name($($arg),*) }
            }
            _ => {
                // SAFETY: the `u64` lanes use no ISA extension, and every
                // caller of this macro has asserted the slice geometry.
                #[allow(unsafe_code)]
                unsafe { portable::$name($($arg),*) }
            }
        }
    }};
}

/// The one stride rule: the backend that runs a butterfly stage of stride
/// `t ≥ 1` over `len` elements when the caller asked for `be`. A lane
/// backend takes every multiple of [`LANES`] (its registers divide such a
/// stride; the AVX-512 entry point steps down to its permute path or to ymm
/// width at `t ≡ 4 mod 8`), AVX-512 also `t ∈ {1, 2}` through the permute
/// path over whole 16-element groups. Every other stage — and every stage
/// under `Scalar` — runs the scalar butterflies, which accept any stride.
#[inline]
fn stage_backend(be: SimdBackend, t: usize, len: usize) -> SimdBackend {
    let small_ok = be == SimdBackend::Avx512 && matches!(t, 1 | 2) && len.is_multiple_of(16);
    if t.is_multiple_of(LANES) || small_ok {
        be
    } else {
        SimdBackend::Scalar
    }
}

/// Geometry check shared by the stage wrappers — with [`stage_backend`]
/// the safety argument for the kernels' unchecked register accesses.
fn assert_stage_geometry(w_vals: &[u64], w_quots: &[u64], a: &[u64], m: usize, t: usize) {
    assert!(t >= 1, "stage stride must be positive");
    assert_eq!(a.len(), 2 * m * t, "stage slice length mismatch");
    assert!(
        w_vals.len() >= m && w_quots.len() >= m,
        "twiddle slice too short"
    );
}

/// One forward Cooley–Tukey butterfly stage: `m` blocks of stride `t`, the
/// `i`-th block using twiddle `(w_vals[i], w_quots[i])` in Shoup form.
/// Values stay in the `[0, 4q)` forward domain.
///
/// # Panics
///
/// Panics if `t == 0`, `a.len() != 2·m·t` or the twiddle slices are
/// shorter than `m`. Every stride `t ≥ 1` is accepted on every backend
/// (see "Stage granularity" in the module docs for who runs it).
pub fn forward_stage(
    be: SimdBackend,
    q: &Modulus,
    w_vals: &[u64],
    w_quots: &[u64],
    a: &mut [u64],
    m: usize,
    t: usize,
) {
    assert_stage_geometry(w_vals, w_quots, a, m, t);
    let be = stage_backend(be, t, a.len());
    dispatch!(be, forward_stage(q, w_vals, w_quots, a, m, t))
}

/// The batched form of [`forward_stage`]: the same stage applied to every
/// column in `batch`, with the loop order flipped to twiddle-outer /
/// column-inner so each Shoup pair is splat into registers **once for the
/// whole batch** instead of once per column. Arithmetic per element is
/// identical to the single-column kernel, so outputs are bit-for-bit equal.
///
/// # Panics
///
/// Panics if any column fails the [`forward_stage`] geometry conditions.
pub fn forward_stage_many(
    be: SimdBackend,
    q: &Modulus,
    w_vals: &[u64],
    w_quots: &[u64],
    batch: &mut [&mut [u64]],
    m: usize,
    t: usize,
) {
    for a in batch.iter() {
        assert_stage_geometry(w_vals, w_quots, a, m, t);
    }
    let be = stage_backend(be, t, 2 * m * t);
    dispatch!(be, forward_stage_many(q, w_vals, w_quots, batch, m, t))
}

/// One inverse Gentleman–Sande butterfly stage (not the last): `h` blocks
/// of stride `t` over the `[0, 2q)` lazy domain.
///
/// # Panics
///
/// Panics under the same geometry conditions as [`forward_stage`].
pub fn inverse_stage(
    be: SimdBackend,
    q: &Modulus,
    w_vals: &[u64],
    w_quots: &[u64],
    a: &mut [u64],
    h: usize,
    t: usize,
) {
    assert_stage_geometry(w_vals, w_quots, a, h, t);
    let be = stage_backend(be, t, a.len());
    dispatch!(be, inverse_stage(q, w_vals, w_quots, a, h, t))
}

/// The batched form of [`inverse_stage`] (see [`forward_stage_many`] for
/// the twiddle-outer / column-inner rationale).
///
/// # Panics
///
/// Panics if any column fails the [`forward_stage`] geometry conditions.
pub fn inverse_stage_many(
    be: SimdBackend,
    q: &Modulus,
    w_vals: &[u64],
    w_quots: &[u64],
    batch: &mut [&mut [u64]],
    h: usize,
    t: usize,
) {
    for a in batch.iter() {
        assert_stage_geometry(w_vals, w_quots, a, h, t);
    }
    let be = stage_backend(be, t, 2 * h * t);
    dispatch!(be, inverse_stage_many(q, w_vals, w_quots, batch, h, t))
}

/// The last inverse stage with the `n^{-1}` scaling folded into its two
/// twiddles; reduces exactly into `[0, q)`.
///
/// # Panics
///
/// Panics if `a.len()` is odd or zero.
pub fn inverse_last_stage(
    be: SimdBackend,
    q: &Modulus,
    n_inv: ShoupMul,
    psi_n_inv: ShoupMul,
    a: &mut [u64],
) {
    let half = a.len() / 2;
    assert!(a.len() == 2 * half && half >= 1);
    let be = stage_backend(be, half, a.len());
    dispatch!(be, inverse_last_stage(q, n_inv, psi_n_inv, a))
}

/// Final correction pass `[0, 4q) → [0, q)` over a slice (two conditional
/// subtractions per element; arbitrary length, scalar tail).
pub fn reduce_4q(be: SimdBackend, q: &Modulus, a: &mut [u64]) {
    dispatch!(be, reduce_4q(q, a))
}

/// Pointwise Shoup product `out[i] = a[i]·w[i] mod q`, strictly reduced.
/// `a` may be in the lazy range (any u64, per the Shoup contract);
/// `(vals, quots)` are the per-element Shoup pairs.
///
/// # Panics
///
/// Panics on length mismatch.
pub fn dyadic_mul_shoup(
    be: SimdBackend,
    q: &Modulus,
    out: &mut [u64],
    a: &[u64],
    vals: &[u64],
    quots: &[u64],
) {
    let n = out.len();
    assert!(a.len() == n && vals.len() == n && quots.len() == n);
    dispatch!(be, dyadic_mul_shoup(q, out, a, vals, quots))
}

/// Lazy pointwise Shoup multiply-accumulate over the `[0, 2q)` domain:
/// `acc[i] ← add_lazy(acc[i], mul_shoup_lazy(a[i], w[i]))`.
///
/// # Panics
///
/// Panics on length mismatch.
pub fn dyadic_mul_acc_shoup(
    be: SimdBackend,
    q: &Modulus,
    acc: &mut [u64],
    a: &[u64],
    vals: &[u64],
    quots: &[u64],
) {
    let n = acc.len();
    assert!(a.len() == n && vals.len() == n && quots.len() == n);
    dispatch!(be, dyadic_mul_acc_shoup(q, acc, a, vals, quots))
}

/// Bounds check shared by the blocked-permute wrappers — the entire safety
/// argument for the unchecked loads and `vpermq` steering in the backends:
/// every source block must lie inside `src` and every packed pattern byte
/// must select an intra-block lane (`< 8`).
#[inline]
fn assert_permute8_args(out_len: usize, src_len: usize, bsrc: &[u32], bpat: &[u64]) {
    assert!(out_len.is_multiple_of(8), "blocked permute needs 8 | len");
    let blocks = out_len / 8;
    assert!(bsrc.len() == blocks && bpat.len() == blocks);
    assert!(
        bsrc.iter().all(|&b| (b as usize) * 8 + 8 <= src_len),
        "permute source block out of bounds (src len {src_len})"
    );
    assert!(
        bpat.iter().all(|&p| p & !0x0707_0707_0707_0707 == 0),
        "permute pattern byte out of block range"
    );
}

/// Blocked in-register permutation: `out[8b+t] = src[8·bsrc[b] + pat_b(t)]`
/// where `pat_b(t)` is byte `t` of `bpat[b]` — the index structure every
/// power-of-two Galois automorphism has in the bit-reversed slot order. On
/// AVX-512 each block is one zmm load + one `vpermq` + one store; the
/// other backends move block-locally out of a single cache line. Pure data
/// movement — bit-for-bit on every backend, lazy inputs included.
///
/// # Panics
///
/// Panics on length mismatch, an out-of-range source block, or a pattern
/// byte `≥ 8`.
pub fn permute8(be: SimdBackend, out: &mut [u64], src: &[u64], bsrc: &[u32], bpat: &[u64]) {
    assert_permute8_args(out.len(), src.len(), bsrc, bpat);
    dispatch!(@lanes be, permute8(out, src, bsrc, bpat))
}

/// Fused blocked permute + lazy add over the `[0, 2q)` domain:
/// `acc[8b+t] ← add_lazy(acc[8b+t], src[8·bsrc[b] + pat_b(t)])`.
///
/// # Panics
///
/// Panics under the same conditions as [`permute8`].
pub fn permute8_add_lazy(
    be: SimdBackend,
    q: &Modulus,
    acc: &mut [u64],
    src: &[u64],
    bsrc: &[u32],
    bpat: &[u64],
) {
    assert_permute8_args(acc.len(), src.len(), bsrc, bpat);
    dispatch!(@lanes be, permute8_add_lazy(q, acc, src, bsrc, bpat))
}

/// The fused key-switch inner loop: permute `t = src[8·bsrc[b] + pat_b(·)]`
/// once with the block schedule of [`permute8`], then
/// `acc0 ← add_lazy(acc0, mul_shoup_lazy(t, w0))` and the same for
/// `acc1`/`w1` — the permuted digit feeds both halves of the switching key
/// in one pass over memory (no materialized permuted buffer).
///
/// # Panics
///
/// Panics on length mismatch or under the [`permute8`] block conditions.
#[allow(clippy::too_many_arguments)]
pub fn permute8_mul_acc_shoup2(
    be: SimdBackend,
    q: &Modulus,
    acc0: &mut [u64],
    acc1: &mut [u64],
    src: &[u64],
    bsrc: &[u32],
    bpat: &[u64],
    vals0: &[u64],
    quots0: &[u64],
    vals1: &[u64],
    quots1: &[u64],
) {
    let n = acc0.len();
    assert!(
        acc1.len() == n
            && vals0.len() == n
            && quots0.len() == n
            && vals1.len() == n
            && quots1.len() == n
    );
    assert_permute8_args(n, src.len(), bsrc, bpat);
    dispatch!(
        @lanes be,
        permute8_mul_acc_shoup2(q, acc0, acc1, src, bsrc, bpat, vals0, quots0, vals1, quots1)
    )
}

/// Pointwise Barrett product `out[i] = a[i]·b[i] mod q` of strictly
/// reduced slices (the full 128-bit Barrett reduction in lane form).
///
/// # Panics
///
/// Panics on length mismatch.
pub fn dyadic_mul(be: SimdBackend, q: &Modulus, out: &mut [u64], a: &[u64], b: &[u64]) {
    let n = out.len();
    assert!(a.len() == n && b.len() == n);
    dispatch!(be, dyadic_mul(q, out, a, b))
}

/// Pointwise Barrett multiply-accumulate
/// `acc[i] = (acc[i] + a[i]·b[i]) mod q` for strictly reduced inputs —
/// one fused reduction per slot, like [`Modulus::mul_add`].
///
/// # Panics
///
/// Panics on length mismatch.
pub fn dyadic_mul_acc(be: SimdBackend, q: &Modulus, acc: &mut [u64], a: &[u64], b: &[u64]) {
    let n = acc.len();
    assert!(a.len() == n && b.len() == n);
    dispatch!(be, dyadic_mul_acc(q, acc, a, b))
}

#[cfg(test)]
mod tests {
    use super::lanes::Lanes;
    use super::*;
    use crate::find_ntt_prime;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// Lane backends that can run here (portable everywhere, plus any
    /// detected vector unit). `Scalar` is what they are compared against.
    fn runnable_backends() -> Vec<SimdBackend> {
        let mut v = vec![SimdBackend::Portable];
        for be in [SimdBackend::Avx2, SimdBackend::Avx512, SimdBackend::Neon] {
            if be.available() {
                v.push(be);
            }
        }
        v
    }

    fn boundary_moduli() -> Vec<Modulus> {
        // 28/45/59-bit NTT primes as in the scalar Shoup==Barrett tests,
        // plus the 61/62-bit overflow edges where w·a approaches 2^126 and
        // the forward domain approaches 2^64 (62 bits is the Modulus
        // ceiling and the production BFV modulus).
        [28u32, 45, 59, 61, 62]
            .iter()
            .map(|&bits| Modulus::new(find_ntt_prime(bits, 4096)))
            .collect()
    }

    /// Operand grid at the range boundaries of every lazy domain.
    fn boundary_operands(q: &Modulus) -> Vec<u64> {
        vec![
            0,
            1,
            q.value() - 1,
            q.value(),
            q.twice() - 1,
            q.twice(),
            4 * q.value() - 1,
            u64::MAX,
        ]
    }

    #[test]
    fn dyadic_mul_shoup_boundary_values_match_scalar() {
        for q in boundary_moduli() {
            let a = boundary_operands(&q);
            let w_raw: Vec<u64> = vec![
                0,
                1,
                q.value() - 1,
                q.value() / 2,
                q.value() - 1,
                2,
                q.value() / 3,
                q.value() - 2,
            ];
            let shoups: Vec<ShoupMul> = w_raw.iter().map(|&w| q.shoup(w)).collect();
            let vals: Vec<u64> = shoups.iter().map(|s| s.value).collect();
            let quots: Vec<u64> = shoups.iter().map(|s| s.quotient).collect();
            let expect: Vec<u64> = a
                .iter()
                .zip(&shoups)
                .map(|(&x, &s)| q.mul_shoup(x, s))
                .collect();
            for be in runnable_backends() {
                let mut out = vec![0u64; a.len()];
                dyadic_mul_shoup(be, &q, &mut out, &a, &vals, &quots);
                assert_eq!(out, expect, "backend {} q {}", be.name(), q);
            }
        }
    }

    #[test]
    fn dyadic_mul_acc_shoup_boundary_values_match_scalar_bitwise() {
        for q in boundary_moduli() {
            let a = boundary_operands(&q);
            // Accumulator pinned at the top of its [0, 2q) domain.
            let acc0: Vec<u64> = (0..a.len() as u64)
                .map(|i| {
                    if i % 2 == 0 {
                        q.twice() - 1
                    } else {
                        q.value() - 1
                    }
                })
                .collect();
            let w = q.shoup(q.value() - 1);
            let vals = vec![w.value; a.len()];
            let quots = vec![w.quotient; a.len()];
            let expect: Vec<u64> = acc0
                .iter()
                .zip(&a)
                .map(|(&o, &x)| q.add_lazy(o, q.mul_shoup_lazy(x, w)))
                .collect();
            for be in runnable_backends() {
                let mut acc = acc0.clone();
                dyadic_mul_acc_shoup(be, &q, &mut acc, &a, &vals, &quots);
                // Bit-for-bit on the unreduced lazy representatives.
                assert_eq!(acc, expect, "backend {} q {}", be.name(), q);
            }
        }
    }

    #[test]
    fn dyadic_barrett_boundary_values_match_scalar() {
        for q in boundary_moduli() {
            // Barrett kernels require strictly reduced operands.
            let a = vec![
                0,
                1,
                q.value() - 1,
                q.value() / 2,
                q.value() - 1,
                2,
                3,
                q.value() - 2,
            ];
            let b = vec![
                q.value() - 1,
                q.value() - 1,
                q.value() - 1,
                q.value() / 2,
                1,
                0,
                q.value() - 3,
                q.value() - 2,
            ];
            let acc0 = vec![q.value() - 1; a.len()];
            let expect_mul: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| q.mul(x, y)).collect();
            let expect_acc: Vec<u64> = acc0
                .iter()
                .zip(a.iter().zip(&b))
                .map(|(&c, (&x, &y))| q.mul_add(x, y, c))
                .collect();
            for be in runnable_backends() {
                let mut out = vec![0u64; a.len()];
                dyadic_mul(be, &q, &mut out, &a, &b);
                assert_eq!(out, expect_mul, "mul backend {} q {}", be.name(), q);
                let mut acc = acc0.clone();
                dyadic_mul_acc(be, &q, &mut acc, &a, &b);
                assert_eq!(acc, expect_acc, "mul_acc backend {} q {}", be.name(), q);
            }
        }
    }

    #[test]
    fn butterfly_stages_boundary_values_match_scalar_bitwise() {
        // One 16-element stage at each stride t ∈ {1, 2, 4} (m = 8/t
        // blocks), inputs pinned at the domain boundaries, twiddles at
        // w = q−1 (the high-half emulation's worst case) — mirrors the
        // scalar Harvey invariants tests. The strides below LANES are the
        // ones a lane backend hands to the scalar butterflies (AVX-512:
        // to its permute path).
        for q in boundary_moduli() {
            let two_q = q.twice();
            let w: Vec<ShoupMul> = (0..8)
                .map(|i| q.shoup([q.value() - 1, q.value() / 2][i % 2]))
                .collect();
            let vals: Vec<u64> = w.iter().map(|s| s.value).collect();
            let quots: Vec<u64> = w.iter().map(|s| s.quotient).collect();
            // Forward inputs in [0, 4q), inverse inputs in [0, 2q); period 5
            // so every stride pairs different boundary values.
            let fwd_in: Vec<u64> = (0..16u64)
                .map(|i| [0, q.value() - 1, two_q - 1, two_q, 4 * q.value() - 1][(i % 5) as usize])
                .collect();
            let inv_in: Vec<u64> = (0..16u64)
                .map(|i| [0, 1, q.value() - 1, q.value(), two_q - 1][(i % 5) as usize])
                .collect();

            for t in [1usize, 2, 4] {
                let m = 8 / t;
                let mut expect = fwd_in.clone();
                for (blk, &s) in w.iter().enumerate().take(m) {
                    for j in 0..t {
                        let (lo, hi) = (2 * blk * t + j, 2 * blk * t + t + j);
                        let mut u = expect[lo];
                        if u >= two_q {
                            u -= two_q;
                        }
                        let v = q.mul_shoup_lazy(expect[hi], s);
                        expect[lo] = u + v;
                        expect[hi] = u + two_q - v;
                    }
                }
                for be in runnable_backends() {
                    let mut a = fwd_in.clone();
                    forward_stage(be, &q, &vals, &quots, &mut a, m, t);
                    assert_eq!(a, expect, "forward t={t} backend {} q {}", be.name(), q);
                }

                let mut expect = inv_in.clone();
                for (blk, &s) in w.iter().enumerate().take(m) {
                    for j in 0..t {
                        let (lo, hi) = (2 * blk * t + j, 2 * blk * t + t + j);
                        let (u, v) = (expect[lo], expect[hi]);
                        expect[lo] = q.add_lazy(u, v);
                        expect[hi] = q.mul_shoup_lazy(u + two_q - v, s);
                    }
                }
                for be in runnable_backends() {
                    let mut a = inv_in.clone();
                    inverse_stage(be, &q, &vals, &quots, &mut a, m, t);
                    assert_eq!(a, expect, "inverse t={t} backend {} q {}", be.name(), q);
                }
            }

            // Last inverse stage (folded n^{-1}): output strictly reduced.
            let n_inv = q.shoup(q.inv(8).unwrap());
            let psi_n_inv = q.shoup(q.mul(q.value() - 3 % q.value(), q.inv(8).unwrap()));
            let mut expect = inv_in.clone();
            let half = expect.len() / 2;
            for j in 0..half {
                let (u, v) = (expect[j], expect[half + j]);
                expect[j] = q.mul_shoup(u + v, n_inv);
                expect[half + j] = q.mul_shoup(u + two_q - v, psi_n_inv);
            }
            for be in runnable_backends() {
                let mut a = inv_in.clone();
                inverse_last_stage(be, &q, n_inv, psi_n_inv, &mut a);
                assert_eq!(a, expect, "last stage backend {} q {}", be.name(), q);
            }

            // reduce_4q over an odd-length slice (scalar tail included).
            let a: Vec<u64> = (0..13u64)
                .map(|i| [0, q.value() - 1, two_q, 4 * q.value() - 1][(i % 4) as usize])
                .collect();
            let expect: Vec<u64> = a.iter().map(|&x| q.reduce_4q(x)).collect();
            for be in runnable_backends() {
                let mut got = a.clone();
                reduce_4q(be, &q, &mut got);
                assert_eq!(got, expect, "reduce_4q backend {} q {}", be.name(), q);
            }
        }
    }

    #[test]
    fn stage_wrappers_accept_every_stride_and_match_the_scalar_backend() {
        // The one stride rule, from the caller's side: any well-formed
        // stage runs on any backend, and whoever `stage_backend` picks
        // agrees bit for bit with the scalar butterflies — lazy
        // representatives included.
        let q = Modulus::new(find_ntt_prime(62, 64));
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        for t in [1usize, 2, 4, 8, 16] {
            for len in [2 * t, 16, 32, 64] {
                if !len.is_multiple_of(2 * t) {
                    continue;
                }
                let m = len / (2 * t);
                let w: Vec<ShoupMul> = (0..m)
                    .map(|_| q.shoup(rng.gen_range(0..q.value())))
                    .collect();
                let (vals, quots): (Vec<u64>, Vec<u64>) =
                    w.iter().map(|s| (s.value, s.quotient)).unzip();
                let last = (w[0], q.shoup(rng.gen_range(0..q.value())));
                let mut column = |bound: u64| -> Vec<u64> {
                    (0..len).map(|_| rng.gen_range(0..bound)).collect()
                };
                let fwd_in = [column(4 * q.value()), column(4 * q.value())];
                let inv_in = [column(q.twice()), column(q.twice())];
                // (forward, forward_many, inverse, inverse_many, last stage)
                let run = |be: SimdBackend| {
                    let many = |input: &[Vec<u64>; 2], fwd: bool| {
                        let mut cols = input.clone();
                        let [c0, c1] = &mut cols;
                        let batch: &mut [&mut [u64]] = &mut [c0, c1];
                        if fwd {
                            forward_stage_many(be, &q, &vals, &quots, batch, m, t);
                        } else {
                            inverse_stage_many(be, &q, &vals, &quots, batch, m, t);
                        }
                        cols
                    };
                    let mut f = fwd_in[0].clone();
                    forward_stage(be, &q, &vals, &quots, &mut f, m, t);
                    let mut i = inv_in[0].clone();
                    inverse_stage(be, &q, &vals, &quots, &mut i, m, t);
                    let mut l = inv_in[1].clone();
                    inverse_last_stage(be, &q, last.0, last.1, &mut l);
                    (f, many(&fwd_in, true), i, many(&inv_in, false), l)
                };
                let expect = run(SimdBackend::Scalar);
                assert_eq!(expect.0, expect.1[0], "many != single, t={t} len={len}");
                assert_eq!(expect.2, expect.3[0], "many != single, t={t} len={len}");
                for be in runnable_backends() {
                    assert_eq!(run(be), expect, "t={t} len={len} backend {}", be.name());
                }
            }
        }
    }

    /// Calls `$f::<V>(…)` with `V` the `Lanes` impl behind backend `$be`.
    macro_rules! with_lanes_of {
        ($be:expr, $f:ident($($arg:expr),*)) => {
            match $be {
                SimdBackend::Portable => $f::<u64>($($arg),*),
                #[cfg(all(feature = "simd", target_arch = "x86_64"))]
                SimdBackend::Avx2 => $f::<avx2::Ymm>($($arg),*),
                #[cfg(all(feature = "simd", target_arch = "x86_64"))]
                SimdBackend::Avx512 => $f::<avx512::Zmm>($($arg),*),
                #[cfg(all(feature = "simd", target_arch = "aarch64"))]
                SimdBackend::Neon => $f::<neon::Neon>($($arg),*),
                other => unreachable!("backend {} has no Lanes impl here", other.name()),
            }
        };
    }

    /// Every arithmetic primitive of `V` on the lane-wise pairs
    /// `(a[i], b[i])` against `u64`/`u128` arithmetic; the error names the
    /// primitive. `V` must belong to a backend in [`runnable_backends`].
    #[allow(unsafe_code)]
    fn check_arith_primitives<V: Lanes>(a: &[u64], b: &[u64]) -> Result<(), String> {
        assert!(a.len() == b.len() && a.len().is_multiple_of(V::W));
        let mut got = vec![0u64; V::W];
        for (x, y) in a.chunks_exact(V::W).zip(b.chunks_exact(V::W)) {
            // SAFETY: the caller picked `V` from an available backend, and
            // every slice handed to load/store holds exactly `W` words.
            unsafe {
                let (va, vb, zero) = (V::load(x), V::load(y), V::splat(0));
                let lt = va.lt(vb);
                let (sum, carry) = va.add_carry(vb);
                let (hi, lo) = va.mulfull(vb);
                let wide = |a: u64, b: u64| a as u128 * b as u128;
                type Oracle<'a> = &'a dyn Fn(u64, u64) -> u64;
                let cases: [(&str, V, Oracle); 13] = [
                    ("load", va, &|a, _| a),
                    ("splat", V::splat(x[0]), &|_, _| x[0]),
                    ("add", va.add(vb), &|a, b| a.wrapping_add(b)),
                    ("sub", va.sub(vb), &|a, b| a.wrapping_sub(b)),
                    ("mullo", va.mullo(vb), &|a, b| a.wrapping_mul(b)),
                    ("mulhi", va.mulhi(vb), &|a, b| (wide(a, b) >> 64) as u64),
                    ("mulfull.hi", hi, &|a, b| (wide(a, b) >> 64) as u64),
                    ("mulfull.lo", lo, &|a, b| wide(a, b) as u64),
                    ("csub", va.csub(vb), &|a, b| if a >= b { a - b } else { a }),
                    // A mask is only observable through the masked
                    // increment, so `lt` is read through it.
                    ("lt/inc_if", zero.inc_if(lt), &|a, b| (a < b) as u64),
                    ("inc_if", va.inc_if(lt), &|a, b| {
                        a.wrapping_add((a < b) as u64)
                    }),
                    ("add_carry.sum", sum, &|a, b| a.wrapping_add(b)),
                    ("add_carry.carry", zero.inc_if(carry), &|a, b| {
                        a.overflowing_add(b).1 as u64
                    }),
                ];
                for (name, v, expect) in cases {
                    v.store(&mut got);
                    for i in 0..V::W {
                        let want = expect(x[i], y[i]);
                        if got[i] != want {
                            return Err(format!(
                                "{name}({:#x}, {:#x}) = {:#x}, expected {want:#x}",
                                x[i], y[i], got[i]
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// `V::permute_block` at every lane offset of an 8-block.
    #[allow(unsafe_code)]
    fn check_permute_block<V: Lanes>(blk: &[u64; 8], pat: u64) -> Result<(), String> {
        let mut got = vec![0u64; V::W];
        for h in (0..8).step_by(V::W) {
            // SAFETY: `V` is from an available backend; `blk` holds 8 words
            // and `got` holds `W`.
            unsafe { V::permute_block(blk, pat >> (8 * h)).store(&mut got) };
            for (t, &g) in got.iter().enumerate() {
                let want = blk[(pat >> (8 * (h + t))) as usize & 7];
                if g != want {
                    return Err(format!(
                        "permute_block(pat {pat:#018x}) lane {}: {g:#x}, expected {want:#x}",
                        h + t
                    ));
                }
            }
        }
        Ok(())
    }

    #[test]
    fn lanes_primitives_match_scalar_arithmetic_on_boundary_grid() {
        for q in boundary_moduli() {
            // The full cross product of the boundary operands: 64 pairs.
            let ops = boundary_operands(&q);
            let a: Vec<u64> = ops.iter().flat_map(|&x| vec![x; ops.len()]).collect();
            let b: Vec<u64> = ops.iter().flat_map(|_| ops.clone()).collect();
            for be in runnable_backends() {
                with_lanes_of!(be, check_arith_primitives(&a, &b))
                    .unwrap_or_else(|e| panic!("{} lanes, q {q}: {e}", be.name()));
            }
        }
        let blk = [10u64, 11, 12, 13, 14, 15, 16, u64::MAX];
        for pat in [
            0x0706_0504_0302_0100u64, // identity
            0x0001_0203_0405_0607,    // reversal
            0x0000_0000_0000_0000,    // broadcast lane 0
            0x0707_0707_0707_0707,    // broadcast lane 7
            0x0305_0107_0206_0004,    // a bijection
            0x0303_0505_0101_0606,    // duplicates
        ] {
            for be in runnable_backends() {
                with_lanes_of!(be, check_permute_block(&blk, pat))
                    .unwrap_or_else(|e| panic!("{} lanes: {e}", be.name()));
            }
        }
    }

    #[test]
    fn backend_resolution_reports_available_name() {
        let be = auto_backend();
        assert!(be.available());
        assert!(be.is_vector());
        assert!(["portable", "avx2", "avx512", "neon"].contains(&be.name()));
    }

    #[test]
    fn permute8_kernels_match_scalar_bitwise() {
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        for q in boundary_moduli() {
            // 8 output blocks over a 16-block source; patterns include
            // duplicates and identity (the kernel contract only requires
            // bytes < 8, not a bijection).
            let blocks = 8usize;
            let n = blocks * 8;
            let src: Vec<u64> = (0..128).map(|_| rng.gen_range(0..q.twice())).collect();
            let bsrc: Vec<u32> = (0..blocks as u32).map(|_| rng.gen_range(0..16)).collect();
            let bpat: Vec<u64> = (0..blocks)
                .map(|b| {
                    let mut p = 0u64;
                    for t in 0..8 {
                        let lane = if b == 0 {
                            t as u64
                        } else {
                            rng.gen_range(0..8u64)
                        };
                        p |= lane << (8 * t);
                    }
                    p
                })
                .collect();
            let idx: Vec<u32> = (0..n)
                .map(|j| bsrc[j / 8] * 8 + ((bpat[j / 8] >> (8 * (j % 8))) as u32 & 7))
                .collect();
            let acc0: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q.twice())).collect();
            let w0: Vec<ShoupMul> = (0..n)
                .map(|_| q.shoup(rng.gen_range(0..q.value())))
                .collect();
            let w1: Vec<ShoupMul> = (0..n)
                .map(|_| q.shoup(rng.gen_range(0..q.value())))
                .collect();
            let (v0, q0): (Vec<u64>, Vec<u64>) = w0.iter().map(|s| (s.value, s.quotient)).unzip();
            let (v1, q1): (Vec<u64>, Vec<u64>) = w1.iter().map(|s| (s.value, s.quotient)).unzip();

            let expect_perm: Vec<u64> = idx.iter().map(|&i| src[i as usize]).collect();
            let expect_add: Vec<u64> = acc0
                .iter()
                .zip(&idx)
                .map(|(&a, &i)| q.add_lazy(a, src[i as usize]))
                .collect();
            let expect0: Vec<u64> = acc0
                .iter()
                .zip(idx.iter().zip(&w0))
                .map(|(&a, (&i, &w))| q.add_lazy(a, q.mul_shoup_lazy(src[i as usize], w)))
                .collect();
            let expect1: Vec<u64> = acc0
                .iter()
                .zip(idx.iter().zip(&w1))
                .map(|(&a, (&i, &w))| q.add_lazy(a, q.mul_shoup_lazy(src[i as usize], w)))
                .collect();

            for be in runnable_backends() {
                let mut out = vec![0u64; n];
                permute8(be, &mut out, &src, &bsrc, &bpat);
                assert_eq!(out, expect_perm, "permute8 backend {} q {}", be.name(), q);

                let mut acc = acc0.clone();
                permute8_add_lazy(be, &q, &mut acc, &src, &bsrc, &bpat);
                assert_eq!(
                    acc,
                    expect_add,
                    "permute8_add backend {} q {}",
                    be.name(),
                    q
                );

                let mut a0 = acc0.clone();
                let mut a1 = acc0.clone();
                permute8_mul_acc_shoup2(
                    be, &q, &mut a0, &mut a1, &src, &bsrc, &bpat, &v0, &q0, &v1, &q1,
                );
                assert_eq!(a0, expect0, "permute8_mac2/0 backend {} q {}", be.name(), q);
                assert_eq!(a1, expect1, "permute8_mac2/1 backend {} q {}", be.name(), q);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn lanes_primitives_match_scalar_arithmetic_random(seed in any::<u64>()) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            // Full-width words, plus narrow ones so the 32-bit cross
            // products see zero high halves.
            let a: Vec<u64> = (0..64).map(|i| rng.r#gen::<u64>() >> (i % 4 * 16)).collect();
            let b: Vec<u64> = (0..64).map(|i| rng.r#gen::<u64>() >> (i / 4 % 4 * 16)).collect();
            let blk: [u64; 8] = std::array::from_fn(|_| rng.r#gen());
            let pat = rng.r#gen::<u64>() & 0x0707_0707_0707_0707;
            for be in runnable_backends() {
                let r = with_lanes_of!(be, check_arith_primitives(&a, &b));
                prop_assert!(r.is_ok(), "{} lanes: {}", be.name(), r.unwrap_err());
                let r = with_lanes_of!(be, check_permute_block(&blk, pat));
                prop_assert!(r.is_ok(), "{} lanes: {}", be.name(), r.unwrap_err());
            }
        }

        #[test]
        fn dyadic_kernels_match_scalar_random(seed in any::<u64>(), bits in 28u32..=62) {
            let q = Modulus::new(find_ntt_prime(bits, 64));
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n = 37; // deliberately not a multiple of LANES: tail path
            let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q.value())).collect();
            let b: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q.value())).collect();
            let lazy_a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q.twice())).collect();
            let acc0: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q.twice())).collect();
            let shoups: Vec<ShoupMul> = b.iter().map(|&w| q.shoup(w)).collect();
            let vals: Vec<u64> = shoups.iter().map(|s| s.value).collect();
            let quots: Vec<u64> = shoups.iter().map(|s| s.quotient).collect();

            for be in runnable_backends() {
                let mut out = vec![0u64; n];
                dyadic_mul(be, &q, &mut out, &a, &b);
                let expect: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| q.mul(x, y)).collect();
                prop_assert_eq!(&out, &expect);

                let mut acc = a.clone();
                dyadic_mul_acc(be, &q, &mut acc, &a, &b);
                let expect: Vec<u64> =
                    a.iter().zip(a.iter().zip(&b)).map(|(&c, (&x, &y))| q.mul_add(x, y, c)).collect();
                prop_assert_eq!(&acc, &expect);

                let mut out = vec![0u64; n];
                dyadic_mul_shoup(be, &q, &mut out, &lazy_a, &vals, &quots);
                let expect: Vec<u64> =
                    lazy_a.iter().zip(&shoups).map(|(&x, &s)| q.mul_shoup(x, s)).collect();
                prop_assert_eq!(&out, &expect);

                let mut acc = acc0.clone();
                dyadic_mul_acc_shoup(be, &q, &mut acc, &lazy_a, &vals, &quots);
                let expect: Vec<u64> = acc0
                    .iter()
                    .zip(lazy_a.iter().zip(&shoups))
                    .map(|(&o, (&x, &s))| q.add_lazy(o, q.mul_shoup_lazy(x, s)))
                    .collect();
                prop_assert_eq!(&acc, &expect);
            }
        }
    }
}
