//! Portable bitsliced AES-128: 8 blocks per batch, no tables, no `unsafe`.
//!
//! # Bit-plane layout
//!
//! A batch of 8 blocks is transposed into 8 `u128` planes: **plane `b`,
//! bit `8·i + j` holds bit `b` of state byte `i` of block `j`** (state
//! byte `i` = byte `i` of the block's big-endian view, matching
//! `Aes128::encrypt_u128`). Byte positions occupy disjoint 8-bit groups,
//! so:
//!
//! * ShiftRows — a byte-group permutation — becomes four masked 32-bit
//!   rotations of each plane (row `r` groups sit at `i ≡ r (mod 4)` and
//!   shift by `32·r` bits);
//! * MixColumns works within each 32-bit (one state column) lane via
//!   byte-group rotations, with `xtime` a tap-structured plane shuffle
//!   (the `0x1b` feedback taps at value bits 0, 1, 3, 4);
//! * SubBytes is the Boyar–Peralta 113-gate S-box circuit evaluated once
//!   on the planes — 8 blocks per gate — instead of 128 table lookups;
//! * AddRoundKey XORs 8 precomputed broadcast planes per round (byte `i`'s
//!   group is `0xFF` in plane `b` iff round-key byte `i` has bit `b`).
//!
//! Block↔plane conversion runs sixteen 8×8 bit transposes (one per byte
//! position) built from three delta-swap levels each.

/// 8×8 bit-matrix transpose on a `u64` of 8 row-bytes:
/// `out bit (8b + j) = in bit (8j + b)`.
#[inline]
fn transpose8(mut x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^= t ^ (t << 28);
    x
}

/// Transposes 8 blocks into 8 bit-planes (see the module docs for the
/// layout).
#[inline]
fn to_planes(blocks: &[u128; 8]) -> [u128; 8] {
    let mut planes = [0u128; 8];
    let bytes: [[u8; 16]; 8] = [
        blocks[0].to_be_bytes(),
        blocks[1].to_be_bytes(),
        blocks[2].to_be_bytes(),
        blocks[3].to_be_bytes(),
        blocks[4].to_be_bytes(),
        blocks[5].to_be_bytes(),
        blocks[6].to_be_bytes(),
        blocks[7].to_be_bytes(),
    ];
    for i in 0..16 {
        let mut x = 0u64;
        for (j, by) in bytes.iter().enumerate() {
            x |= (by[i] as u64) << (8 * j);
        }
        let y = transpose8(x);
        for (b, plane) in planes.iter_mut().enumerate() {
            *plane |= (((y >> (8 * b)) & 0xFF) as u128) << (8 * i);
        }
    }
    planes
}

/// Inverse of [`to_planes`].
#[inline]
fn from_planes(planes: &[u128; 8]) -> [u128; 8] {
    let mut bytes = [[0u8; 16]; 8];
    for i in 0..16 {
        let mut y = 0u64;
        for (b, plane) in planes.iter().enumerate() {
            y |= (((plane >> (8 * i)) & 0xFF) as u64) << (8 * b);
        }
        let x = transpose8(y);
        for (j, by) in bytes.iter_mut().enumerate() {
            by[i] = (x >> (8 * j)) as u8;
        }
    }
    [
        u128::from_be_bytes(bytes[0]),
        u128::from_be_bytes(bytes[1]),
        u128::from_be_bytes(bytes[2]),
        u128::from_be_bytes(bytes[3]),
        u128::from_be_bytes(bytes[4]),
        u128::from_be_bytes(bytes[5]),
        u128::from_be_bytes(bytes[6]),
        u128::from_be_bytes(bytes[7]),
    ]
}

/// Expands a byte key schedule into broadcast bit-planes (the same 11
/// round keys apply to every block of a batch).
pub(crate) fn expand_round_keys(round_keys: &[[u8; 16]; 11]) -> [[u128; 8]; 11] {
    let mut out = [[0u128; 8]; 11];
    for (r, rk) in round_keys.iter().enumerate() {
        for (i, &byte) in rk.iter().enumerate() {
            for (b, plane) in out[r].iter_mut().enumerate() {
                if (byte >> b) & 1 == 1 {
                    *plane |= 0xFFu128 << (8 * i);
                }
            }
        }
    }
    out
}

/// Byte groups of state row `r` (`i ≡ r (mod 4)`, column-major layout).
const ROW0: u128 = 0x0000_00FF_0000_00FF_0000_00FF_0000_00FF;

#[inline]
fn shift_rows_planes(planes: &mut [u128; 8]) {
    for p in planes.iter_mut() {
        let v = *p;
        *p = (v & ROW0)
            | (v.rotate_right(32) & (ROW0 << 8))
            | (v.rotate_right(64) & (ROW0 << 16))
            | (v.rotate_right(96) & (ROW0 << 24));
    }
}

/// Low 24 bits of every 32-bit (one state column) lane.
const LANE_LOW24: u128 = 0x00FF_FFFF_00FF_FFFF_00FF_FFFF_00FF_FFFF;
/// Low 16 bits of every 32-bit lane.
const LANE_LOW16: u128 = 0x0000_FFFF_0000_FFFF_0000_FFFF_0000_FFFF;
/// Low 8 bits of every 32-bit lane.
const LANE_LOW8: u128 = ROW0;

/// Within each 32-bit lane, byte `r` takes byte `r+1 (mod 4)`.
#[inline]
fn rot1(p: u128) -> u128 {
    ((p >> 8) & LANE_LOW24) | ((p << 24) & !LANE_LOW24)
}

/// Within each 32-bit lane, byte `r` takes byte `r+2 (mod 4)`.
#[inline]
fn rot2(p: u128) -> u128 {
    ((p >> 16) & LANE_LOW16) | ((p << 16) & !LANE_LOW16)
}

/// Within each 32-bit lane, byte `r` takes byte `r+3 (mod 4)`.
#[inline]
fn rot3(p: u128) -> u128 {
    ((p >> 24) & LANE_LOW8) | ((p << 8) & !LANE_LOW8)
}

#[inline]
fn mix_columns_planes(planes: &mut [u128; 8]) {
    // Soft-path formula per byte: new = a ⊕ t ⊕ xtime(a ⊕ rot1(a)), with
    // t the XOR of all four column bytes (position-independent).
    let mut t = [0u128; 8];
    let mut u = [0u128; 8];
    for b in 0..8 {
        let a = planes[b];
        let r1 = rot1(a);
        t[b] = a ^ r1 ^ rot2(a) ^ rot3(a);
        u[b] = a ^ r1;
    }
    // xtime on planes: value bits shift up one, with the 0x1b reduction
    // feeding the old bit 7 back into value bits 0, 1, 3 and 4.
    let xt = [
        u[7],
        u[0] ^ u[7],
        u[1],
        u[2] ^ u[7],
        u[3] ^ u[7],
        u[4],
        u[5],
        u[6],
    ];
    for b in 0..8 {
        planes[b] ^= t[b] ^ xt[b];
    }
}

/// Boyar–Peralta forward S-box circuit (113 gates: 32 AND, 77 XOR, 4
/// XNOR) over the bit-planes. `U0` is the value MSB — plane 7 in our
/// layout — and `S0` the output MSB.
#[inline]
fn sub_bytes_planes(planes: &mut [u128; 8]) {
    let u0 = planes[7];
    let u1 = planes[6];
    let u2 = planes[5];
    let u3 = planes[4];
    let u4 = planes[3];
    let u5 = planes[2];
    let u6 = planes[1];
    let u7 = planes[0];

    // Top linear transform.
    let y14 = u3 ^ u5;
    let y13 = u0 ^ u6;
    let y9 = u0 ^ u3;
    let y8 = u0 ^ u5;
    let t0 = u1 ^ u2;
    let y1 = t0 ^ u7;
    let y4 = y1 ^ u3;
    let y12 = y13 ^ y14;
    let y2 = y1 ^ u0;
    let y5 = y1 ^ u6;
    let y3 = y5 ^ y8;
    let t1 = u4 ^ y12;
    let y15 = t1 ^ u5;
    let y20 = t1 ^ u1;
    let y6 = y15 ^ u7;
    let y10 = y15 ^ t0;
    let y11 = y20 ^ y9;
    let y7 = u7 ^ y11;
    let y17 = y10 ^ y11;
    let y19 = y10 ^ y8;
    let y16 = t0 ^ y11;
    let y21 = y13 ^ y16;
    let y18 = u0 ^ y16;

    // Shared nonlinear middle (GF(2^4) inversion tower).
    let t2 = y12 & y15;
    let t3 = y3 & y6;
    let t4 = t3 ^ t2;
    let t5 = y4 & u7;
    let t6 = t5 ^ t2;
    let t7 = y13 & y16;
    let t8 = y5 & y1;
    let t9 = t8 ^ t7;
    let t10 = y2 & y7;
    let t11 = t10 ^ t7;
    let t12 = y9 & y11;
    let t13 = y14 & y17;
    let t14 = t13 ^ t12;
    let t15 = y8 & y10;
    let t16 = t15 ^ t12;
    let t17 = t4 ^ t14;
    let t18 = t6 ^ t16;
    let t19 = t9 ^ t14;
    let t20 = t11 ^ t16;
    let t21 = t17 ^ y20;
    let t22 = t18 ^ y19;
    let t23 = t19 ^ y21;
    let t24 = t20 ^ y18;
    let t25 = t21 ^ t22;
    let t26 = t21 & t23;
    let t27 = t24 ^ t26;
    let t28 = t25 & t27;
    let t29 = t28 ^ t22;
    let t30 = t23 ^ t24;
    let t31 = t22 ^ t26;
    let t32 = t31 & t30;
    let t33 = t32 ^ t24;
    let t34 = t23 ^ t33;
    let t35 = t27 ^ t33;
    let t36 = t24 & t35;
    let t37 = t36 ^ t34;
    let t38 = t27 ^ t36;
    let t39 = t29 & t38;
    let t40 = t25 ^ t39;
    let t41 = t40 ^ t37;
    let t42 = t29 ^ t33;
    let t43 = t29 ^ t40;
    let t44 = t33 ^ t37;
    let t45 = t42 ^ t41;
    let z0 = t44 & y15;
    let z1 = t37 & y6;
    let z2 = t33 & u7;
    let z3 = t43 & y16;
    let z4 = t40 & y1;
    let z5 = t29 & y7;
    let z6 = t42 & y11;
    let z7 = t45 & y17;
    let z8 = t41 & y10;
    let z9 = t44 & y12;
    let z10 = t37 & y3;
    let z11 = t33 & y4;
    let z12 = t43 & y13;
    let z13 = t40 & y5;
    let z14 = t29 & y2;
    let z15 = t42 & y9;
    let z16 = t45 & y14;
    let z17 = t41 & y8;

    // Bottom linear transform.
    let t46 = z15 ^ z16;
    let t47 = z10 ^ z11;
    let t48 = z5 ^ z13;
    let t49 = z9 ^ z10;
    let t50 = z2 ^ z12;
    let t51 = z2 ^ z5;
    let t52 = z7 ^ z8;
    let t53 = z0 ^ z3;
    let t54 = z6 ^ z7;
    let t55 = z16 ^ z17;
    let t56 = z12 ^ t48;
    let t57 = t50 ^ t53;
    let t58 = z4 ^ t46;
    let t59 = z3 ^ t54;
    let t60 = t46 ^ t57;
    let t61 = z14 ^ t57;
    let t62 = t52 ^ t58;
    let t63 = t49 ^ t58;
    let t64 = z4 ^ t59;
    let t65 = t61 ^ t62;
    let t66 = z1 ^ t63;
    let s0 = t59 ^ t63;
    let s6 = !(t56 ^ t62);
    let s7 = !(t48 ^ t60);
    let t67 = t64 ^ t65;
    let s3 = t53 ^ t66;
    let s4 = t51 ^ t66;
    let s5 = t47 ^ t65;
    let s1 = !(t64 ^ s3);
    let s2 = !(t55 ^ t67);

    planes[7] = s0;
    planes[6] = s1;
    planes[5] = s2;
    planes[4] = s3;
    planes[3] = s4;
    planes[2] = s5;
    planes[1] = s6;
    planes[0] = s7;
}

/// Encrypts 8 blocks in place under precomputed broadcast round-key
/// planes. Bit-identical to eight soft `encrypt_u128` calls.
pub(crate) fn encrypt8(round_keys: &[[u128; 8]; 11], blocks: &mut [u128; 8]) {
    let mut planes = to_planes(blocks);
    for b in 0..8 {
        planes[b] ^= round_keys[0][b];
    }
    for rk in round_keys.iter().take(10).skip(1) {
        sub_bytes_planes(&mut planes);
        shift_rows_planes(&mut planes);
        mix_columns_planes(&mut planes);
        for b in 0..8 {
            planes[b] ^= rk[b];
        }
    }
    sub_bytes_planes(&mut planes);
    shift_rows_planes(&mut planes);
    for b in 0..8 {
        planes[b] ^= round_keys[10][b];
    }
    *blocks = from_planes(&planes);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose8_is_a_transpose() {
        // Spot-check the index map on single bits plus an involution check.
        for j in 0..8u64 {
            for b in 0..8u64 {
                assert_eq!(transpose8(1u64 << (8 * j + b)), 1u64 << (8 * b + j));
            }
        }
        let x = 0x0123_4567_89ab_cdefu64;
        assert_eq!(transpose8(transpose8(x)), x);
    }

    #[test]
    fn plane_conversion_round_trips() {
        let blocks: [u128; 8] = core::array::from_fn(|i| {
            (0x0123_4567_89ab_cdef_u128 ^ (i as u128 * 0x1111_1111)).wrapping_mul(0x9e37_79b9)
        });
        assert_eq!(from_planes(&to_planes(&blocks)), blocks);
    }
}
