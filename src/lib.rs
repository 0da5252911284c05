//! Umbrella crate re-exporting the full private-inference stack.
//!
//! See the individual crates for details:
//! [`pi_field`], [`pi_poly`], [`pi_he`], [`pi_gc`], [`pi_ot`], [`pi_nn`],
//! [`pi_core`], [`pi_sim`].

pub use pi_core as core;
pub use pi_field as field;
pub use pi_gc as gc;
pub use pi_he as he;
pub use pi_nn as nn;
pub use pi_ot as ot;
pub use pi_poly as poly;
pub use pi_sim as sim;
