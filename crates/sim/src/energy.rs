//! Client energy model (§5.1).
//!
//! Switching GC roles moves work onto the battery-powered client: garbling
//! performs extra encryptions relative to evaluating, costing 1.8× the
//! energy per ReLU on the paper's Atom measurements (2.33 J vs 1.25 J per
//! 10,000 ReLUs). This module quantifies that trade for any workload.

use crate::calib;
use crate::cost::Garbler;

/// Client-side energy for one inference, in joules.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClientEnergy {
    /// Energy spent in the client's GC role (garbling or evaluating).
    pub gc_joules: f64,
}

impl ClientEnergy {
    /// Energy for `relus` ReLUs under a protocol.
    pub fn per_inference(relus: f64, garbler: Garbler) -> Self {
        let gc_joules = match garbler {
            // Server-Garbler: the client evaluates.
            Garbler::Server => calib::ATOM_EVAL_J_PER_RELU * relus,
            // Client-Garbler: the client garbles.
            Garbler::Client => calib::ATOM_GARBLE_J_PER_RELU * relus,
        };
        Self { gc_joules }
    }

    /// Inferences a battery of `watt_hours` sustains on GC work alone.
    pub fn inferences_per_battery(&self, watt_hours: f64) -> f64 {
        watt_hours * 3600.0 / self.gc_joules
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::RELUS_R18_TINY;

    #[test]
    fn role_swap_costs_the_papers_1_8x() {
        let sg = ClientEnergy::per_inference(RELUS_R18_TINY, Garbler::Server);
        let cg = ClientEnergy::per_inference(RELUS_R18_TINY, Garbler::Client);
        let ratio = cg.gc_joules / sg.gc_joules;
        assert!((1.8..1.9).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn absolute_magnitudes() {
        // 10,000 ReLUs: 1.25 J evaluating, 2.33 J garbling (the measured
        // anchors themselves).
        let sg = ClientEnergy::per_inference(10_000.0, Garbler::Server);
        assert!((sg.gc_joules - 1.25).abs() < 1e-9);
        let cg = ClientEnergy::per_inference(10_000.0, Garbler::Client);
        assert!((cg.gc_joules - 2.33).abs() < 1e-9);
    }

    #[test]
    fn battery_math() {
        let e = ClientEnergy::per_inference(RELUS_R18_TINY, Garbler::Client);
        // A ~12 Wh phone battery sustains on the order of 10^2 garbles.
        let n = e.inferences_per_battery(12.0);
        assert!((50.0..500.0).contains(&n), "{n}");
    }
}
