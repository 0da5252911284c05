//! Device profiles for the paper's sensitivity studies (§5.5, Figure 13).

use crate::calib;

/// A client or server compute profile: a speed multiplier relative to the
/// paper's measured baselines (Atom client, EPYC server) and a core count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeviceProfile {
    /// Display name.
    pub name: &'static str,
    /// Speedup factor relative to the measured baseline device (1.0 = the
    /// device the paper measured on).
    pub speed: f64,
    /// Available cores (bounds LPHE/RLP parallelism).
    pub cores: usize,
}

impl DeviceProfile {
    /// The paper's client: Intel Atom Z8350 (1.92 GHz, 4 cores, 2 GB RAM).
    pub fn atom() -> Self {
        Self {
            name: "Intel Atom Z8350",
            speed: 1.0,
            cores: 4,
        }
    }

    /// Intel i5-class client. The speedup is the paper's measured garbling
    /// ratio: 382.6 s (Atom) → 107.2 s (i5) ≈ 3.57×.
    pub fn i5() -> Self {
        Self {
            name: "Intel i5",
            speed: 382.6 / 107.2,
            cores: 4,
        }
    }

    /// Hypothetical 2× i5 client (garbling at 53.8 s, §5.5).
    pub fn i5_2x() -> Self {
        Self {
            name: "Intel i5 (2x)",
            speed: 2.0 * 382.6 / 107.2,
            cores: 4,
        }
    }

    /// The paper's server: AMD EPYC 7502 (2.5 GHz, 32 cores, 256 GB RAM).
    pub fn epyc() -> Self {
        Self {
            name: "AMD EPYC 7502",
            speed: 1.0,
            cores: 32,
        }
    }

    /// Hypothetical 2× server (§5.5).
    pub fn epyc_2x() -> Self {
        Self {
            name: "AMD EPYC (2x)",
            speed: 2.0,
            cores: 32,
        }
    }

    /// Hypothetical 4× server (§5.5).
    pub fn epyc_4x() -> Self {
        Self {
            name: "AMD EPYC (4x)",
            speed: 4.0,
            cores: 32,
        }
    }

    /// Seconds to garble `relus` ReLUs on this device as a *client*.
    pub(crate) fn client_garble_s(&self, relus: f64) -> f64 {
        calib::ATOM_GARBLE_S_PER_RELU * relus / self.speed
    }

    /// Seconds to evaluate `relus` garbled ReLUs on this device as a
    /// *client*.
    pub(crate) fn client_eval_s(&self, relus: f64) -> f64 {
        calib::ATOM_EVAL_S_PER_RELU * relus / self.speed
    }

    /// Seconds to garble `relus` ReLUs on this device as a *server*.
    pub(crate) fn server_garble_s(&self, relus: f64) -> f64 {
        calib::SERVER_GARBLE_S_PER_RELU * relus / self.speed
    }

    /// Seconds to evaluate `relus` garbled ReLUs on this device as a
    /// *server*.
    pub(crate) fn server_eval_s(&self, relus: f64) -> f64 {
        calib::SERVER_EVAL_S_PER_RELU * relus / self.speed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::RELUS_R18_TINY;

    #[test]
    fn atom_reproduces_paper_times() {
        let atom = DeviceProfile::atom();
        assert!((atom.client_garble_s(RELUS_R18_TINY) - 382.6).abs() < 0.1);
        assert!((atom.client_eval_s(RELUS_R18_TINY) - 200.0).abs() < 0.1);
    }

    #[test]
    fn i5_reproduces_paper_garble_times() {
        assert!((DeviceProfile::i5().client_garble_s(RELUS_R18_TINY) - 107.2).abs() < 0.1);
        assert!((DeviceProfile::i5_2x().client_garble_s(RELUS_R18_TINY) - 53.6).abs() < 0.3);
    }

    #[test]
    fn server_reproduces_paper_times() {
        let e = DeviceProfile::epyc();
        assert!((e.server_garble_s(RELUS_R18_TINY) - 25.1).abs() < 0.1);
        assert!((e.server_eval_s(RELUS_R18_TINY) - 11.1).abs() < 0.1);
        assert!((DeviceProfile::epyc_4x().server_eval_s(RELUS_R18_TINY) - 11.1 / 4.0).abs() < 0.1);
    }
}
