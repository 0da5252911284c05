//! The TDD wireless link model and wireless slot allocation (§5.3).
//!
//! 5G TDD divides frames into slots assigned to upload or download, so a
//! single radio of capacity `B` provides `x·B` upload and `(1−x)·B`
//! download throughput for slot fraction `x`. Protocol rounds serialize
//! upload and download, so the transfer time of a phase is
//!
//! `T(x) = 8·U / (x·B) + 8·D / ((1−x)·B)`
//!
//! minimized at the closed-form optimum `x* = √U / (√U + √D)` — wireless
//! slot allocation. This reproduces the paper's reported optima (≈802 Mbps
//! download for Server-Garbler, ≈835 Mbps upload for Client-Garbler) from
//! the two protocols' byte asymmetry alone.

/// A duplex wireless link with a TDD upload/download split.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Link {
    /// Total radio capacity in bits per second.
    pub total_bps: f64,
    /// Fraction of slots allocated to upload (client → server).
    pub upload_fraction: f64,
}

impl Link {
    /// An evenly split link (the default provisioning the paper critiques).
    pub fn even(total_bps: f64) -> Self {
        Self {
            total_bps,
            upload_fraction: 0.5,
        }
    }

    /// A link with the WSA-optimal split for the given byte profile.
    pub(crate) fn wsa_optimal(total_bps: f64, upload_bytes: f64, download_bytes: f64) -> Self {
        Self {
            total_bps,
            upload_fraction: optimal_upload_fraction(upload_bytes, download_bytes),
        }
    }

    /// Upload throughput in bits per second.
    pub(crate) fn upload_bps(&self) -> f64 {
        self.total_bps * self.upload_fraction
    }

    /// Download throughput in bits per second.
    pub(crate) fn download_bps(&self) -> f64 {
        self.total_bps * (1.0 - self.upload_fraction)
    }

    /// Seconds to move `upload_bytes` up and `download_bytes` down
    /// (serialized, as protocol rounds are).
    ///
    /// # Panics
    ///
    /// Panics if the slot fraction leaves either direction with zero
    /// capacity while bytes must flow there.
    pub fn transfer_s(&self, upload_bytes: f64, download_bytes: f64) -> f64 {
        let mut t = 0.0;
        if upload_bytes > 0.0 {
            assert!(self.upload_fraction > 0.0, "no upload capacity allocated");
            t += upload_bytes * 8.0 / self.upload_bps();
        }
        if download_bytes > 0.0 {
            assert!(self.upload_fraction < 1.0, "no download capacity allocated");
            t += download_bytes * 8.0 / self.download_bps();
        }
        t
    }
}

/// The WSA optimum: `x* = √U / (√U + √D)`.
///
/// Derivation: minimizing `U/(xB) + D/((1−x)B)` in `x` gives
/// `U/x² = D/(1−x)²`, i.e. `(1−x)/x = √(D/U)`.
pub fn optimal_upload_fraction(upload_bytes: f64, download_bytes: f64) -> f64 {
    if upload_bytes <= 0.0 && download_bytes <= 0.0 {
        return 0.5;
    }
    let su = upload_bytes.max(0.0).sqrt();
    let sd = download_bytes.max(0.0).sqrt();
    (su / (su + sd)).clamp(0.01, 0.99)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_split_times() {
        let link = Link::even(1e9);
        // 1 GB down at 500 Mbps = 16 s.
        assert!((link.transfer_s(0.0, 125e6) - 2.0).abs() < 1e-9);
        assert!((link.transfer_s(125e6, 125e6) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn optimum_beats_even_split() {
        let up = 2.5e9;
        let down = 41.0e9;
        let even = Link::even(1e9).transfer_s(up, down);
        let opt = Link::wsa_optimal(1e9, up, down).transfer_s(up, down);
        assert!(opt < even);
        // The paper reports up to ~35% savings for this regime.
        let saving = 1.0 - opt / even;
        assert!((0.15..0.45).contains(&saving), "saving = {saving}");
    }

    #[test]
    fn optimum_is_stationary() {
        let (up, down) = (3e9, 40e9);
        let x = optimal_upload_fraction(up, down);
        let t = |x: f64| {
            Link {
                total_bps: 1e9,
                upload_fraction: x,
            }
            .transfer_s(up, down)
        };
        assert!(t(x) <= t(x + 0.01) && t(x) <= t(x - 0.01));
    }

    #[test]
    fn server_garbler_regime_matches_paper() {
        // SG: upload ≈ 5.7% of bytes → optimal download ≈ 802 Mbps of 1 Gbps.
        let up = 0.057;
        let down = 0.943;
        let x = optimal_upload_fraction(up, down);
        let download_mbps = (1.0 - x) * 1000.0;
        assert!(
            (790.0..815.0).contains(&download_mbps),
            "download at optimum = {download_mbps} Mbps"
        );
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(optimal_upload_fraction(0.0, 0.0), 0.5);
        assert!(optimal_upload_fraction(1.0, 0.0) >= 0.98);
        assert!(optimal_upload_fraction(0.0, 1.0) <= 0.02);
    }
}
