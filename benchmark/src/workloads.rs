//! The four workloads: what each builds, the inputs `--seed` generates for
//! it, and the closed loops that drive requests through the program's
//! public entry points.
//!
//! The program sees only generated values: the weight seed, every input
//! vector and both parties' RNG seeds are functions of `--seed` and the
//! request number. Every output is checked bit for bit against
//! `PiModel::forward`, outside the timed interval.

use crate::host;
use crate::reference::Reference;
use crate::spans::Spans;
use pi_core::{
    merge_cost_report, private_inference_precomputed, CostReport, ModelMeta, ProtocolConfig,
    ProtocolKind, ServeConfig, ServeRuntime, ServerPrecomp, ServiceClient,
};
use pi_he::BfvParams;
use pi_nn::{zoo, FixedConfig, NetSpec, Network, PiModel, QuantNetwork, SpecOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    HeCold,
    ReluHeavy,
    ServeWarm,
    ServeChurn,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::HeCold,
        Workload::ReluHeavy,
        Workload::ServeWarm,
        Workload::ServeChurn,
    ];

    /// The name `BENCHMARK.json` knows it by (`names::WORKLOADS` is in
    /// the order of the variants).
    pub fn name(self) -> &'static str {
        crate::names::WORKLOADS[self as usize].name
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_serve(self) -> bool {
        matches!(self, Workload::ServeWarm | Workload::ServeChurn)
    }

    /// Whether every request comes from a client with no HE keys yet: it
    /// generates and uploads them inside the request.
    pub fn fresh_keys(self) -> bool {
        matches!(self, Workload::HeCold | Workload::ServeChurn)
    }

    pub fn spec(self) -> NetSpec {
        match self {
            Workload::HeCold => zoo::tiny_resnet(),
            Workload::ReluHeavy => mlp8192(),
            Workload::ServeWarm | Workload::ServeChurn => zoo::tiny_cnn(),
        }
    }

    /// The protocol configuration (party seeds are set per request).
    pub fn protocol(self) -> ProtocolConfig {
        match self {
            Workload::HeCold => ProtocolConfig::server_garbler(BfvParams::default_pi()),
            Workload::ReluHeavy => ProtocolConfig::clear(ProtocolKind::ClientGarbler),
            Workload::ServeWarm | Workload::ServeChurn => {
                ProtocolConfig::client_garbler(BfvParams::default_pi(), 1)
            }
        }
    }
}

/// Closed-loop clients of every workload: one. A request keeps one core
/// busy from start to end (the parties take turns), so a second client on
/// this 2-core host saturates both cores, and then every other process on
/// the host lands in the latency: ten runs of `serve_warm` with two
/// clients spread by 22–28 % of their median, with one by what the
/// two-party workloads spread by.
pub const CLIENTS: usize = 1;

/// The ReLU-dominated regime scaled to fit: 8192 ReLUs behind one 64-input
/// linear layer, so garbling, evaluation and OT extension dominate.
pub fn mlp8192() -> NetSpec {
    NetSpec {
        name: "mlp8192".into(),
        input: [1, 8, 8],
        ops: vec![
            SpecOp::Flatten,
            SpecOp::Linear { out: 8192 },
            SpecOp::Relu,
            SpecOp::Linear { out: 10 },
        ],
    }
}

/// Everything `--seed` determines.
#[derive(Clone, Copy)]
pub struct Generator {
    seed: u64,
}

impl Generator {
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// SplitMix64 over `(seed, stream, index)`: independent values per
    /// purpose and request without any shared RNG state between threads.
    fn derive(&self, stream: u64, index: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(stream.wrapping_mul(0xbf58_476d_1ce4_e5b9))
            .wrapping_add(index.wrapping_mul(0x94d0_49bb_1331_11eb))
            .wrapping_add(0x2545_f491_4f6c_dd1d);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn weight_seed(&self) -> u64 {
        self.derive(0, 0)
    }

    /// `(client, server)` RNG seeds of one request.
    pub fn party_seeds(&self, request: u64) -> (u64, u64) {
        (self.derive(1, request), self.derive(2, request))
    }

    /// Small-magnitude fixed-point input (`|x| ≤ 1`) of one request.
    pub fn input(&self, model: &PiModel, request: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(self.derive(3, request));
        let one = 1i64 << model.f;
        (0..model.input_len)
            .map(|_| model.p.from_signed(rng.gen_range(-one..=one)))
            .collect()
    }

    /// RNG for a layer replay's operands.
    pub fn replay_rng(&self, index: u64) -> StdRng {
        StdRng::seed_from_u64(self.derive(4, index))
    }
}

/// Materialize, quantize and lower a spec at the protocol's field.
pub fn lower(spec: &NetSpec, weight_seed: u64) -> PiModel {
    let fx = FixedConfig {
        p: BfvParams::default_pi().t(),
        f: 5,
    };
    let mut rng = StdRng::seed_from_u64(weight_seed);
    let net = Network::materialize(spec, &mut rng);
    PiModel::lower(&QuantNetwork::quantize(&net, fx))
}

/// What serves requests once set-up is done.
pub enum Engine {
    /// Both parties in process, one thread each.
    Direct { pre: ServerPrecomp },
    /// The serving runtime and this workload's returning client, which
    /// keeps its keys between requests.
    Serve {
        rt: ServeRuntime,
        model_id: usize,
        client: ServiceClient,
    },
}

/// A workload after set-up, ready for its first measured request.
pub struct Built {
    pub workload: Workload,
    pub gen: Generator,
    pub model: PiModel,
    pub meta: ModelMeta,
    pub cfg: ProtocolConfig,
    pub engine: Engine,
    /// Number of the next request.
    next_request: u64,
}

/// One request as the client saw it.
pub struct Outcome {
    /// Client-observed wall time of the whole inference (offline + online).
    pub ms: f64,
    /// Wall and process CPU seconds the request took out of its closed
    /// loop: `ms` plus making the input and the expected output.
    pub wall_s: f64,
    pub cpu_s: f64,
    /// What takes the three times above to the nominal host speed
    /// (`reference`); 1 where no reference ran.
    pub scale: f64,
    /// `None` when the request failed: it returned an error, its session
    /// did, or its output differs from `PiModel::forward`.
    pub report: Option<CostReport>,
}

/// Request numbers: warm-ups and measured requests never share one.
const WARMUP_BASE: u64 = 1 << 40;

impl Built {
    /// Set-up: build the model, precompute or register it, start the
    /// runtime, and warm up — one unmeasured request, which for
    /// `serve_warm` is also the request that uploads the client's keys.
    pub fn new(workload: Workload, gen: Generator, spans: Spans) -> Self {
        let model = spans.scope("nn.lower", None, |_| {
            lower(&workload.spec(), gen.weight_seed())
        });
        let meta = ModelMeta::of(&model);
        let cfg = workload.protocol();
        let engine = spans.scope("core.precomp", None, |_| {
            if workload.is_serve() {
                let rt = ServeRuntime::new(ServeConfig::default());
                let model_id = rt.register_model(model.clone(), cfg.clone());
                Engine::Serve {
                    rt,
                    model_id,
                    client: ServiceClient::new(),
                }
            } else {
                Engine::Direct {
                    pre: ServerPrecomp::new(&model, &cfg),
                }
            }
        });
        let mut built = Self {
            workload,
            gen,
            model,
            meta,
            cfg,
            engine,
            next_request: WARMUP_BASE,
        };
        let warm = spans.scope("warmup", None, |s| {
            built.run_section(Duration::ZERO, s, None)
        });
        assert!(
            warm.iter().all(|o| o.report.is_some()),
            "warm-up request failed"
        );
        built.next_request = 0;
        built
    }

    /// Runs the closed loop until `duration` has passed — at least one
    /// request completes — and returns all outcomes. With a `reference`,
    /// it is sampled between the requests.
    pub fn run_section(
        &mut self,
        duration: Duration,
        spans: Spans,
        mut reference: Option<&mut Reference>,
    ) -> Vec<Outcome> {
        let t0 = Instant::now();
        let mut outcomes = Vec::new();
        loop {
            let number = self.next_request;
            self.next_request += 1;
            let mut run = || {
                let (wall0, cpu0) = (Instant::now(), host::process_cpu_seconds());
                let (ms, report) = spans.scope("request", Some(number), |_| self.request(number));
                Outcome {
                    ms,
                    wall_s: wall0.elapsed().as_secs_f64(),
                    cpu_s: host::process_cpu_seconds() - cpu0,
                    scale: 1.0,
                    report,
                }
            };
            let (mut outcome, scale) = match reference.as_deref_mut() {
                Some(reference) => reference.around(run),
                None => (run(), 1.0),
            };
            outcome.scale = scale;
            outcomes.push(outcome);
            if t0.elapsed() >= duration {
                break outcomes;
            }
        }
    }

    /// One request: its client-observed milliseconds, and its report if it
    /// succeeded with the output `PiModel::forward` gives. The input and the
    /// expected output are made before the clock starts.
    fn request(&mut self, number: u64) -> (f64, Option<CostReport>) {
        let (model, gen) = (&self.model, self.gen);
        let input = gen.input(model, number);
        let expect = model.forward(&input);
        let (client_seed, server_seed) = gen.party_seeds(number);
        match &mut self.engine {
            Engine::Direct { pre } => {
                let mut cfg = self.cfg.clone();
                cfg.seeds = (client_seed, server_seed);
                let start = Instant::now();
                let (out, report) = private_inference_precomputed(model, pre, &input, &cfg);
                let ms = start.elapsed().as_secs_f64() * 1e3;
                (ms, (out == expect).then_some(report))
            }
            // `connect` → the client's `run` returns and the server's
            // `SessionHandle::wait()` resolves.
            Engine::Serve {
                rt,
                model_id,
                client: retained,
            } => {
                // A returning client keeps its id and its keys; a churning
                // one is new every time.
                let mut fresh = ServiceClient::new();
                let (client_id, client) = if self.workload.fresh_keys() {
                    (number, &mut fresh)
                } else {
                    (0, retained)
                };
                let mut rng = StdRng::seed_from_u64(client_seed);
                let start = Instant::now();
                let conn = rt.connect(client_id, *model_id, server_seed);
                let ran = client.run(&self.meta, &input, &self.cfg, &conn.chan, &mut rng);
                // Dropping the channel first lets a session whose client
                // failed end.
                drop(conn.chan);
                let served = conn.handle.wait();
                let ms = start.elapsed().as_secs_f64() * 1e3;
                let report = match (ran, served) {
                    (Ok((out, c_out)), Ok(s_out)) if out == expect => Some(merge_cost_report(
                        &c_out,
                        &s_out,
                        model.total_relus() as u64,
                    )),
                    _ => None,
                };
                (ms, report)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_match_the_contract() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(
            names,
            ["he_cold", "relu_heavy", "serve_warm", "serve_churn"]
        );
        assert_eq!(names, crate::names::workload_names());
    }

    #[test]
    fn generator_is_deterministic_in_the_seed_and_differs_across_seeds() {
        let model = lower(&zoo::tiny_cnn(), Generator::new(7).weight_seed());
        let (a, b, c) = (Generator::new(7), Generator::new(7), Generator::new(8));
        assert_eq!(a.weight_seed(), b.weight_seed());
        assert_ne!(a.weight_seed(), c.weight_seed());
        for request in [0, 1, WARMUP_BASE, WARMUP_BASE + 3] {
            assert_eq!(a.input(&model, request), b.input(&model, request));
            assert_eq!(a.party_seeds(request), b.party_seeds(request));
            assert_ne!(a.input(&model, request), c.input(&model, request));
            assert_ne!(a.party_seeds(request), c.party_seeds(request));
        }
        // Requests differ from each other, and the two parties' seeds too.
        assert_ne!(a.input(&model, 0), a.input(&model, 1));
        assert_ne!(a.party_seeds(0), a.party_seeds(1));
        assert_ne!(a.party_seeds(0).0, a.party_seeds(0).1);
        // Inputs are field elements of magnitude at most one.
        let one = 1i64 << model.f;
        assert_eq!(a.input(&model, 0).len(), model.input_len);
        assert!(a
            .input(&model, 0)
            .iter()
            .all(|&v| model.p.to_signed(v).abs() <= one));
        // The same seed lowers to the same weights.
        let again = lower(&zoo::tiny_cnn(), b.weight_seed());
        assert_eq!(model.phases[0].matrix, again.phases[0].matrix);
    }

    #[test]
    fn mlp8192_lowers_to_8192_relus() {
        let spec = mlp8192();
        assert_eq!(spec.stats().expect("valid spec").total_relus, 8192);
        let model = lower(&spec, 1);
        assert_eq!(model.total_relus(), 8192);
        assert_eq!(model.phases.len(), 2);
        assert_eq!((model.input_len, model.output_len()), (64, 10));
    }
}
