//! A small hand-rolled MLP with byte-deterministic training.
//!
//! Architecture: `[N_FEATURES, 16, 8, 1]` by default — tanh hidden layers,
//! linear output — trained with seeded minibatch SGD on a Huber loss over
//! the log-ratio targets. Everything is fixed-order `f64` arithmetic over the
//! deterministic [`crate::det`] transcendentals, and the shuffle PRNG is a
//! self-contained splitmix64, so the same dataset, config, and seed produce
//! bit-identical weights on every platform and at every `CRYO_JOBS` level
//! (training is always single-threaded; parallelism lives in the SPICE
//! probe characterization, which has its own determinism contract).
//!
//! Training checkpoints after every epoch into a
//! [`cryo_cells::CheckpointStore`] blob (same checksummed, atomically
//! written envelope the characterization engine uses), recording the epoch
//! counter, the PRNG state, and the exact weight bit patterns. A killed
//! run resumes from the last finished epoch with zero repeated epochs, and
//! the resumed model is bit-identical to an uninterrupted one.

use cryo_cells::CheckpointStore;

use crate::det;
use crate::features::{ArcSample, Normalizer, N_FEATURES};

/// splitmix64: tiny, seedable, and fully specified — the shuffle order is
/// part of the determinism contract, so no external PRNG is used.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seeded construction.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Restore from a checkpointed state.
    #[must_use]
    pub fn from_state(state: u64) -> Self {
        Rng(state)
    }

    /// Current state, for checkpointing.
    #[must_use]
    pub fn state(&self) -> u64 {
        self.0
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of entropy.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Fully-connected feed-forward network, tanh hidden activations, linear
/// scalar output.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    /// Layer widths, input first, `1` last.
    pub sizes: Vec<usize>,
    /// Per-layer weight matrices, row-major `sizes[l+1] × sizes[l]`.
    pub weights: Vec<Vec<f64>>,
    /// Per-layer bias vectors, length `sizes[l+1]`.
    pub biases: Vec<Vec<f64>>,
}

impl Mlp {
    /// Glorot-uniform initialization from the given PRNG (consumed in fixed
    /// layer-major order, so init is part of the deterministic transcript).
    #[must_use]
    pub fn init(sizes: &[usize], rng: &mut Rng) -> Mlp {
        assert!(sizes.len() >= 2, "need at least input and output layers");
        let mut weights = Vec::new();
        let mut biases = Vec::new();
        for l in 0..sizes.len() - 1 {
            let (fan_in, fan_out) = (sizes[l], sizes[l + 1]);
            let s = (6.0 / (fan_in + fan_out) as f64).sqrt();
            weights.push(
                (0..fan_in * fan_out)
                    .map(|_| (2.0 * rng.next_f64() - 1.0) * s)
                    .collect(),
            );
            biases.push(vec![0.0; fan_out]);
        }
        Mlp {
            sizes: sizes.to_vec(),
            weights,
            biases,
        }
    }

    /// Forward pass; `x` must have length `sizes[0]`. Returns the scalar
    /// output.
    #[must_use]
    pub fn forward(&self, x: &[f64]) -> f64 {
        let mut a = x.to_vec();
        let last = self.weights.len() - 1;
        for l in 0..self.weights.len() {
            a = self.layer(l, &a, l < last);
        }
        a[0]
    }

    fn layer(&self, l: usize, a: &[f64], hidden: bool) -> Vec<f64> {
        let (n_in, n_out) = (self.sizes[l], self.sizes[l + 1]);
        let mut out = Vec::with_capacity(n_out);
        for r in 0..n_out {
            let mut z = self.biases[l][r];
            for (c, &av) in a.iter().enumerate().take(n_in) {
                z += self.weights[l][r * n_in + c] * av;
            }
            out.push(if hidden { det::tanh(z) } else { z });
        }
        out
    }

    /// One SGD minibatch step on the Huber loss: accumulate mean gradients
    /// over the batch by backpropagation, then update in place.
    fn sgd_step(&mut self, xs: &[&Vec<f64>], ys: &[f64], lr: f64) {
        let n_layers = self.weights.len();
        let mut gw: Vec<Vec<f64>> = self.weights.iter().map(|w| vec![0.0; w.len()]).collect();
        let mut gb: Vec<Vec<f64>> = self.biases.iter().map(|b| vec![0.0; b.len()]).collect();
        for (x, &y) in xs.iter().zip(ys) {
            // Forward, keeping activations.
            let mut acts = vec![x.to_vec()];
            for l in 0..n_layers {
                let a = self.layer(l, &acts[l], l < n_layers - 1);
                acts.push(a);
            }
            // Backward. Output is linear; the Huber loss clamps its
            // residual, so delta = clamp(pred - y, ±HUBER_DELTA).
            let mut delta = vec![(acts[n_layers][0] - y).clamp(-HUBER_DELTA, HUBER_DELTA)];
            for l in (0..n_layers).rev() {
                let (n_in, n_out) = (self.sizes[l], self.sizes[l + 1]);
                let a_prev = &acts[l];
                for r in 0..n_out {
                    gb[l][r] += delta[r];
                    for c in 0..n_in {
                        gw[l][r * n_in + c] += delta[r] * a_prev[c];
                    }
                }
                if l > 0 {
                    // d tanh(z) = 1 - a², with a the layer's activation.
                    let mut prev = vec![0.0; n_in];
                    for (c, p) in prev.iter_mut().enumerate() {
                        let mut s = 0.0;
                        for (r, d) in delta.iter().enumerate() {
                            s += self.weights[l][r * n_in + c] * d;
                        }
                        *p = s * (1.0 - a_prev[c] * a_prev[c]);
                    }
                    delta = prev;
                }
            }
        }
        let scale = lr / xs.len() as f64;
        for l in 0..n_layers {
            for (w, g) in self.weights[l].iter_mut().zip(&gw[l]) {
                *w -= scale * g;
            }
            for (b, g) in self.biases[l].iter_mut().zip(&gb[l]) {
                *b -= scale * g;
            }
        }
    }

    /// FNV-64 digest over the exact bit patterns of sizes, weights, and
    /// biases — the model's identity for golden checks and provenance tags.
    #[must_use]
    pub fn content_hash(&self) -> String {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |bits: u64| {
            for byte in bits.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for &s in &self.sizes {
            mix(s as u64);
        }
        for layer in self.weights.iter().chain(&self.biases) {
            for &w in layer {
                mix(w.to_bits());
            }
        }
        format!("{h:016x}")
    }
}

/// Huber-loss threshold in log-ratio units: a residual beyond ±0.5 (a
/// table entry off by a factor of e^0.5) contributes a constant-magnitude
/// gradient instead of one that grows with the error. Under a squared
/// loss, the few outlier entries dominate constant-rate SGD and make the
/// trained model chaotic: scaling every warm table value by (1 + 1e-12)
/// moved the worst held-out residual from 0.64 to 0.97.
/// `tests/surrogate_flow.rs` pins the insensitivity.
const HUBER_DELTA: f64 = 0.5;

/// Training hyperparameters. All fields participate in the checkpoint
/// compatibility line, so a config change never resumes a stale model.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// PRNG seed for init and shuffling.
    pub seed: u64,
    /// Total epochs to reach (a resumed run trains only the remainder).
    pub epochs: u32,
    /// Minibatch size.
    pub batch: usize,
    /// SGD learning rate.
    pub lr: f64,
    /// Hidden layer widths.
    pub hidden: Vec<usize>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            seed: 7,
            epochs: 120,
            batch: 32,
            lr: 0.05,
            hidden: vec![16, 8],
        }
    }
}

impl TrainConfig {
    /// FNV-64 digest of the config, for checkpoint-compatibility checks and
    /// training-store keys. `epochs` is deliberately excluded: it is the
    /// stopping point along a trajectory, not part of the trajectory's
    /// identity — a checkpoint written at epoch k resumes under any target
    /// epoch count, which is exactly what kill/resume needs.
    #[must_use]
    pub fn content_hash(&self) -> String {
        fnv64(&format!(
            "seed={};batch={};lr={:e};hidden={:?}",
            self.seed, self.batch, self.lr, self.hidden
        ))
    }
}

/// What a training run produced.
#[derive(Debug, Clone)]
pub struct TrainOutcome {
    /// The trained network.
    pub model: Mlp,
    /// Epochs actually executed by *this* call (a resume runs only the
    /// remainder — the kill/resume tests sum these across runs to prove no
    /// epoch was ever repeated).
    pub epochs_run: u32,
    /// Epoch the run started from (0 for a fresh run).
    pub resumed_from: u32,
}

/// Blob name used inside the training checkpoint store.
pub const MODEL_BLOB: &str = "surrogate_model";

/// Train (or finish training) the surrogate on the dataset's training
/// split. When `store` is given, every epoch checkpoints the full training
/// state and a prior checkpoint (matching config and dataset hashes) is
/// resumed instead of restarted.
#[must_use]
pub fn train(
    samples: &[&ArcSample],
    norm: &Normalizer,
    cfg: &TrainConfig,
    dataset_hash: &str,
    store: Option<&CheckpointStore>,
) -> TrainOutcome {
    let xs: Vec<Vec<f64>> = samples
        .iter()
        .map(|s| norm.normalize(&s.features))
        .collect();
    let ys: Vec<f64> = samples.iter().map(|s| s.target).collect();
    let mut sizes = vec![N_FEATURES];
    sizes.extend_from_slice(&cfg.hidden);
    sizes.push(1);

    let mut rng = Rng::new(cfg.seed);
    let mut model = Mlp::init(&sizes, &mut rng);
    let mut start_epoch = 0u32;
    if let Some(st) = store {
        if let Some(payload) = st.load_blob(MODEL_BLOB) {
            if let Some((epoch, state, restored)) =
                parse_checkpoint(&payload, cfg, dataset_hash, &sizes)
            {
                start_epoch = epoch;
                rng = Rng::from_state(state);
                model = restored;
            }
        }
    }

    for epoch in start_epoch..cfg.epochs {
        if !xs.is_empty() {
            let mut idx: Vec<usize> = (0..xs.len()).collect();
            for i in (1..idx.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                idx.swap(i, j);
            }
            for chunk in idx.chunks(cfg.batch.max(1)) {
                let bx: Vec<&Vec<f64>> = chunk.iter().map(|&i| &xs[i]).collect();
                let by: Vec<f64> = chunk.iter().map(|&i| ys[i]).collect();
                model.sgd_step(&bx, &by, cfg.lr);
            }
        }
        if let Some(st) = store {
            // Checkpoint I/O failure degrades resume, not correctness.
            let _ = st.store_blob(
                MODEL_BLOB,
                &format_checkpoint(epoch + 1, &rng, &model, cfg, dataset_hash),
            );
        }
    }

    TrainOutcome {
        model,
        epochs_run: cfg.epochs.saturating_sub(start_epoch),
        resumed_from: start_epoch,
    }
}

fn format_checkpoint(
    epoch: u32,
    rng: &Rng,
    model: &Mlp,
    cfg: &TrainConfig,
    dataset_hash: &str,
) -> String {
    // Weights are written as exact hex bit patterns: JSON float text would
    // round-trip, but bit-pattern hex makes the determinism contract
    // auditable by eye and immune to formatter drift.
    let mut out = String::new();
    out.push_str("cryo-surmodel v2\n");
    out.push_str(&format!("cfg {}\n", cfg.content_hash()));
    out.push_str(&format!("data {dataset_hash}\n"));
    out.push_str(&format!("epoch {epoch}\n"));
    out.push_str(&format!("rng {:016x}\n", rng.state()));
    let sizes: Vec<String> = model.sizes.iter().map(|s| s.to_string()).collect();
    out.push_str(&format!("sizes {}\n", sizes.join(" ")));
    for (l, w) in model.weights.iter().enumerate() {
        out.push_str(&format!("w{l}"));
        for &v in w {
            out.push_str(&format!(" {:016x}", v.to_bits()));
        }
        out.push('\n');
    }
    for (l, b) in model.biases.iter().enumerate() {
        out.push_str(&format!("b{l}"));
        for &v in b {
            out.push_str(&format!(" {:016x}", v.to_bits()));
        }
        out.push('\n');
    }
    out
}

fn parse_checkpoint(
    payload: &str,
    cfg: &TrainConfig,
    dataset_hash: &str,
    expect_sizes: &[usize],
) -> Option<(u32, u64, Mlp)> {
    let mut lines = payload.lines();
    if lines.next()? != "cryo-surmodel v2" {
        return None;
    }
    if lines.next()? != format!("cfg {}", cfg.content_hash()) {
        return None;
    }
    if lines.next()? != format!("data {dataset_hash}") {
        return None;
    }
    let epoch: u32 = lines.next()?.strip_prefix("epoch ")?.parse().ok()?;
    let state = u64::from_str_radix(lines.next()?.strip_prefix("rng ")?, 16).ok()?;
    let sizes: Vec<usize> = lines
        .next()?
        .strip_prefix("sizes ")?
        .split(' ')
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    if sizes != expect_sizes {
        return None;
    }
    let parse_row = |line: &str, tag: &str, len: usize| -> Option<Vec<f64>> {
        let rest = line.strip_prefix(tag)?.strip_prefix(' ')?;
        let row: Vec<f64> = rest
            .split(' ')
            .map(|t| u64::from_str_radix(t, 16).ok().map(f64::from_bits))
            .collect::<Option<_>>()?;
        (row.len() == len).then_some(row)
    };
    let n_layers = sizes.len() - 1;
    let mut weights = Vec::with_capacity(n_layers);
    for l in 0..n_layers {
        weights.push(parse_row(
            lines.next()?,
            &format!("w{l}"),
            sizes[l] * sizes[l + 1],
        )?);
    }
    let mut biases = Vec::with_capacity(n_layers);
    for l in 0..n_layers {
        biases.push(parse_row(lines.next()?, &format!("b{l}"), sizes[l + 1])?);
    }
    Some((
        epoch,
        state,
        Mlp {
            sizes,
            weights,
            biases,
        },
    ))
}

/// FNV-1a 64 over a string, 16 lowercase hex digits (the repo-wide digest
/// idiom — `fnv64("a") == "af63dc4c8601ec8c"`).
#[must_use]
pub fn fnv64(s: &str) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::ArcSample;

    fn toy_samples(n: usize) -> Vec<ArcSample> {
        // A learnable synthetic transfer: target depends linearly on two
        // feature slots; the rest hold structured filler.
        let mut rng = Rng::new(99);
        (0..n)
            .map(|i| {
                let mut f = vec![0.0; N_FEATURES];
                for slot in f.iter_mut() {
                    *slot = rng.next_f64();
                }
                let target = 0.8 * f[0] - 0.5 * f[9] + 0.1;
                ArcSample {
                    cell: format!("C{}", i % 4),
                    features: f,
                    target,
                    warm: 1e-12,
                    cold: 1e-12,
                }
            })
            .collect()
    }

    fn mse(m: &Mlp, norm: &Normalizer, samples: &[&ArcSample]) -> f64 {
        let e: f64 = samples
            .iter()
            .map(|s| {
                let d = m.forward(&norm.normalize(&s.features)) - s.target;
                d * d
            })
            .sum();
        e / samples.len() as f64
    }

    #[test]
    fn training_reduces_loss_and_is_deterministic() {
        let samples = toy_samples(200);
        let refs: Vec<&ArcSample> = samples.iter().collect();
        let norm = Normalizer::fit(samples.iter().map(|s| &s.features));
        let cfg = TrainConfig {
            epochs: 40,
            ..TrainConfig::default()
        };
        let mut rng = Rng::new(cfg.seed);
        let mut sizes = vec![N_FEATURES];
        sizes.extend_from_slice(&cfg.hidden);
        sizes.push(1);
        let initial = Mlp::init(&sizes, &mut rng);
        let before = mse(&initial, &norm, &refs);
        let a = train(&refs, &norm, &cfg, "d0", None);
        let b = train(&refs, &norm, &cfg, "d0", None);
        assert!(
            mse(&a.model, &norm, &refs) < before * 0.2,
            "loss must drop substantially"
        );
        assert_eq!(
            a.model.content_hash(),
            b.model.content_hash(),
            "training must be deterministic"
        );
        assert_eq!(a.epochs_run, 40);
        assert_eq!(a.resumed_from, 0);
    }

    #[test]
    fn checkpointed_resume_is_bit_identical_with_zero_repeated_epochs() {
        let dir = std::env::temp_dir().join(format!("cryo_surmlp_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let samples = toy_samples(120);
        let refs: Vec<&ArcSample> = samples.iter().collect();
        let norm = Normalizer::fit(samples.iter().map(|s| &s.features));
        let full = TrainConfig {
            epochs: 30,
            ..TrainConfig::default()
        };

        // Uninterrupted reference run.
        let reference = train(&refs, &norm, &full, "dh", None);

        // Interrupted run: stop after 11 epochs (as a kill between epochs
        // would), then resume toward 30 from the same store. The config
        // hash excludes `epochs`, so both legs share a checkpoint key.
        let store = CheckpointStore::open(&dir, "toy", &full.content_hash()).unwrap();
        let partial = TrainConfig {
            epochs: 11,
            ..full.clone()
        };
        let interrupted = train(&refs, &norm, &partial, "dh", Some(&store));
        assert_eq!(interrupted.epochs_run, 11);
        let resumed = train(&refs, &norm, &full, "dh", Some(&store));
        assert_eq!(
            resumed.resumed_from, 11,
            "resume must pick up the checkpoint"
        );
        assert_eq!(
            resumed.epochs_run, 19,
            "resume must train only the remainder"
        );
        assert_eq!(
            resumed.model.content_hash(),
            reference.model.content_hash(),
            "interrupted + resumed must be bit-identical to uninterrupted"
        );

        // Re-running a finished training is a pure no-op.
        let noop = train(&refs, &norm, &full, "dh", Some(&store));
        assert_eq!(
            noop.epochs_run, 0,
            "completed training must not repeat epochs"
        );
        assert_eq!(noop.model.content_hash(), reference.model.content_hash());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_round_trips_exactly() {
        let cfg = TrainConfig::default();
        let mut rng = Rng::new(3);
        let mut sizes = vec![N_FEATURES];
        sizes.extend_from_slice(&cfg.hidden);
        sizes.push(1);
        let model = Mlp::init(&sizes, &mut rng);
        let payload = format_checkpoint(17, &rng, &model, &cfg, "abcd");
        let (epoch, state, back) = parse_checkpoint(&payload, &cfg, "abcd", &sizes).unwrap();
        assert_eq!(epoch, 17);
        assert_eq!(state, rng.state());
        assert_eq!(back, model);
        // Mismatched dataset or config must refuse to resume.
        assert!(parse_checkpoint(&payload, &cfg, "other", &sizes).is_none());
        let other = TrainConfig { lr: 0.01, ..cfg };
        assert!(parse_checkpoint(&payload, &other, "abcd", &sizes).is_none());
    }

    #[test]
    fn fnv64_matches_repo_idiom() {
        assert_eq!(fnv64("a"), "af63dc4c8601ec8c");
    }
}
