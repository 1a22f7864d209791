//! Dataset assembly and the paper's three-fold split.
//!
//! §IV: "The dataset was divided evenly into 3-folds, which are victim
//! training, attacker training, and testing. ... the malware types and the
//! benign application types were distributed evenly and randomly across the
//! folds to ensure that the datasets are not biased."

use crate::exec::{parallel_map, ExecConfig};
use crate::families::{BenignFamily, MalwareFamily, ProgramClass};
use crate::features::FeatureSpec;
use crate::isa::CATEGORY_COUNT;
use crate::program::Program;
use crate::trace::{Trace, TraceConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Mutex;

/// Fewest programs worth a worker of their own when generating a corpus.
/// On a 2-vCPU host two workers beat one from about 50 programs and
/// clearly from about 100; smaller corpora, most test fixtures among them,
/// stay on the calling thread.
const MIN_PROGRAMS_PER_WORKER: usize = 64;

/// Shape of a generated dataset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DatasetConfig {
    /// Total malware samples (spread evenly over the five families).
    pub malware_count: usize,
    /// Total benign samples (spread evenly over the four families).
    pub benign_count: usize,
    /// Trace shape per program.
    pub trace: TraceConfig,
}

impl DatasetConfig {
    /// The paper's dataset: 3 000 malware + 600 benign.
    pub fn paper() -> DatasetConfig {
        DatasetConfig {
            malware_count: 3000,
            benign_count: 600,
            trace: TraceConfig::default(),
        }
    }

    /// A scaled-down dataset preserving the paper's 5:1 class ratio
    /// (`malware_count` malware, `malware_count / 5` benign) — for tests
    /// and fast experiment runs.
    pub fn small(malware_count: usize) -> DatasetConfig {
        DatasetConfig {
            malware_count,
            benign_count: (malware_count / 5).max(MalwareFamily::ALL.len()),
            trace: TraceConfig::default(),
        }
    }
}

impl Default for DatasetConfig {
    fn default() -> DatasetConfig {
        DatasetConfig::paper()
    }
}

/// Feature matrix + labels, ready for any of the model crates.
#[derive(Clone, Debug, PartialEq)]
pub struct LabeledFeatures {
    /// One feature vector per sample.
    pub inputs: Vec<Vec<f32>>,
    /// `true` = malware.
    pub labels: Vec<bool>,
}

impl LabeledFeatures {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// `true` when no samples are present.
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }
}

/// The three folds: victim training, attacker training, testing.
///
/// `rotation` (0–2) cycles which fold plays which role, implementing the
/// paper's 3-fold cross-validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThreeFoldSplit {
    folds: [Vec<usize>; 3],
    rotation: usize,
}

impl ThreeFoldSplit {
    /// Indices the victim trains on.
    pub fn victim_training(&self) -> &[usize] {
        &self.folds[self.rotation % 3]
    }

    /// Indices the attacker trains proxies on.
    pub fn attacker_training(&self) -> &[usize] {
        &self.folds[(self.rotation + 1) % 3]
    }

    /// Held-out evaluation indices.
    pub fn testing(&self) -> &[usize] {
        &self.folds[(self.rotation + 2) % 3]
    }
}

/// A generated dataset: programs plus their (deterministic) traces.
#[derive(Clone, Debug)]
pub struct Dataset {
    config: DatasetConfig,
    seed: u64,
    programs: Vec<Program>,
    traces: Vec<Trace>,
}

impl Dataset {
    /// Generates the dataset; deterministic per `(config, seed)`.
    ///
    /// Programs are built on [`ExecConfig::nested`]'s workers, so inside an
    /// experiment's task this runs serially; the corpus is the same either
    /// way.
    pub fn generate(config: &DatasetConfig, seed: u64) -> Dataset {
        let malware = (0..config.malware_count)
            .map(|i| ProgramClass::Malware(MalwareFamily::ALL[i % MalwareFamily::ALL.len()]));
        let benign = (0..config.benign_count)
            .map(|i| ProgramClass::Benign(BenignFamily::ALL[i % BenignFamily::ALL.len()]));
        let classes: Vec<ProgramClass> = malware.chain(benign).collect();
        Dataset::from_classes(*config, &classes, seed)
    }

    /// Generates a dataset from explicit `(class, count)` groups at the
    /// default trace shape (used by [`crate::builder::DatasetBuilder`]).
    pub(crate) fn from_groups(groups: &[(ProgramClass, usize)], seed: u64) -> Dataset {
        let classes: Vec<ProgramClass> = groups
            .iter()
            .flat_map(|&(class, count)| std::iter::repeat_n(class, count))
            .collect();
        let malware_count = classes.iter().filter(|c| c.is_malware()).count();
        let config = DatasetConfig {
            malware_count,
            benign_count: classes.len() - malware_count,
            trace: TraceConfig::default(),
        };
        Dataset::from_classes(config, &classes, seed)
    }

    /// Generates one program per entry of `classes`, its id the entry's
    /// index, and the program's trace, in index order. Each program draws
    /// from its own seed, so which worker builds it changes nothing.
    fn from_classes(config: DatasetConfig, classes: &[ProgramClass], seed: u64) -> Dataset {
        let workers = ExecConfig::nested()
            .thread_count()
            .min(classes.len() / MIN_PROGRAMS_PER_WORKER);
        // The trace buffers are allocated here rather than on the workers,
        // so that the corpus stays in this thread's allocator arena.
        let windows: Vec<Mutex<Vec<[u32; CATEGORY_COUNT]>>> = classes
            .iter()
            .map(|_| Mutex::new(vec![[0; CATEGORY_COUNT]; config.trace.windows]))
            .collect();
        let programs = parallel_map(&ExecConfig::threads(workers), classes, |id, &class| {
            let program = Program::generate(id as u32, class, seed);
            let mut windows = windows[id].lock().expect("a panicking task ends the map");
            program.trace_windows(config.trace.insns_per_window, &mut windows);
            program
        });
        let traces = windows
            .into_iter()
            .map(|w| Trace::from_windows(w.into_inner().expect("a panicking task ends the map")))
            .collect();
        Dataset {
            config,
            seed,
            programs,
            traces,
        }
    }

    /// The generation config.
    pub fn config(&self) -> &DatasetConfig {
        &self.config
    }

    /// Number of programs.
    pub fn len(&self) -> usize {
        self.programs.len()
    }

    /// `true` when the dataset has no programs.
    pub fn is_empty(&self) -> bool {
        self.programs.is_empty()
    }

    /// All programs.
    pub fn programs(&self) -> &[Program] {
        &self.programs
    }

    /// The program at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn program(&self, idx: usize) -> &Program {
        &self.programs[idx]
    }

    /// The trace of program `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn trace(&self, idx: usize) -> &Trace {
        &self.traces[idx]
    }

    /// Stratified three-fold split: each family's samples are shuffled
    /// (deterministically) and dealt round-robin into the folds, so types
    /// are "distributed evenly and randomly across the folds".
    pub fn three_fold_split(&self, rotation: usize) -> ThreeFoldSplit {
        let mut folds: [Vec<usize>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        // Group indices per class (strata).
        let mut strata: std::collections::BTreeMap<String, Vec<usize>> = Default::default();
        for (i, p) in self.programs.iter().enumerate() {
            strata.entry(p.class().to_string()).or_default().push(i);
        }
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xf01d_5eed_0000_0000);
        for (_, mut indices) in strata {
            indices.shuffle(&mut rng);
            for (k, idx) in indices.into_iter().enumerate() {
                folds[k % 3].push(idx);
            }
        }
        ThreeFoldSplit { folds, rotation }
    }

    /// Extracts features for a set of program indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn labeled_features(&self, indices: &[usize], spec: FeatureSpec) -> LabeledFeatures {
        let mut inputs = Vec::with_capacity(indices.len());
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            inputs.push(spec.extract(&self.traces[i]));
            labels.push(self.programs[i].is_malware());
        }
        LabeledFeatures { inputs, labels }
    }

    /// Indices of all malware programs within `indices`.
    pub fn malware_indices<'a>(&'a self, indices: &'a [usize]) -> impl Iterator<Item = usize> + 'a {
        indices
            .iter()
            .copied()
            .filter(move |&i| self.programs[i].is_malware())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::parallel_map_n;

    fn tiny() -> Dataset {
        Dataset::generate(&DatasetConfig::small(30), 5)
    }

    #[test]
    fn paper_config_matches_section_iv() {
        let c = DatasetConfig::paper();
        assert_eq!(c.malware_count, 3000);
        assert_eq!(c.benign_count, 600);
    }

    #[test]
    fn generation_counts() {
        let d = tiny();
        assert_eq!(d.len(), 30 + 6);
        let malware = d.programs().iter().filter(|p| p.is_malware()).count();
        assert_eq!(malware, 30);
    }

    #[test]
    fn families_are_balanced() {
        let d = tiny();
        let mut per_family = std::collections::HashMap::new();
        for p in d.programs() {
            *per_family.entry(p.class().to_string()).or_insert(0usize) += 1;
        }
        for &f in &MalwareFamily::ALL {
            assert_eq!(per_family[&format!("malware/{f}")], 6);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Dataset::generate(&DatasetConfig::small(20), 9);
        let b = Dataset::generate(&DatasetConfig::small(20), 9);
        assert_eq!(a.programs(), b.programs());
        assert_eq!(a.trace(3), b.trace(3));
    }

    /// FNV-1a over each program's profile and then its trace windows, in
    /// dataset order: a corpus's fingerprint.
    fn corpus_hash(d: &Dataset) -> u64 {
        let bytes = d.programs.iter().zip(&d.traces).flat_map(|(p, t)| {
            let profile = p.profile().iter().flat_map(|x| x.to_bits().to_le_bytes());
            let windows = t.windows().iter().flatten().flat_map(|c| c.to_le_bytes());
            profile.chain(windows)
        });
        bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn corpus_is_pinned_on_any_number_of_workers() {
        // Captured when generation ran on one thread only.
        for (config, want) in [
            (DatasetConfig::paper(), 17_554_140_117_733_026_454),
            (DatasetConfig::small(40), 5_379_178_724_107_450_159),
        ] {
            let top_level = corpus_hash(&Dataset::generate(&config, 42));
            // Inside a task, `ExecConfig::nested` makes generation serial.
            let in_task = parallel_map_n(&ExecConfig::serial(), 1, |_| {
                corpus_hash(&Dataset::generate(&config, 42))
            });
            assert_eq!((top_level, in_task[0]), (want, want), "{config:?}");
        }
    }

    #[test]
    fn paper_corpus_features_are_pinned() {
        // Every feature of every paper-corpus trace under every spec,
        // through both extraction entry points. Captured when extraction
        // collected each window's frequencies before summing them.
        let d = Dataset::generate(&DatasetConfig::paper(), 42);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut row = [0.0f32; crate::features::FEATURE_DIM];
        for spec in FeatureSpec::all_combinations() {
            for trace in &d.traces {
                let features = spec.extract(trace);
                spec.extract_into(trace, &mut row);
                assert_eq!(features, row, "{spec}: extract_into differs from extract");
                for b in features.iter().flat_map(|f| f.to_bits().to_le_bytes()) {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        assert_eq!(h, 11_752_399_746_380_779_902, "paper-corpus features moved");
    }

    #[test]
    fn folds_partition_the_dataset() {
        let d = tiny();
        let split = d.three_fold_split(0);
        let mut all: Vec<usize> = split
            .victim_training()
            .iter()
            .chain(split.attacker_training())
            .chain(split.testing())
            .copied()
            .collect();
        all.sort_unstable();
        let expected: Vec<usize> = (0..d.len()).collect();
        assert_eq!(all, expected, "folds must partition without overlap");
    }

    #[test]
    fn folds_are_roughly_even() {
        let d = tiny();
        let split = d.three_fold_split(0);
        let sizes = [
            split.victim_training().len(),
            split.attacker_training().len(),
            split.testing().len(),
        ];
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        assert!(max - min <= 9, "fold sizes {sizes:?}");
    }

    #[test]
    fn folds_are_stratified() {
        let d = Dataset::generate(&DatasetConfig::small(60), 2);
        let split = d.three_fold_split(0);
        for fold in [
            split.victim_training(),
            split.attacker_training(),
            split.testing(),
        ] {
            let malware = fold.iter().filter(|&&i| d.program(i).is_malware()).count();
            let ratio = malware as f64 / fold.len() as f64;
            assert!(
                (0.70..0.95).contains(&ratio),
                "fold malware ratio {ratio} should match dataset (≈0.83)"
            );
        }
    }

    #[test]
    fn rotation_cycles_roles() {
        let d = tiny();
        let r0 = d.three_fold_split(0);
        let r1 = d.three_fold_split(1);
        assert_eq!(r0.attacker_training(), r1.victim_training());
        assert_eq!(r0.testing(), r1.attacker_training());
    }

    #[test]
    fn labeled_features_align() {
        let d = tiny();
        let split = d.three_fold_split(0);
        let lf = d.labeled_features(split.testing(), FeatureSpec::frequency());
        assert_eq!(lf.len(), split.testing().len());
        for (k, &idx) in split.testing().iter().enumerate() {
            assert_eq!(lf.labels[k], d.program(idx).is_malware());
        }
    }

    #[test]
    fn malware_indices_filters() {
        let d = tiny();
        let all: Vec<usize> = (0..d.len()).collect();
        let count = d.malware_indices(&all).count();
        assert_eq!(count, 30);
    }

    #[test]
    fn classes_are_separable_in_feature_space() {
        // Sanity check that an HMD can exist at all: class centroids of the
        // frequency features must be farther apart than typical
        // within-class spread.
        let d = Dataset::generate(&DatasetConfig::small(100), 3);
        let all: Vec<usize> = (0..d.len()).collect();
        let lf = d.labeled_features(&all, FeatureSpec::frequency());
        let dim = lf.inputs[0].len();
        let mut centroid = [vec![0.0f64; dim], vec![0.0f64; dim]];
        let mut counts = [0usize; 2];
        for (x, &y) in lf.inputs.iter().zip(&lf.labels) {
            let c = usize::from(y);
            counts[c] += 1;
            for (m, &v) in centroid[c].iter_mut().zip(x) {
                *m += f64::from(v);
            }
        }
        for (c, n) in centroid.iter_mut().zip(counts) {
            for m in c.iter_mut() {
                *m /= n as f64;
            }
        }
        let dist: f64 = centroid[0]
            .iter()
            .zip(&centroid[1])
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(dist > 0.02, "centroid distance {dist} too small to detect");
    }
}
