//! The batch epoch shared by iRPROP− and QAT: a sample-blocked forward
//! pass and a row-split gradient, on one thread or on a crew of scoped
//! workers that stays up for the whole training run. The serial
//! sample-blocked MSE pass ([`forward_mse`]) also serves SGD and
//! [`super::mse`].

use super::{assert_widths, backprop, for_each_gradient, weights_mut, TrainData};
use crate::network::Network;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};

/// Samples per block of the lane-major forward kernel
/// ([`Network::forward_trace_lanes`]).
const BLOCK: usize = 8;

/// One thread's buffers for a block of [`BLOCK`] samples: lane-major
/// inputs, targets, trace and deltas, and the deltas back in sample order.
#[derive(Debug)]
pub(super) struct Lanes {
    input: Vec<f32>,
    target: Vec<f32>,
    trace: Vec<f32>,
    delta: Vec<f64>,
    deltas: Vec<f64>,
}

impl Lanes {
    pub(super) fn new(net: &Network) -> Lanes {
        Lanes {
            input: vec![0.0; net.input_dim() * BLOCK],
            target: vec![0.0; net.output_dim() * BLOCK],
            trace: vec![0.0; net.trace_len() * BLOCK],
            delta: vec![0.0; net.trace_len() * BLOCK],
            deltas: vec![0.0; net.trace_len() * BLOCK],
        }
    }
}

/// Writes one sample's `values` into lane `lane` of a lane-major block.
fn to_lane<T: Copy>(lanes: &mut [T], lane: usize, values: &[T]) {
    for (x, &v) in lanes[lane..].iter_mut().step_by(BLOCK).zip(values) {
        *x = v;
    }
}

/// Copies a lane-major block into sample-major `samples`, [`BLOCK`]
/// samples of equal width.
fn from_lanes<T: Copy>(lanes: &[T], samples: &mut [T]) {
    let width = samples.len() / BLOCK;
    for (lane, sample) in samples.chunks_exact_mut(width).enumerate() {
        for (x, &v) in sample.iter_mut().zip(lanes[lane..].iter().step_by(BLOCK)) {
            *x = v;
        }
    }
}

/// Forward-traces the samples from `first` on into `traces`, one
/// [`Network::trace_len`] slot per sample: whole blocks of [`BLOCK`]
/// through the lane-major kernel, the remainder one at a time. Either way
/// each trace is bit-identical to its sample's own
/// [`Network::forward_trace_into`].
fn trace_samples(
    net: &Network,
    data: &TrainData,
    first: usize,
    traces: &mut [f32],
    lanes: &mut Lanes,
) {
    let trace_len = net.trace_len();
    let mut blocks = traces.chunks_exact_mut(BLOCK * trace_len);
    let mut sample = first;
    for block in &mut blocks {
        for lane in 0..BLOCK {
            to_lane(&mut lanes.input, lane, data.sample(sample + lane).0);
        }
        net.forward_trace_lanes::<BLOCK>(&lanes.input, &mut lanes.trace);
        from_lanes(&lanes.trace, block);
        sample += BLOCK;
    }
    for trace in blocks.into_remainder().chunks_exact_mut(trace_len) {
        net.forward_trace_into(data.sample(sample).0, trace);
        sample += 1;
    }
}

/// Backpropagates the samples from `first` on, whose forward traces are
/// `traces`, and calls `f(sample, trace, delta)` for each in order: whole
/// blocks of [`BLOCK`] through the lane-major [`backprop`], the remainder
/// one at a time. Either way each delta is bit-identical to its sample's
/// own.
fn backprop_samples(
    net: &Network,
    data: &TrainData,
    first: usize,
    traces: &[f32],
    lanes: &mut Lanes,
    mut f: impl FnMut(usize, &[f32], &[f64]),
) {
    let trace_len = net.trace_len();
    let mut blocks = traces.chunks_exact(BLOCK * trace_len);
    let mut sample = first;
    for block in &mut blocks {
        for (lane, trace) in block.chunks_exact(trace_len).enumerate() {
            to_lane(&mut lanes.trace, lane, trace);
            to_lane(&mut lanes.target, lane, data.sample(sample + lane).1);
        }
        backprop::<BLOCK>(net, &lanes.trace, &lanes.target, &mut lanes.delta);
        from_lanes(&lanes.delta, &mut lanes.deltas);
        let deltas = lanes.deltas.chunks_exact(trace_len);
        for (trace, delta) in block.chunks_exact(trace_len).zip(deltas) {
            f(sample, trace, delta);
            sample += 1;
        }
    }
    let delta = &mut lanes.deltas[..trace_len];
    for trace in blocks.remainder().chunks_exact(trace_len) {
        backprop::<1>(net, trace, data.sample(sample).1, delta);
        f(sample, trace, delta);
        sample += 1;
    }
}

/// A running sum of squared output errors, added in sample order.
#[derive(Default)]
struct SquaredError {
    total: f64,
    count: usize,
}

impl SquaredError {
    fn add(&mut self, output: &[f32], target: &[f32]) {
        for (&y, &t) in output.iter().zip(target) {
            self.total += f64::from(y - t) * f64::from(y - t);
            self.count += 1;
        }
    }

    /// Adds the output error of each of `traces` (whole traces at `net`'s
    /// shape) against the target of the next of `samples`.
    fn add_traces<'a>(
        &mut self,
        net: &Network,
        traces: &[f32],
        samples: &mut impl Iterator<Item = (&'a [f32], &'a [f32])>,
    ) {
        let outputs = net.trace_len() - net.output_dim();
        for (trace, (_, target)) in traces.chunks_exact(net.trace_len()).zip(samples) {
            self.add(&trace[outputs..], target);
        }
    }

    fn mean(&self) -> f64 {
        self.total / self.count.max(1) as f64
    }
}

/// Traces every sample at `net`'s weights into `traces`, one
/// [`Network::trace_len`] slot per sample, on this thread; returns the MSE.
///
/// # Panics
///
/// Panics if the data's input or target width differs from the network's.
pub(super) fn forward_mse(
    net: &Network,
    data: &TrainData,
    traces: &mut [f32],
    lanes: &mut Lanes,
) -> f64 {
    assert_widths(net, data);
    trace_samples(net, data, 0, traces, lanes);
    let mut error = SquaredError::default();
    error.add_traces(net, traces, &mut data.iter());
    error.mean()
}

/// Splits the network's rows (numbered as in [`for_each_gradient`]) into
/// at most `workers` contiguous runs of about equal weight counts: each
/// row goes to the worker its middle weight falls to. Returns each
/// non-empty run with its weight count.
fn row_split(net: &Network, workers: usize) -> Vec<(Range<usize>, usize)> {
    let total = net.num_weights();
    let widths = net
        .layers()
        .iter()
        .flat_map(|l| std::iter::repeat_n(l.in_dim() + 1, l.out_dim()));
    let mut split: Vec<(Range<usize>, usize)> = Vec::new();
    let (mut offset, mut last_worker) = (0, usize::MAX);
    for (row, width) in widths.enumerate() {
        let worker = ((2 * offset + width) * workers / (2 * total)).min(workers - 1);
        if worker != last_worker {
            split.push((row..row, 0));
            last_worker = worker;
        }
        let (rows, weights) = split.last_mut().expect("a run was pushed");
        rows.end = row + 1;
        *weights += width;
        offset += width;
    }
    split
}

/// The two steps of a batch epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Step {
    Forward,
    Gradient,
}

/// Busy-wait rounds before a waiting thread starts yielding its core.
const SPINS: u32 = 1 << 10;

/// Waits until `ready` holds: spinning first, since a step lasts well
/// under a millisecond, then yielding, so that more workers than cores
/// still make progress.
fn wait_until(mut ready: impl FnMut() -> bool) {
    let mut spins = 0;
    while !ready() {
        if spins < SPINS {
            spins += 1;
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

/// The step on offer and the next of its runs to hand out.
#[derive(Debug)]
struct Board {
    phase: usize,
    step: Step,
    next: usize,
}

/// A batch pass's split of the work, its buffers, and the hand-off between
/// the main thread and the crew of workers.
///
/// A step is cut into runs. A forward run is a contiguous range of whole
/// sample blocks with its own trace buffer. A gradient run is a contiguous
/// range of weight rows with its own sum: it backpropagates every sample,
/// in order and in blocks, and adds only its rows' gradients, so each
/// weight's f64 sum gets the same f32 addends in the same order as on one
/// thread. Nothing per sample is buffered beyond the traces. The main thread
/// and the crew claim runs from the [`Board`] until none is left, so a
/// worker that is slow to wake loses its run to another thread rather than
/// stalling the step.
#[derive(Debug)]
struct Crew<'d> {
    data: &'d TrainData,
    samples_per_run: usize,
    traces: Vec<RwLock<Vec<f32>>>,
    rows: Vec<Range<usize>>,
    sums: Vec<Mutex<Vec<f64>>>,
    workers: usize,
    /// Whether the main thread claims runs alongside a crew. Only tests
    /// turn this off, to make the crew do every run.
    main_claims: bool,
    /// The weights of the step on offer, published by the main thread.
    weights: RwLock<Vec<f32>>,
    board: Mutex<Board>,
    /// The phase on offer: bumped after the board, so that an idle worker
    /// can watch it without taking the lock.
    phase: AtomicUsize,
    /// Runs of the phase on offer that are done.
    finished: AtomicUsize,
    stop: AtomicBool,
    /// Set by a worker that panicked, so that the main thread stops
    /// waiting for its run.
    failed: AtomicBool,
}

impl<'d> Crew<'d> {
    fn new(net: &Network, data: &'d TrainData, threads: usize) -> Crew<'d> {
        let threads = threads.max(1);
        let trace_len = net.trace_len();
        let samples_per_run = data.len().div_ceil(BLOCK).div_ceil(threads) * BLOCK;
        let traces: Vec<_> = (0..data.len())
            .step_by(samples_per_run)
            .map(|first| {
                let samples = samples_per_run.min(data.len() - first);
                RwLock::new(vec![0.0; samples * trace_len])
            })
            .collect();
        let (rows, sums): (Vec<_>, Vec<_>) = row_split(net, threads)
            .into_iter()
            .map(|(rows, weights)| (rows, Mutex::new(vec![0.0; weights])))
            .unzip();
        Crew {
            data,
            samples_per_run,
            workers: traces.len().max(rows.len()) - 1,
            main_claims: true,
            traces,
            rows,
            sums,
            weights: RwLock::new(vec![0.0; net.num_weights()]),
            board: Mutex::new(Board {
                phase: 0,
                step: Step::Forward,
                next: 0,
            }),
            phase: AtomicUsize::new(0),
            finished: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            failed: AtomicBool::new(false),
        }
    }

    fn run_count(&self, step: Step) -> usize {
        match step {
            Step::Forward => self.traces.len(),
            Step::Gradient => self.rows.len(),
        }
    }

    /// Forward run `k` at `net`'s weights.
    fn forward_run(&self, k: usize, net: &Network, lanes: &mut Lanes) {
        let mut traces = self.traces[k].write().expect("no trace reader panicked");
        trace_samples(net, self.data, k * self.samples_per_run, &mut traces, lanes);
    }

    /// Gradient run `k` at `net`'s weights, which must be those of the
    /// last forward step.
    fn gradient_run(&self, k: usize, net: &Network, lanes: &mut Lanes) {
        let rows = &self.rows[k];
        let mut sum = self.sums[k].lock().expect("no sum holder panicked");
        sum.fill(0.0);
        for (run, traces) in self.traces.iter().enumerate() {
            let traces = traces.read().expect("no trace writer panicked");
            let first = run * self.samples_per_run;
            backprop_samples(
                net,
                self.data,
                first,
                &traces,
                lanes,
                |sample, trace, delta| {
                    let input = self.data.sample(sample).0;
                    for_each_gradient(net, input, trace, delta, rows.clone(), &mut sum, |a, g| {
                        *a += f64::from(g);
                    });
                },
            );
        }
    }

    /// Takes the next unclaimed run of `phase`, if that phase is still on
    /// offer and has one left.
    fn claim(&self, phase: usize) -> Option<(Step, usize)> {
        let mut board = self.board.lock().expect("no board holder panicked");
        if board.phase != phase || board.next >= self.run_count(board.step) {
            return None;
        }
        board.next += 1;
        Some((board.step, board.next - 1))
    }

    /// Runs `run` of `step` and counts it done.
    fn execute(&self, step: Step, run: usize, net: &Network, lanes: &mut Lanes) {
        match step {
            Step::Forward => self.forward_run(run, net, lanes),
            Step::Gradient => self.gradient_run(run, net, lanes),
        }
        // Release: pairs with the main thread's Acquire wait, so the run's
        // buffer is complete once it is counted.
        self.finished.fetch_add(1, Ordering::Release);
    }

    /// Tells the crew to exit.
    fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Offers `step` at `net`'s weights, works through its runs alongside
    /// the crew, and returns once every run is done.
    ///
    /// # Panics
    ///
    /// Panics if a crew worker panicked.
    fn step(&self, step: Step, net: &Network, lanes: &mut Lanes) {
        if self.workers > 0 {
            let mut weights = self.weights.write().expect("no weight reader panicked");
            weights.clear();
            weights.extend(net.layers().iter().flat_map(|l| l.weights()));
        }
        self.finished.store(0, Ordering::Relaxed);
        let phase = {
            let mut board = self.board.lock().expect("no board holder panicked");
            board.phase += 1;
            board.step = step;
            board.next = 0;
            board.phase
        };
        // Release: the weights, the reset count and the board
        // happen-before the work of a worker whose Acquire load sees this
        // phase (its claim also goes through the board's lock).
        self.phase.store(phase, Ordering::Release);
        if self.main_claims || self.workers == 0 {
            while let Some((step, run)) = self.claim(phase) {
                self.execute(step, run, net, lanes);
            }
        }
        let runs = self.run_count(step);
        wait_until(|| {
            self.finished.load(Ordering::Acquire) == runs || self.failed.load(Ordering::Relaxed)
        });
        assert!(
            !self.failed.load(Ordering::Relaxed),
            "a training worker panicked"
        );
    }

    /// A crew worker's loop: claims runs of every phase on offer, at its
    /// own copy of the published weights, until told to stop.
    fn work(&self, mut net: Network) {
        /// Raises [`Crew::failed`] if the worker unwinds.
        struct Failed<'a>(&'a AtomicBool);
        impl Drop for Failed<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.0.store(true, Ordering::Relaxed);
                }
            }
        }
        let _failed = Failed(&self.failed);
        let mut lanes = Lanes::new(&net);
        let mut seen = 0;
        loop {
            wait_until(|| {
                self.stop.load(Ordering::Relaxed) || self.phase.load(Ordering::Acquire) > seen
            });
            if self.stop.load(Ordering::Relaxed) {
                return;
            }
            seen = self.phase.load(Ordering::Acquire);
            let mut current = false;
            while let Some((step, run)) = self.claim(seen) {
                if !current {
                    // A claimed run holds its phase open, so these are
                    // still the weights it was offered at.
                    let weights = self.weights.read().expect("no weight writer panicked");
                    for (w, &v) in weights_mut(&mut net).zip(weights.iter()) {
                        *w = v;
                    }
                    current = true;
                }
                self.execute(step, run, &net, &mut lanes);
            }
        }
    }
}

/// A batch epoch's two steps, run by the main thread with a [`Crew`].
///
/// One forward pass per epoch serves two purposes: its MSE is the epoch's,
/// and its traces are what the next [`BatchPass::gradient`] backpropagates
/// through. Both steps split across the crew without changing a bit.
#[derive(Debug)]
pub(crate) struct BatchPass<'c, 'd> {
    crew: &'c Crew<'d>,
    lanes: Lanes,
    grad: Vec<f64>,
}

impl BatchPass<'_, '_> {
    /// Runs `body` with a batch pass over `data` for networks shaped like
    /// `net`, split across up to `threads` workers (at least one). Extra
    /// workers are scoped threads started once, before `body`, and stopped
    /// after it, so a training run pays for their start-up once rather
    /// than once per step.
    ///
    /// # Panics
    ///
    /// Panics if the data's input or target width differs from the
    /// network's.
    pub(crate) fn run<R>(
        net: &Network,
        data: &TrainData,
        threads: usize,
        body: impl FnOnce(&mut BatchPass<'_, '_>) -> R,
    ) -> R {
        assert_widths(net, data);
        BatchPass::run_with(Crew::new(net, data, threads), net, body)
    }

    /// [`BatchPass::run`] with a given crew.
    fn run_with<R>(
        crew: Crew<'_>,
        net: &Network,
        body: impl FnOnce(&mut BatchPass<'_, '_>) -> R,
    ) -> R {
        let mut pass = BatchPass {
            crew: &crew,
            lanes: Lanes::new(net),
            grad: vec![0.0; net.num_weights()],
        };
        if crew.workers == 0 {
            return body(&mut pass);
        }
        /// Stops the crew however `body` ends, so the scope can join it.
        struct Stop<'a, 'd>(&'a Crew<'d>);
        impl Drop for Stop<'_, '_> {
            fn drop(&mut self) {
                self.0.stop();
            }
        }
        std::thread::scope(|scope| {
            let _stop = Stop(&crew);
            for _ in 0..crew.workers {
                let (crew, net) = (&crew, net.clone());
                scope.spawn(move || crew.work(net));
            }
            body(&mut pass)
        })
    }

    /// Traces every sample at `net`'s weights; returns the MSE.
    pub(crate) fn forward(&mut self, net: &Network) -> f64 {
        let crew = self.crew;
        if crew.workers == 0 {
            // One run, so one trace buffer for the whole fold.
            let mut traces = crew.traces[0].write().expect("no trace reader panicked");
            return forward_mse(net, crew.data, &mut traces, &mut self.lanes);
        }
        crew.step(Step::Forward, net, &mut self.lanes);
        let mut error = SquaredError::default();
        let mut samples = crew.data.iter();
        for traces in &crew.traces {
            let traces = traces.read().expect("no trace writer panicked");
            error.add_traces(net, &traces, &mut samples);
        }
        error.mean()
    }

    /// The batch gradient at `net`'s weights, which must be those of the
    /// last [`BatchPass::forward`]: each sample's gradient rounded to f32,
    /// summed in f64 in sample order. Laid out like
    /// [`super::gradients`].
    pub(crate) fn gradient(&mut self, net: &Network) -> &[f64] {
        let crew = self.crew;
        crew.step(Step::Gradient, net, &mut self.lanes);
        let mut at = 0;
        for sum in &crew.sums {
            let sum = sum.lock().expect("no sum holder panicked");
            self.grad[at..at + sum.len()].copy_from_slice(&sum);
            at += sum.len();
        }
        &self.grad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;
    use crate::train::tests::{pinned_net, synthetic};
    use crate::train::{gradients, QatTrainer, RpropTrainer};

    /// Sample counts with no whole block, a block and a remainder, and
    /// many blocks and a remainder.
    const COUNTS: [usize; 3] = [4, 13, 1_203];
    const THREADS: [usize; 4] = [1, 2, 3, 8];

    /// One epoch's MSE and batch gradient the unblocked way: each sample
    /// traced and backpropagated alone, its f32 gradient summed in f64.
    fn reference_epoch(net: &Network, data: &TrainData) -> (f64, Vec<f64>) {
        let mut trace = vec![0.0; net.trace_len()];
        let mut delta = vec![0.0; net.trace_len()];
        let mut grads = vec![0.0; net.num_weights()];
        let mut sum = vec![0.0; net.num_weights()];
        let mut error = SquaredError::default();
        for (input, target) in data.iter() {
            error.add(net.forward_trace_into(input, &mut trace), target);
            gradients(net, input, &trace, target, &mut grads, &mut delta);
            for (a, &g) in sum.iter_mut().zip(&grads) {
                *a += f64::from(g);
            }
        }
        (error.mean(), sum)
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    fn weight_bits(net: &Network) -> Vec<u32> {
        let weights = net.layers().iter().flat_map(|l| l.weights());
        weights.map(|w| w.to_bits()).collect()
    }

    fn nets() -> [Network; 2] {
        let wide = NetworkBuilder::new(6)
            .hidden(12)
            .output(1)
            .seed(3)
            .build()
            .unwrap();
        [pinned_net(24), wide]
    }

    #[test]
    fn blocked_and_split_steps_match_the_per_sample_epoch() {
        for n in COUNTS {
            let data = synthetic(n, 6, 5);
            for net in nets() {
                let mut moved = net.clone();
                for w in weights_mut(&mut moved) {
                    *w = -0.7 * *w + 0.01;
                }
                let want = [net.clone(), moved.clone()].map(|net| {
                    let (mse, grad) = reference_epoch(&net, &data);
                    (mse.to_bits(), bits(&grad))
                });
                for (threads, main_claims) in THREADS.iter().flat_map(|&t| [(t, true), (t, false)])
                {
                    // Two epochs in one run, the second at new weights, so
                    // the crew must pick up what the main thread publishes;
                    // with `main_claims` off, the crew does every run.
                    let crew = Crew {
                        main_claims,
                        ..Crew::new(&net, &data, threads)
                    };
                    let got = BatchPass::run_with(crew, &net, |pass| {
                        [&net, &moved].map(|net| {
                            let mse = pass.forward(net);
                            (mse.to_bits(), bits(pass.gradient(net)))
                        })
                    });
                    assert_eq!(got, want, "{n} samples, {threads} threads, {main_claims}");
                }
            }
        }
    }

    #[test]
    fn rprop_trains_the_same_model_at_every_thread_count() {
        for n in COUNTS {
            let data = synthetic(n, 6, 6);
            for net in nets() {
                let train = |threads| {
                    let mut net = net.clone();
                    let mse = RpropTrainer::new()
                        .epochs(12)
                        .threads(threads)
                        .train(&mut net, &data);
                    (weight_bits(&net), mse.to_bits())
                };
                let serial = train(1);
                for threads in &THREADS[1..] {
                    assert_eq!(train(*threads), serial, "{n} samples, {threads} threads");
                }
            }
        }
    }

    #[test]
    fn qat_matches_the_per_sample_reference_on_a_remainder_count() {
        use shmd_fixed::Q16;
        let data = synthetic(13, 6, 7);
        let start = pinned_net(25);
        let mut net = start.clone();
        let mse = QatTrainer::new().epochs(4).fine_tune(&mut net, &data);

        // The same fine-tune, every epoch through `reference_epoch`.
        let mut reference = start;
        let mut shadow: Vec<f32> = weights_mut(&mut reference).map(|w| *w).collect();
        let snap = |net: &mut Network, shadow: &[f32]| {
            for (w, &s) in weights_mut(net).zip(shadow) {
                *w = Q16::from_f32(s).to_f32();
            }
        };
        for _ in 0..4 {
            snap(&mut reference, &shadow);
            let (_, grad) = reference_epoch(&reference, &data);
            for (s, &g) in shadow.iter_mut().zip(&grad) {
                *s -= (0.05 * g / 13.0) as f32;
            }
        }
        snap(&mut reference, &shadow);
        let (want, _) = reference_epoch(&reference, &data);
        assert_eq!(weight_bits(&net), weight_bits(&reference));
        assert_eq!(mse.to_bits(), want.to_bits());
    }

    #[test]
    fn rows_split_into_contiguous_runs_of_about_equal_weight() {
        let net = nets()[1].clone(); // 6-12-1: twelve rows of 7, one of 13
        for workers in [1, 2, 3, 8, 20] {
            let split = row_split(&net, workers);
            assert!(split.len() <= workers.min(13));
            let mut next = 0;
            for (rows, weights) in &split {
                assert_eq!(rows.start, next);
                assert!(rows.end > rows.start);
                next = rows.end;
                let heaviest = net.num_weights().div_ceil(workers) + 13;
                assert!(*weights <= heaviest, "{workers} workers: {split:?}");
            }
            assert_eq!(next, 13);
            let total: usize = split.iter().map(|(_, w)| w).sum();
            assert_eq!(total, net.num_weights());
        }
    }

    #[test]
    #[should_panic(expected = "target width mismatch")]
    fn a_target_wider_than_the_output_panics_before_any_worker_starts() {
        let data = TrainData::new(vec![vec![0.0; 6]; 9], vec![vec![0.0, 1.0]; 9]).unwrap();
        RpropTrainer::new()
            .threads(4)
            .train(&mut pinned_net(1), &data);
    }
}
