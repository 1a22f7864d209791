//! The batch epoch of iRPROP−: a sample-blocked forward and backward pass
//! and a row-split gradient sum, on one thread or on a crew of scoped
//! workers that stays up for the whole training run. [`super::mse`] is its
//! forward pass on one thread.

use super::{assert_widths, backprop, for_each_gradient, weights_mut, TrainData};
use crate::network::Network;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};
use std::thread::Thread;

/// Samples per block of the lane-major forward kernel
/// ([`Network::forward_trace_lanes`]).
const BLOCK: usize = 8;

/// One thread's buffers for a block of [`BLOCK`] samples: lane-major
/// inputs, targets, trace and deltas.
#[derive(Debug)]
struct Lanes {
    input: Vec<f32>,
    target: Vec<f32>,
    trace: Vec<f32>,
    delta: Vec<f64>,
}

impl Lanes {
    fn new(net: &Network) -> Lanes {
        Lanes {
            input: vec![0.0; net.input_dim() * BLOCK],
            target: vec![0.0; net.output_dim() * BLOCK],
            trace: vec![0.0; net.trace_len() * BLOCK],
            delta: vec![0.0; net.trace_len() * BLOCK],
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

/// Forward-traces the samples from `first` on into `samples.traces`, one
/// [`Network::trace_len`] slot per sample, and backpropagates each into
/// its slot of `samples.deltas`: whole blocks of [`BLOCK`] through the
/// lane-major kernel, each backpropagated while its lane-major trace is
/// still at hand, the remainder one at a time. Either way each trace and
/// delta is bit-identical to its sample's own
/// [`Network::forward_trace_into`] and [`backprop`].
fn trace_and_backprop(
    net: &Network,
    data: &TrainData,
    first: usize,
    samples: &mut Samples,
    lanes: &mut Lanes,
) {
    let trace_len = net.trace_len();
    let mut blocks = samples.traces.chunks_exact_mut(BLOCK * trace_len);
    let mut outs = samples.deltas.chunks_exact_mut(BLOCK * trace_len);
    let mut sample = first;
    for (block, out) in (&mut blocks).zip(&mut outs) {
        for lane in 0..BLOCK {
            let (input, target) = data.sample(sample + lane);
            to_lane(&mut lanes.input, lane, input);
            to_lane(&mut lanes.target, lane, target);
        }
        net.forward_trace_lanes::<BLOCK>(&lanes.input, &mut lanes.trace);
        backprop::<BLOCK>(net, &lanes.trace, &lanes.target, &mut lanes.delta);
        from_lanes(&lanes.trace, block);
        from_lanes(&lanes.delta, out);
        sample += BLOCK;
    }
    let traces = blocks.into_remainder().chunks_exact_mut(trace_len);
    for (trace, delta) in traces.zip(outs.into_remainder().chunks_exact_mut(trace_len)) {
        let (input, target) = data.sample(sample);
        net.forward_trace_into(input, trace);
        backprop::<1>(net, trace, target, delta);
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

/// Yields before a waiting thread parks.
const YIELDS: u32 = 1 << 10;

/// Waits until `ready` holds: spinning first, since a step lasts well
/// under a millisecond, then yielding, so that more workers than cores
/// still make progress, then parking, so that a thread kept waiting for
/// longer stops taking a core. Whoever makes `ready` hold unparks the
/// waiting thread.
fn wait_until(mut ready: impl FnMut() -> bool) {
    let mut rounds = 0;
    while !ready() {
        if rounds < SPINS {
            rounds += 1;
            std::hint::spin_loop();
        } else if rounds < SPINS + YIELDS {
            rounds += 1;
            std::thread::yield_now();
        } else {
            std::thread::park();
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

/// A forward run's samples: each one's forward trace and its
/// backpropagated deltas, [`Network::trace_len`] values apiece.
#[derive(Debug)]
struct Samples {
    traces: Vec<f32>,
    deltas: Vec<f64>,
}

/// A batch pass's split of the work, its buffers, and the hand-off between
/// the main thread and the crew of workers.
///
/// A step is cut into runs. A forward run is a contiguous range of whole
/// sample blocks with its own [`Samples`]: it traces its samples and
/// backpropagates them. A gradient run is a contiguous range of weight
/// rows with its own sum: it adds its rows' gradients over every buffered
/// trace and delta, in sample order, so each weight's f64 sum gets the
/// same f32 addends in the same order as on one thread. The main thread
/// and the crew claim runs from the [`Board`] until none is left, so a
/// worker that is slow to wake loses its run to another thread rather than
/// stalling the step.
#[derive(Debug)]
struct Crew<'d> {
    data: &'d TrainData,
    samples_per_run: usize,
    samples: Vec<RwLock<Samples>>,
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
    /// The thread that builds the crew and offers its steps, unparked when
    /// a crew thread finishes a run.
    main: Thread,
    /// The crew's threads, unparked when a step is offered or the crew
    /// stops.
    threads: Mutex<Vec<Thread>>,
}

impl<'d> Crew<'d> {
    fn new(net: &Network, data: &'d TrainData, threads: usize) -> Crew<'d> {
        let threads = threads.max(1);
        let trace_len = net.trace_len();
        let samples_per_run = data.len().div_ceil(BLOCK).div_ceil(threads) * BLOCK;
        let samples: Vec<_> = (0..data.len())
            .step_by(samples_per_run)
            .map(|first| {
                let len = samples_per_run.min(data.len() - first) * trace_len;
                RwLock::new(Samples {
                    traces: vec![0.0; len],
                    deltas: vec![0.0; len],
                })
            })
            .collect();
        let (rows, sums): (Vec<_>, Vec<_>) = row_split(net, threads)
            .into_iter()
            .map(|(rows, weights)| (rows, Mutex::new(vec![0.0; weights])))
            .unzip();
        Crew {
            data,
            samples_per_run,
            workers: samples.len().max(rows.len()) - 1,
            main_claims: true,
            samples,
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
            main: std::thread::current(),
            threads: Mutex::new(Vec::new()),
        }
    }

    fn run_count(&self, step: Step) -> usize {
        match step {
            Step::Forward => self.samples.len(),
            Step::Gradient => self.rows.len(),
        }
    }

    /// Forward run `k` at `net`'s weights: traces and backpropagates its
    /// samples.
    fn forward_run(&self, k: usize, net: &Network, lanes: &mut Lanes) {
        let first = k * self.samples_per_run;
        let mut samples = self.samples[k].write().expect("no sample reader panicked");
        trace_and_backprop(net, self.data, first, &mut samples, lanes);
    }

    /// Gradient run `k` over the last forward step's samples, for networks
    /// shaped like `net`.
    fn gradient_run(&self, k: usize, net: &Network) {
        let (rows, trace_len) = (&self.rows[k], net.trace_len());
        let mut sum = self.sums[k].lock().expect("no sum holder panicked");
        sum.fill(0.0);
        for (run, samples) in self.samples.iter().enumerate() {
            let samples = samples.read().expect("no sample writer panicked");
            let traces = samples.traces.chunks_exact(trace_len);
            let buffered = traces.zip(samples.deltas.chunks_exact(trace_len));
            for (sample, (trace, delta)) in (run * self.samples_per_run..).zip(buffered) {
                let input = self.data.sample(sample).0;
                for_each_gradient(net, input, trace, delta, rows.clone(), &mut sum, |a, g| {
                    *a += f64::from(g);
                });
            }
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
            Step::Gradient => self.gradient_run(run, net),
        }
        // Release: pairs with the main thread's Acquire wait, so the run's
        // buffer is complete once it is counted.
        self.finished.fetch_add(1, Ordering::Release);
    }

    /// Wakes every crew thread that has parked.
    fn wake_crew(&self) {
        let threads = self.threads.lock().expect("no thread list holder panicked");
        for thread in threads.iter() {
            thread.unpark();
        }
    }

    /// Tells the crew to exit.
    fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
        self.wake_crew();
    }

    /// Offers `step` at `net`'s weights, works through its runs alongside
    /// the crew, and returns once every run is done. A gradient step reads
    /// only the buffers, so its weights are not published.
    ///
    /// # Panics
    ///
    /// Panics if a crew worker panicked.
    fn step(&self, step: Step, net: &Network, lanes: &mut Lanes) {
        if self.workers > 0 && step == Step::Forward {
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
        self.wake_crew();
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
        struct Failed<'a, 'd>(&'a Crew<'d>);
        impl Drop for Failed<'_, '_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.0.failed.store(true, Ordering::Relaxed);
                    self.0.main.unpark();
                }
            }
        }
        let _failed = Failed(self);
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
                if !current && step == Step::Forward {
                    // A claimed run holds its phase open, so these are
                    // still the weights it was offered at.
                    let weights = self.weights.read().expect("no weight writer panicked");
                    for (w, &v) in weights_mut(&mut net).zip(weights.iter()) {
                        *w = v;
                    }
                    current = true;
                }
                self.execute(step, run, &net, &mut lanes);
                self.main.unpark();
            }
        }
    }
}

/// A batch epoch's two steps, run by the main thread with a [`Crew`].
///
/// One forward pass per epoch serves two purposes: its MSE is the epoch's,
/// and its traces and deltas are what the next [`BatchPass::gradient`]
/// sums gradients over. Both steps split across the crew without changing
/// a bit.
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
                let worker = scope.spawn(move || crew.work(net));
                let mut threads = crew.threads.lock().expect("no thread list holder panicked");
                threads.push(worker.thread().clone());
            }
            body(&mut pass)
        })
    }

    /// Traces and backpropagates every sample at `net`'s weights; returns
    /// the MSE.
    pub(crate) fn forward(&mut self, net: &Network) -> f64 {
        let crew = self.crew;
        crew.step(Step::Forward, net, &mut self.lanes);
        let mut error = SquaredError::default();
        let mut samples = crew.data.iter();
        for run in &crew.samples {
            let run = run.read().expect("no sample writer panicked");
            error.add_traces(net, &run.traces, &mut samples);
        }
        error.mean()
    }

    /// The batch gradient at the weights of the last
    /// [`BatchPass::forward`], for networks shaped like `net`: each
    /// sample's gradient rounded to f32, summed in f64 in sample order.
    /// Laid out like the layers' [`crate::layer::Layer::weights`]
    /// concatenated, input side first.
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
    use crate::train::tests::{gradients, pinned_net, synthetic};
    use crate::train::RpropTrainer;

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
