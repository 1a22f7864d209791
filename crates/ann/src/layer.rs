//! A fully-connected layer.

use crate::activation::Activation;
use serde::{Deserialize, Serialize};

/// A dense layer: `out = act(W · [in, 1])`.
///
/// Weights are stored row-major, one row of `in_dim + 1` values per output
/// neuron; the final column is the bias.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Layer {
    in_dim: usize,
    out_dim: usize,
    activation: Activation,
    weights: Vec<f32>,
}

impl Layer {
    /// Creates a layer with all weights zero.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(in_dim: usize, out_dim: usize, activation: Activation) -> Layer {
        assert!(
            in_dim > 0 && out_dim > 0,
            "layer dimensions must be positive"
        );
        Layer {
            in_dim,
            out_dim,
            activation,
            weights: vec![0.0; out_dim * (in_dim + 1)],
        }
    }

    /// Input dimension (excluding bias).
    #[inline]
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    #[inline]
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The activation function.
    #[inline]
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Flat weight storage (row-major, bias last in each row).
    #[inline]
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// Mutable flat weight storage.
    #[inline]
    pub fn weights_mut(&mut self) -> &mut [f32] {
        &mut self.weights
    }

    /// Number of weights including biases.
    #[inline]
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Always `false`: a layer has at least one weight.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The weight row (including bias) for output neuron `o`.
    ///
    /// # Panics
    ///
    /// Panics if `o >= out_dim`.
    #[inline]
    pub fn row(&self, o: usize) -> &[f32] {
        let stride = self.in_dim + 1;
        &self.weights[o * stride..(o + 1) * stride]
    }

    /// Forward pass in floating point.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != in_dim`.
    pub fn forward(&self, input: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0; self.out_dim];
        self.forward_into(input, &mut out);
        out
    }

    /// Forward pass into caller-provided storage — same results as
    /// [`Layer::forward`], without allocating. Backpropagation writes each
    /// layer's activations straight into its slot of a trace this way.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != in_dim` or `out.len() != out_dim`.
    pub fn forward_into(&self, input: &[f32], out: &mut [f32]) {
        self.forward_lanes::<1>(input, out);
    }

    /// Forward pass for `B` samples at once, lane-major: `input[i * B + s]`
    /// is input `i` of sample `s`, and `out[o * B + s]` receives neuron
    /// `o`'s activation for sample `s`.
    ///
    /// Each lane's sum is the bias plus the products `w · x` in input
    /// order, as separate f64 multiplies and adds (Rust never contracts
    /// them into fused multiply-adds), so every lane is bit-identical to
    /// [`Layer::forward_into`] on its sample; across the lanes the MACs
    /// vectorize. `B = 1` is [`Layer::forward_into`] itself.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != in_dim · B` or `out.len() != out_dim · B`.
    pub(crate) fn forward_lanes<const B: usize>(&self, input: &[f32], out: &mut [f32]) {
        assert_eq!(input.len(), self.in_dim * B, "input width mismatch");
        assert_eq!(out.len(), self.out_dim * B, "output width mismatch");
        let rows = self.weights.chunks_exact(self.in_dim + 1);
        for (row, y) in rows.zip(out.chunks_exact_mut(B)) {
            let (w, bias) = row.split_at(self.in_dim);
            let mut sum = [f64::from(bias[0]); B];
            for (&w, x) in w.iter().zip(input.chunks_exact(B)) {
                let w = f64::from(w);
                for (s, &x) in sum.iter_mut().zip(x) {
                    *s += w * f64::from(x);
                }
            }
            for (y, s) in y.iter_mut().zip(sum) {
                *y = self.activation.apply(s) as f32;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn identity_layer() -> Layer {
        let mut l = Layer::zeros(2, 2, Activation::Linear);
        // W = I, b = 0
        l.weights_mut()[0] = 1.0; // row 0: [1, 0, 0]
        l.weights_mut()[4] = 1.0; // row 1: [0, 1, 0]
        l
    }

    #[test]
    fn identity_forward() {
        let l = identity_layer();
        assert_eq!(l.forward(&[3.0, -2.0]), vec![3.0, -2.0]);
    }

    #[test]
    fn bias_is_last_column() {
        let mut l = Layer::zeros(2, 1, Activation::Linear);
        l.weights_mut()[2] = 5.0;
        assert_eq!(l.forward(&[0.0, 0.0]), vec![5.0]);
    }

    #[test]
    fn sigmoid_layer_saturates() {
        let mut l = Layer::zeros(1, 1, Activation::Sigmoid);
        l.weights_mut()[0] = 100.0;
        assert!(l.forward(&[1.0])[0] > 0.999);
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn wrong_input_width_panics() {
        identity_layer().forward(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_dim_panics() {
        let _ = Layer::zeros(0, 1, Activation::Linear);
    }

    #[test]
    fn lanes_match_the_per_sample_pass_bit_for_bit() {
        for activation in [
            Activation::Linear,
            Activation::Sigmoid,
            Activation::SigmoidSymmetric,
            Activation::Relu,
        ] {
            let mut l = Layer::zeros(5, 3, activation);
            for (k, w) in l.weights_mut().iter_mut().enumerate() {
                *w = (k as f32 * 0.37).sin() * 1.9;
            }
            let samples: Vec<Vec<f32>> = (0..8)
                .map(|s| (0..5).map(|i| ((s * 5 + i) as f32 * 0.91).cos()).collect())
                .collect();
            let lanes: Vec<f32> = (0..5)
                .flat_map(|i| samples.iter().map(move |x| x[i]))
                .collect();
            let mut out = vec![0.0; 3 * 8];
            l.forward_lanes::<8>(&lanes, &mut out);
            for (s, x) in samples.iter().enumerate() {
                let want = l.forward(x);
                for (o, w) in want.iter().enumerate() {
                    assert_eq!(out[o * 8 + s].to_bits(), w.to_bits(), "{activation:?}");
                }
            }
        }
    }

    #[test]
    fn row_access() {
        let l = identity_layer();
        assert_eq!(l.row(0), &[1.0, 0.0, 0.0]);
        assert_eq!(l.row(1), &[0.0, 1.0, 0.0]);
    }
}
