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
        assert_eq!(input.len(), self.in_dim, "input width mismatch");
        assert_eq!(out.len(), self.out_dim, "output width mismatch");
        for (o, y) in out.iter_mut().enumerate() {
            let row = self.row(o);
            let mut sum = f64::from(row[self.in_dim]); // bias
            for (w, x) in row[..self.in_dim].iter().zip(input) {
                sum += f64::from(*w) * f64::from(*x);
            }
            *y = self.activation.apply(sum) as f32;
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
    fn row_access() {
        let l = identity_layer();
        assert_eq!(l.row(0), &[1.0, 0.0, 0.0]);
        assert_eq!(l.row(1), &[0.0, 1.0, 0.0]);
    }
}
