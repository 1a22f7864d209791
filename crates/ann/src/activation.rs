//! Neuron activation functions (the FANN subset used by HMDs).

/// An activation function applied to a neuron's weighted sum.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Activation {
    /// Identity: `f(x) = x`.
    Linear,
    /// Logistic sigmoid: `f(x) = 1 / (1 + e^(−x))`, output in `(0, 1)`.
    /// FANN's `FANN_SIGMOID`; the output activation of the paper's HMD,
    /// whose score distribution Figure 2(b) plots.
    #[default]
    Sigmoid,
    /// Symmetric sigmoid `f(x) = tanh(x)`, output in `(−1, 1)`.
    /// FANN's `FANN_SIGMOID_SYMMETRIC`.
    SigmoidSymmetric,
    /// Rectified linear unit: `f(x) = max(0, x)`.
    Relu,
}

impl Activation {
    /// Applies the activation.
    #[inline]
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Linear => x,
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::SigmoidSymmetric => x.tanh(),
            Activation::Relu => x.max(0.0),
        }
    }

    /// The derivative expressed in terms of the activation *output* `y`
    /// (how FANN computes it during backpropagation).
    #[inline]
    pub fn derivative_from_output(self, y: f64) -> f64 {
        match self {
            Activation::Linear => 1.0,
            // Clamp away from 0 like FANN does to keep training moving when
            // neurons saturate.
            Activation::Sigmoid => (y * (1.0 - y)).max(0.01),
            Activation::SigmoidSymmetric => (1.0 - y * y).max(0.01),
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// The output range `(lo, hi)` of the activation, unbounded sides as
    /// infinities.
    pub fn output_range(self) -> (f64, f64) {
        match self {
            Activation::Linear => (f64::NEG_INFINITY, f64::INFINITY),
            Activation::Sigmoid => (0.0, 1.0),
            Activation::SigmoidSymmetric => (-1.0, 1.0),
            Activation::Relu => (0.0, f64::INFINITY),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sigmoid_fixed_points() {
        assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-12);
        assert!(Activation::Sigmoid.apply(10.0) > 0.9999);
        assert!(Activation::Sigmoid.apply(-10.0) < 0.0001);
    }

    #[test]
    fn symmetric_sigmoid_is_tanh() {
        for x in [-2.0, -0.5, 0.0, 0.5, 2.0] {
            assert!((Activation::SigmoidSymmetric.apply(x) - f64::tanh(x)).abs() < 1e-12);
        }
    }

    #[test]
    fn relu_clips_negatives() {
        assert_eq!(Activation::Relu.apply(-3.0), 0.0);
        assert_eq!(Activation::Relu.apply(3.0), 3.0);
    }

    #[test]
    fn linear_is_identity() {
        assert_eq!(Activation::Linear.apply(4.2), 4.2);
        assert_eq!(Activation::Linear.derivative_from_output(4.2), 1.0);
    }

    #[test]
    fn sigmoid_derivative_peaks_at_half() {
        let d_half = Activation::Sigmoid.derivative_from_output(0.5);
        assert!((d_half - 0.25).abs() < 1e-12);
        assert!(Activation::Sigmoid.derivative_from_output(0.99) < d_half);
    }

    proptest! {
        #[test]
        fn outputs_stay_in_range(x in -50.0f64..50.0) {
            for act in [Activation::Linear, Activation::Sigmoid,
                        Activation::SigmoidSymmetric, Activation::Relu] {
                let y = act.apply(x);
                let (lo, hi) = act.output_range();
                prop_assert!(y >= lo && y <= hi);
            }
        }

        #[test]
        fn sigmoid_is_monotone(a in -20.0f64..20.0, b in -20.0f64..20.0) {
            prop_assume!(a < b);
            prop_assert!(Activation::Sigmoid.apply(a) < Activation::Sigmoid.apply(b));
        }
    }
}
