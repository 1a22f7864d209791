//! A FANN-style feed-forward neural-network library with a fault-injectable
//! inference datapath.
//!
//! The paper trains its HMD with the Fast Artificial Neural Network library
//! (FANN) and integrates a stochastic fault-injection tool into FANN's
//! inference path to emulate undervolting. This crate reproduces both
//! halves:
//!
//! - training runs in ordinary `f32` floating point with batch iRPROP−
//!   (FANN's default algorithm) — see [`train`];
//! - inference can additionally run over a quantised Q16.16 datapath
//!   ([`network::QuantizedNetwork`]) whose multiplication products are
//!   routed through a [`shmd_volt::fault::LaneCorruptor`], the hook the
//!   undervolting fault model plugs into. One kernel serves one query or a
//!   lane-major batch of them; each lane's corruptor skips whole fault-free
//!   runs, and the software-noise baseline ([`mac::NoisyMac`]) is a
//!   corruptor that sees every product.
//!
//! # Example
//!
//! ```
//! use shmd_ann::builder::NetworkBuilder;
//! use shmd_ann::train::{RpropTrainer, TrainData};
//! use shmd_volt::fault::ExactLanes;
//!
//! // Learn XOR.
//! let mut net = NetworkBuilder::new(2)
//!     .hidden(4)
//!     .output(1)
//!     .seed(5)
//!     .build()?;
//! let data = TrainData::new(
//!     vec![vec![0., 0.], vec![0., 1.], vec![1., 0.], vec![1., 1.]],
//!     vec![vec![0.], vec![1.], vec![1.], vec![0.]],
//! )?;
//! RpropTrainer::new().epochs(800).train(&mut net, &data);
//! assert!(net.forward(&[1.0, 0.0])[0] > 0.5);
//!
//! // The quantised path gives the same answer through an exact datapath.
//! let q = net.quantized();
//! assert!(q.infer(&[1.0, 0.0], &mut ExactLanes)[0] > 0.5);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activation;
pub mod builder;
pub mod io;
pub mod layer;
pub mod mac;
pub mod network;
pub mod train;

pub use activation::Activation;
pub use builder::{BuildNetworkError, NetworkBuilder};
pub use network::{Network, QuantizedNetwork};
