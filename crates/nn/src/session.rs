// Justified exception to the workspace RefCell ban, for this module only:
// a session is bound to one tape on one thread for one pass (tapes are not
// Sync either), so single-threaded interior mutability is exactly right
// here. vital-lint pins the ban itself in ci/lint-rules.toml.
#![allow(clippy::disallowed_types)]

use std::cell::RefCell;

use autograd::{Tape, Var};
use tensor::rng::SeededRng;
use tensor::Tensor;

use crate::{Param, Result};

/// One forward/backward pass over a model.
///
/// A `Session` wraps an autograd [`Tape`] together with:
///
/// * the *training* flag (controls dropout),
/// * a seeded RNG for stochastic layers, and
/// * the list of [`Param`]s registered during the forward pass, so that
///   [`Session::backward`] can copy tape gradients back into the parameters
///   for the optimizer.
///
/// Build a fresh `Session` (and tape) for every batch.
///
/// `Session` (with the optimizers in [`crate::optim`]) is the
/// **training-session handle** of the thread-safe parameter design:
/// [`Session::param`] takes the lock-free `O(1)` weight snapshot every
/// reader uses, while [`Session::backward`] is the only place gradients
/// are deposited into a [`Param`]'s mutex-guarded training state.
/// Inference paths never construct anything but the tape + session pair on
/// their own thread, so serving takes no training locks.
pub struct Session<'t> {
    tape: &'t Tape,
    training: bool,
    rng: RefCell<SeededRng>,
    registered: RefCell<Vec<(Param, Var<'t>)>>,
}

impl<'t> Session<'t> {
    /// Creates a session over `tape`.
    ///
    /// `training` enables dropout; `seed` drives every stochastic layer in
    /// this pass (so a full epoch can be replayed deterministically).
    pub fn new(tape: &'t Tape, training: bool, seed: u64) -> Self {
        Session {
            tape,
            training,
            rng: RefCell::new(SeededRng::new(seed)),
            registered: RefCell::new(Vec::new()),
        }
    }

    /// The underlying tape.
    pub fn tape(&self) -> &'t Tape {
        self.tape
    }

    /// Whether dropout and other train-only behaviour is active.
    pub fn is_training(&self) -> bool {
        self.training
    }

    /// Registers a parameter on the tape and returns its variable handle.
    ///
    /// The parameter is remembered so its gradient is filled in by
    /// [`Session::backward`].
    pub fn param(&self, param: &Param) -> Var<'t> {
        let var = self.tape.var(param.value());
        self.registered.borrow_mut().push((param.clone(), var));
        var
    }

    /// Places a non-trainable tensor (input batch, target, mask) on the tape.
    pub fn constant(&self, value: Tensor) -> Var<'t> {
        self.tape.constant(value)
    }

    /// Inverted dropout: during training each element is zeroed with
    /// probability `rate` and survivors are rescaled by `1/(1-rate)`; during
    /// evaluation the input passes through unchanged.
    ///
    /// # Errors
    /// Propagates shape errors from the underlying mask multiplication.
    pub fn dropout(&self, x: Var<'t>, rate: f32) -> Result<Var<'t>> {
        if !self.training || rate <= 0.0 {
            return Ok(x);
        }
        let dims: Vec<usize> = x.value().shape().dims().to_vec();
        let mask = self.rng.borrow_mut().dropout_mask(&dims, rate);
        x.mul_mask(&mask)
    }

    /// Runs the backward pass from `loss` and copies every registered
    /// parameter's gradient out of the tape (accumulating into the params).
    ///
    /// # Errors
    /// Propagates tape errors (e.g. `loss` not being a scalar).
    pub fn backward(&self, loss: Var<'t>) -> Result<()> {
        self.tape.backward(loss)?;
        for (param, var) in self.registered.borrow().iter() {
            if let Ok(grad) = self.tape.grad(*var) {
                param.accumulate_grad(&grad);
            }
        }
        Ok(())
    }

    /// Number of parameters registered so far in this pass.
    pub fn registered_len(&self) -> usize {
        self.registered.borrow().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autograd::Tape;

    #[test]
    fn registers_params_and_collects_grads() {
        let p = Param::new("w", Tensor::from_vec(vec![2.0, 3.0], &[2]).unwrap());
        let tape = Tape::new();
        let session = Session::new(&tape, true, 0);
        let w = session.param(&p);
        let x = session.constant(Tensor::from_vec(vec![4.0, 5.0], &[2]).unwrap());
        let loss = w.mul(x).unwrap().sum_all().unwrap();
        session.backward(loss).unwrap();
        assert_eq!(session.registered_len(), 1);
        assert_eq!(p.grad().unwrap().as_slice(), &[4.0, 5.0]);
    }

    #[test]
    fn dropout_disabled_in_eval_mode() {
        let tape = Tape::new();
        let session = Session::new(&tape, false, 0);
        let x = session.constant(Tensor::ones(&[4, 4]));
        let y = session.dropout(x, 0.9).unwrap();
        assert_eq!(y.value(), Tensor::ones(&[4, 4]));
        assert!(!session.is_training());
    }

    #[test]
    fn dropout_zeroes_and_rescales_in_training() {
        let tape = Tape::new();
        let session = Session::new(&tape, true, 7);
        let x = session.constant(Tensor::ones(&[100, 10]));
        let y = session.dropout(x, 0.5).unwrap().value();
        let zeros = y.as_slice().iter().filter(|v| **v == 0.0).count();
        assert!(zeros > 300 && zeros < 700, "zeros = {zeros}");
        let kept = y.as_slice().iter().find(|v| **v != 0.0).unwrap();
        assert!((kept - 2.0).abs() < 1e-6);
    }

    #[test]
    fn dropout_with_zero_rate_is_identity() {
        let tape = Tape::new();
        let session = Session::new(&tape, true, 7);
        let x = session.constant(Tensor::ones(&[2, 2]));
        let y = session.dropout(x, 0.0).unwrap();
        assert_eq!(y.value(), Tensor::ones(&[2, 2]));
    }

    #[test]
    fn same_seed_same_dropout_mask() {
        let run = |seed: u64| {
            let tape = Tape::new();
            let session = Session::new(&tape, true, seed);
            let x = session.constant(Tensor::ones(&[10, 10]));
            session.dropout(x, 0.3).unwrap().value()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }
}
