//! In-tree stand-in for `rand_distr`: just the [`Weibull`] distribution
//! (used by the trace generator's deployment inter-arrival model) and a
//! re-export of the shim `rand`'s [`Distribution`] trait.

#![forbid(unsafe_code)]

use rand::{Rng, RngCore};

pub use rand::distributions::Distribution;

/// Construction error for invalid distribution parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Scale was not strictly positive and finite.
    ScaleInvalid,
    /// Shape was not strictly positive and finite.
    ShapeInvalid,
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::ScaleInvalid => write!(f, "Weibull scale must be positive and finite"),
            Error::ShapeInvalid => write!(f, "Weibull shape must be positive and finite"),
        }
    }
}

impl std::error::Error for Error {}

/// The Weibull distribution, `scale * (-ln U)^(1/shape)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weibull {
    scale: f64,
    inv_shape: f64,
}

impl Weibull {
    /// Builds the distribution, validating both parameters.
    pub fn new(scale: f64, shape: f64) -> Result<Self, Error> {
        if !(scale > 0.0 && scale.is_finite()) {
            return Err(Error::ScaleInvalid);
        }
        if !(shape > 0.0 && shape.is_finite()) {
            return Err(Error::ShapeInvalid);
        }
        Ok(Weibull { scale, inv_shape: 1.0 / shape })
    }
}

impl Distribution<f64> for Weibull {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        // Inverse CDF: F^-1(u) = scale * (-ln(1-u))^(1/shape); 1-u and u
        // are identically distributed, and clamping away from 0 avoids
        // ln(0) = -inf on the (measure-zero) draw u = 0.
        let u: f64 = rng.gen::<f64>().max(1e-300);
        self.scale * (-u.ln()).powf(self.inv_shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_parameters() {
        assert!(Weibull::new(0.0, 1.0).is_err());
        assert!(Weibull::new(1.0, -2.0).is_err());
        assert!(Weibull::new(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn shape_one_matches_exponential_mean() {
        // Weibull(scale, 1) is Exponential(1/scale): mean == scale.
        let w = Weibull::new(3.0, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| w.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean was {mean}");
    }
}
