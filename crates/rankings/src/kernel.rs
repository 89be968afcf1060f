//! Distance-kernel selection for the position-compare hot loops.
//!
//! The Footrule validation loop is the single hottest instruction
//! sequence in the workspace: every candidate surfacing from an inverted
//! index is scored by walking its `k` items against the query's flat
//! position map. Two interchangeable kernels implement that walk:
//!
//! * [`Kernel::Scalar`] — the straight-line reference loop (one branch
//!   per item on query membership). This is the oracle every other
//!   kernel is differentially tested against.
//! * [`Kernel::Simd`] — a chunked, branchless formulation designed for
//!   auto-vectorization: item ranks are gathered into a small stack
//!   buffer with the artificial rank `l = k` standing in for missing
//!   items (the Fagin et al. convention already used by the distance
//!   itself), so the per-item contribution collapses to one unified
//!   arithmetic expression with no data-dependent branch. On top of the
//!   chunked walk it carries a **suffix-bound early exit**: after `p`
//!   processed items the remaining `k − p` items can lower the running
//!   total by at most `T(k − p) = (k−p)(k−p+1)/2`, so the moment
//!   `partial − T(k − p)` exceeds the query threshold the candidate is
//!   provably outside θ and the walk aborts.
//!
//! Both kernels are exact: for any candidate within θ they return the
//! identical distance, and the early exit only ever fires on candidates
//! whose final distance is certainly above θ. Result sets are therefore
//! bit-identical across kernels — the property
//! `crates/rankings/tests` and the invindex differential suites pin down
//! on adversarial lengths and alignments.

use std::fmt;
use std::str::FromStr;

/// How many candidate items one gather/arith block of the chunked kernel
/// covers. Small on purpose: rankings are short (`k ≈ 10` in the paper's
/// workloads), and the suffix-bound exit is checked at chunk boundaries —
/// a coarser chunk would process most of a hopeless candidate before the
/// first check.
pub const KERNEL_CHUNK: usize = 4;

/// Selects the position-compare kernel used by distance-dominated loops.
///
/// Selection is a runtime value (engine-level configuration, `repro
/// --kernel`) so the two implementations can be A/B-measured in one
/// binary without rebuilding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Kernel {
    /// Reference per-item loop; branch on query membership per item.
    Scalar,
    /// Chunked branchless (auto-vectorization-friendly) loop with the
    /// suffix-bound early exit.
    #[default]
    Simd,
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Kernel::Scalar => "scalar",
            Kernel::Simd => "simd",
        })
    }
}

/// Error for unknown kernel names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseKernelError(pub String);

impl fmt::Display for ParseKernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown kernel '{}' (expected scalar|simd)", self.0)
    }
}

impl std::error::Error for ParseKernelError {}

impl FromStr for Kernel {
    type Err = ParseKernelError;

    /// Case-insensitive; surrounding whitespace ignored.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Ok(Kernel::Scalar),
            "simd" => Ok(Kernel::Simd),
            _ => Err(ParseKernelError(s.trim().to_string())),
        }
    }
}

impl Kernel {
    /// Stable persistence tag (`0` = scalar, `1` = simd).
    #[doc(hidden)]
    pub fn to_tag(self) -> u32 {
        match self {
            Kernel::Scalar => 0,
            Kernel::Simd => 1,
        }
    }

    /// Inverse of [`Kernel::to_tag`].
    #[doc(hidden)]
    pub fn from_tag(tag: u32) -> Result<Self, String> {
        match tag {
            0 => Ok(Kernel::Scalar),
            1 => Ok(Kernel::Simd),
            _ => Err(format!("unknown kernel tag {tag}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_both_kernels_case_insensitively() {
        assert_eq!("scalar".parse::<Kernel>().unwrap(), Kernel::Scalar);
        assert_eq!(" SIMD ".parse::<Kernel>().unwrap(), Kernel::Simd);
        assert_eq!("Scalar".parse::<Kernel>().unwrap(), Kernel::Scalar);
    }

    #[test]
    fn rejects_unknown_names() {
        let err = "avx512".parse::<Kernel>().unwrap_err();
        assert!(err.to_string().contains("avx512"));
        assert!("".parse::<Kernel>().is_err());
    }

    #[test]
    fn tags_round_trip() {
        for k in [Kernel::Scalar, Kernel::Simd] {
            assert_eq!(Kernel::from_tag(k.to_tag()).unwrap(), k);
        }
        assert!(Kernel::from_tag(9).is_err());
    }

    #[test]
    fn default_is_the_fast_kernel() {
        assert_eq!(Kernel::default(), Kernel::Simd);
        assert_eq!(Kernel::Simd.to_string(), "simd");
        assert_eq!(Kernel::Scalar.to_string(), "scalar");
    }
}
