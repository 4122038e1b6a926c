//! The one runtime SIMD dispatch of the native search.
//!
//! [`active_kernel`] reads CPUID (and the `KNN_SIMD` variable) once per
//! process. Every dispatched hot loop matches on its answer: the
//! distance row kernels in `knn::simd`, the threshold scan of
//! [`TopK::push`](crate::TopK::push) and the final sort of
//! [`TopK::finish`](crate::TopK::finish). A host therefore runs one
//! instruction set end to end, and `KNN_SIMD=scalar` forces the
//! portable code in every layer at once.

/// One of the instruction sets the dispatched loops have a body for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// AVX-512 (`avx512f` + `avx512dq` on top of `avx2` + `fma`): the
    /// four-query distance fill, the mask-compare top-k scan and the
    /// bitonic sorting network of the final sort.
    Avx512,
    /// AVX2 with FMA: the one- and two-query distance fill; the top-k
    /// scan and sort take the portable code.
    Avx2,
    /// Portable code only.
    Scalar8,
}

impl Kernel {
    /// Stable name reported by the CLI and recorded in
    /// `BENCH_native.json` (`simd_dispatch`).
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Avx512 => "avx512",
            Kernel::Avx2 => "avx2+fma",
            Kernel::Scalar8 => "scalar8",
        }
    }
}

/// Whether the host CPU supports the AVX2 kernels: both the `avx2` and
/// the `fma` CPUID flags. `fma` is gated on so LLVM may schedule for
/// FMA-class ports, but the distance kernels never fuse (see
/// `knn::simd`).
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether the host CPU supports the AVX-512 kernels: `avx512f`, and
/// `avx512dq` for the distance fill's 256-bit broadcast and extract
/// and the scan's sign-bit mask, on top of the AVX2 kernels' flags,
/// whose bodies the distance fill shares.
pub fn avx512_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        avx2_available()
            && std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The kernel every dispatched loop in this process uses, decided once:
/// `KNN_SIMD=scalar` forces [`Kernel::Scalar8`], otherwise the CPUID
/// probe picks the widest supported instruction set.
pub fn active_kernel() -> Kernel {
    static ACTIVE: std::sync::OnceLock<Kernel> = std::sync::OnceLock::new();
    *ACTIVE.get_or_init(|| {
        let forced_scalar =
            std::env::var_os("KNN_SIMD").is_some_and(|v| v == "scalar" || v == "scalar8");
        if forced_scalar {
            Kernel::Scalar8
        } else if avx512_available() {
            Kernel::Avx512
        } else if avx2_available() {
            Kernel::Avx2
        } else {
            Kernel::Scalar8
        }
    })
}
