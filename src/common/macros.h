// Common macros used across fpart.
#pragma once

#define FPART_DISALLOW_COPY_AND_ASSIGN(TypeName) \
  TypeName(const TypeName&) = delete;            \
  TypeName& operator=(const TypeName&) = delete

#define FPART_CONCAT_IMPL(x, y) x##y
#define FPART_CONCAT(x, y) FPART_CONCAT_IMPL(x, y)

/// Propagate a non-OK Status out of the current function.
#define FPART_RETURN_NOT_OK(expr)                 \
  do {                                            \
    ::fpart::Status _st = (expr);                 \
    if (!_st.ok()) return _st;                    \
  } while (false)

/// Evaluate a Result<T> expression; on error return the Status, otherwise
/// bind the value to `lhs`.
#define FPART_ASSIGN_OR_RETURN_IMPL(result_name, lhs, rexpr) \
  auto result_name = (rexpr);                                \
  if (!result_name.ok()) return result_name.status();        \
  lhs = std::move(result_name).ValueUnsafe()

#define FPART_ASSIGN_OR_RETURN(lhs, rexpr) \
  FPART_ASSIGN_OR_RETURN_IMPL(FPART_CONCAT(_fpart_result_, __COUNTER__), lhs, rexpr)

#if defined(__GNUC__) || defined(__clang__)
#define FPART_PREDICT_TRUE(x) (__builtin_expect(!!(x), 1))
#define FPART_PREDICT_FALSE(x) (__builtin_expect(!!(x), 0))
#define FPART_NOINLINE __attribute__((noinline))
#define FPART_FORCE_INLINE inline __attribute__((always_inline))
#else
#define FPART_PREDICT_TRUE(x) (x)
#define FPART_PREDICT_FALSE(x) (x)
#define FPART_NOINLINE
#define FPART_FORCE_INLINE inline
#endif

namespace fpart {

/// Cache-line size assumed throughout the system (the Xeon+FPGA platform's
/// QPI transfer granularity, Section 2.1 of the paper).
inline constexpr int kCacheLineSize = 64;

/// Software read-prefetch hint of the join build/probe loops. A no-op on
/// compilers without __builtin_prefetch.
inline void PrefetchForRead(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, 0, 3);
#else
  (void)p;
#endif
}

}  // namespace fpart
