// EYEBALL_DCHECK — the contract layer behind the determinism invariants.
//
// A DCHECK states a precondition or invariant that the surrounding code is
// entitled to assume (grid indices in range, trie prefixes canonical, shard
// chunks monotonically ordered, buckets in ascending ASN order).  Violations
// are programming errors, not input errors: input validation keeps throwing
// exceptions; DCHECK failures print the condition and abort.
//
// Cost model: DCHECKs are active in Debug builds and in every sanitized
// build (EYEBALL_SANITIZE != ""), and compile to nothing in optimized
// Release/RelWithDebInfo builds — the condition expression is not even
// evaluated, so a DCHECK may freely call O(n) helpers like std::is_sorted.
// `tools/check.sh` runs the full suite with sanitizers on, so every DCHECK
// is exercised by CI even though the fast build elides them.
#pragma once

#include <cstdio>
#include <cstdlib>

// CMake passes EYEBALL_DCHECK_ENABLED=1 for sanitized builds; otherwise the
// build type decides (Debug has no NDEBUG -> enabled).
#ifndef EYEBALL_DCHECK_ENABLED
#ifdef NDEBUG
#define EYEBALL_DCHECK_ENABLED 0
#else
#define EYEBALL_DCHECK_ENABLED 1
#endif
#endif

namespace eyeball::util {

/// True when EYEBALL_DCHECK expands to a real check in this build.  Tests
/// use this to assert death only in configurations where death can happen.
[[nodiscard]] constexpr bool dchecks_enabled() noexcept {
  return EYEBALL_DCHECK_ENABLED != 0;
}

namespace detail {

[[noreturn]] inline void dcheck_fail(const char* expr, const char* msg,
                                     const char* file, int line) noexcept {
  std::fprintf(stderr, "EYEBALL_DCHECK failed: (%s) — %s [%s:%d]\n", expr, msg,
               file, line);
  std::fflush(stderr);
  std::abort();
}

}  // namespace detail
}  // namespace eyeball::util

#if EYEBALL_DCHECK_ENABLED
#define EYEBALL_DCHECK(cond, msg)                                              \
  do {                                                                         \
    if (!(cond)) {                                                             \
      ::eyeball::util::detail::dcheck_fail(#cond, (msg), __FILE__, __LINE__);  \
    }                                                                          \
  } while (false)
#else
#define EYEBALL_DCHECK(cond, msg) static_cast<void>(0)
#endif
