// Compile-fail contract probe for the thread-safety annotation layer
// (src/util/annotations.hpp + src/util/mutex.hpp).  Driven by the
// EYEBALL_THREAD_SAFETY block in the top-level CMakeLists, which builds
// this file twice under Clang with -Werror=thread-safety-analysis:
//
//   * without EYEBALL_COMPILE_FAIL_UNLOCKED: the guarded helper is called
//     under a MutexLock — MUST compile (proves scoped acquisition is seen);
//   * with    EYEBALL_COMPILE_FAIL_UNLOCKED: the same helper is called
//     bare — MUST NOT compile (proves EYEBALL_REQUIRES reaches the
//     compiler as a capability attribute instead of expanding to nothing).
//
// The phantom Serial role gets the same two-sided treatment, since half
// the tree's contracts (builder, service writer path) ride on it.
//
// Not part of any normal build target; a plain GCC compile of this file is
// also valid (the macros are no-ops there), which CMake never exercises.

#include "util/annotations.hpp"
#include "util/mutex.hpp"

namespace {

struct GuardedCounter {
  eyeball::util::Mutex mutex;
  int value EYEBALL_GUARDED_BY(mutex) = 0;

  void bump_locked() EYEBALL_REQUIRES(mutex) { ++value; }
};

struct RoleOwnedCounter {
  eyeball::util::Serial owner;
  int value EYEBALL_GUARDED_BY(owner) = 0;

  void bump_owned() EYEBALL_REQUIRES(owner) { ++value; }
};

}  // namespace

int main() {
  GuardedCounter guarded;
  RoleOwnedCounter owned;
  int total = 0;
#if defined(EYEBALL_COMPILE_FAIL_UNLOCKED)
  // Neither capability is held here: under -Werror=thread-safety-analysis
  // both calls must be rejected.
  guarded.bump_locked();
  owned.bump_owned();
#else
  {
    const eyeball::util::MutexLock lock{guarded.mutex};
    guarded.bump_locked();
    total += guarded.value;  // guarded read, also under the lock
  }
  {
    const eyeball::util::SerialSection section{owned.owner};
    owned.bump_owned();
    total += owned.value;
  }
#endif
  return total == 2 ? 0 : 1;
}
