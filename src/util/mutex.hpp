// Capability-annotated synchronization wrappers.
//
// The standard library's lock types carry no thread-safety attributes, so
// Clang's analysis cannot reason about them.  These thin wrappers add the
// annotations (and nothing else): each holds exactly one std:: primitive,
// every method is a single forwarded call, and off Clang the attributes
// vanish so the wrappers compile to the std:: types they wrap.
//
// Two kinds of capability live here:
//
//   * Real locks — Mutex / SharedMutex with their scoped guards.  Use these
//     wherever a std::mutex / std::shared_mutex would go; the analysis then
//     enforces every EYEBALL_GUARDED_BY on data they protect.
//   * The phantom `Serial` capability — zero state, no-op acquire/release.
//     It encodes a ROLE ("the single writer", "the owning shard") rather
//     than a lock: data guarded by a Serial can only be touched from
//     functions that opened a SerialSection or are marked
//     EYEBALL_REQUIRES on it.  The compiler enforces the single-writer
//     discipline while the optimizer deletes the section entirely, so hot
//     paths (ingest, the service writer) pay nothing.
#pragma once

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "util/annotations.hpp"

namespace eyeball::util {

/// A std::mutex that the thread-safety analysis understands.
class EYEBALL_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() EYEBALL_ACQUIRE() { raw_.lock(); }
  void unlock() EYEBALL_RELEASE() { raw_.unlock(); }

  /// The wrapped primitive, for interop that needs the std:: type itself.
  [[nodiscard]] std::mutex& native() { return raw_; }

 private:
  std::mutex raw_;
};

/// A std::shared_mutex that the analysis understands: exclusive for
/// writers, shared for readers.
class EYEBALL_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() EYEBALL_ACQUIRE() { raw_.lock(); }
  void unlock() EYEBALL_RELEASE() { raw_.unlock(); }
  void lock_shared() EYEBALL_ACQUIRE_SHARED() { raw_.lock_shared(); }
  void unlock_shared() EYEBALL_RELEASE_SHARED() { raw_.unlock_shared(); }

 private:
  std::shared_mutex raw_;
};

/// Scoped exclusive lock over Mutex (the std::lock_guard shape).  Also
/// satisfies Cpp17BasicLockable, so it can be handed to
/// std::condition_variable_any::wait — the lock()/unlock() the wait
/// performs internally are re-entries the analysis cannot see, hence the
/// escape hatch on those two methods only.
class EYEBALL_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) EYEBALL_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~MutexLock() EYEBALL_RELEASE() { mutex_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  // BasicLockable for condition_variable_any.  From the analysis's point of
  // view the capability is held for the whole scope; the wait's transient
  // release/reacquire is invisible, which is exactly the contract a
  // condition wait gives the caller anyway (the predicate is rechecked
  // under the lock).
  void lock() EYEBALL_NO_THREAD_SAFETY_ANALYSIS { mutex_.lock(); }
  void unlock() EYEBALL_NO_THREAD_SAFETY_ANALYSIS { mutex_.unlock(); }

 private:
  Mutex& mutex_;
};

/// Scoped shared (reader) lock over SharedMutex.
class EYEBALL_SCOPED_CAPABILITY SharedReaderLock {
 public:
  explicit SharedReaderLock(SharedMutex& mutex) EYEBALL_ACQUIRE_SHARED(mutex)
      : mutex_(mutex) {
    mutex_.lock_shared();
  }
  ~SharedReaderLock() EYEBALL_RELEASE() { mutex_.unlock_shared(); }
  SharedReaderLock(const SharedReaderLock&) = delete;
  SharedReaderLock& operator=(const SharedReaderLock&) = delete;

 private:
  SharedMutex& mutex_;
};

/// Scoped exclusive (writer) lock over SharedMutex.
class EYEBALL_SCOPED_CAPABILITY SharedWriterLock {
 public:
  explicit SharedWriterLock(SharedMutex& mutex) EYEBALL_ACQUIRE(mutex)
      : mutex_(mutex) {
    mutex_.lock();
  }
  ~SharedWriterLock() EYEBALL_RELEASE() { mutex_.unlock(); }
  SharedWriterLock(const SharedWriterLock&) = delete;
  SharedWriterLock& operator=(const SharedWriterLock&) = delete;

 private:
  SharedMutex& mutex_;
};

/// A phantom capability: a role, not a lock.  Acquire/release are no-ops
/// that the optimizer deletes; the value is purely what the analysis
/// enforces — data marked EYEBALL_GUARDED_BY(serial) is only reachable
/// from code that holds the role via SerialSection or EYEBALL_REQUIRES.
///
/// This is how the tree encodes "externally synchronized": the builder's
/// ingest state and the service's writer path are guarded by a Serial, so
/// a refactor that reaches that state from an unmarked code path (say, a
/// reader-side query touching builder state) fails the
/// EYEBALL_THREAD_SAFETY build instead of becoming a data race.
class EYEBALL_CAPABILITY("role") Serial {
 public:
  Serial() = default;
  // Copy/move are allowed (unlike a real lock): a Serial carries no state,
  // and the copy is simply the new object's own role — this keeps types
  // that embed one (StreamingDatasetBuilder, EyeballService) as copyable
  // and movable as their other members allow.
  Serial(const Serial&) = default;
  Serial& operator=(const Serial&) = default;

  void acquire() EYEBALL_ACQUIRE() {}
  void release() EYEBALL_RELEASE() {}
};

/// Scoped claim of a Serial role.  Compiles to nothing; exists so the
/// analysis can see where the role is held.
class EYEBALL_SCOPED_CAPABILITY SerialSection {
 public:
  explicit SerialSection(Serial& serial) EYEBALL_ACQUIRE(serial)
      : serial_(serial) {
    serial_.acquire();
  }
  ~SerialSection() EYEBALL_RELEASE() { serial_.release(); }
  SerialSection(const SerialSection&) = delete;
  SerialSection& operator=(const SerialSection&) = delete;

 private:
  Serial& serial_;
};

}  // namespace eyeball::util
