#ifndef SHADOOP_COMMON_THREAD_ANNOTATIONS_H_
#define SHADOOP_COMMON_THREAD_ANNOTATIONS_H_

#include <mutex>  // lint:allow(naked-mutex)

/// Clang thread-safety annotations (DESIGN.md §11).
///
/// Every mutex-bearing class in src/ declares its lock as shadoop::Mutex,
/// marks the state it protects with SHADOOP_GUARDED_BY(mu_), and locks
/// through shadoop::MutexLock. Under Clang with -Wthread-safety (the
/// SPATIAL_THREAD_SAFETY CMake option, enforced by the CI lint job) any
/// unguarded access to protected state is a compile error; under other
/// compilers the macros expand to nothing and the wrappers cost exactly a
/// std::mutex / std::unique_lock.
///
/// The determinism lint (tools/lint) bans naked std::mutex members
/// outside this header so new locks cannot dodge the analysis.

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define SHADOOP_THREAD_ANNOTATION__(x) __attribute__((x))
#endif
#endif
#ifndef SHADOOP_THREAD_ANNOTATION__
#define SHADOOP_THREAD_ANNOTATION__(x)  // Not Clang: annotations vanish.
#endif

/// A type that is a lockable capability ("mutex", "role", ...).
#define SHADOOP_CAPABILITY(x) SHADOOP_THREAD_ANNOTATION__(capability(x))

/// An RAII type that acquires a capability in its constructor and
/// releases it in its destructor.
#define SHADOOP_SCOPED_CAPABILITY SHADOOP_THREAD_ANNOTATION__(scoped_lockable)

/// Data member readable/writable only while holding the given capability.
#define SHADOOP_GUARDED_BY(x) SHADOOP_THREAD_ANNOTATION__(guarded_by(x))

/// Pointer member whose *pointee* is protected by the given capability.
#define SHADOOP_PT_GUARDED_BY(x) SHADOOP_THREAD_ANNOTATION__(pt_guarded_by(x))

/// Function that may only be called while holding the capabilities.
#define SHADOOP_REQUIRES(...) \
  SHADOOP_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))

/// Function that may only be called while NOT holding the capabilities
/// (it acquires them itself; calling with them held would deadlock).
#define SHADOOP_EXCLUDES(...) \
  SHADOOP_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

/// Function that acquires the capability and returns with it held.
#define SHADOOP_ACQUIRE(...) \
  SHADOOP_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))

/// Function that releases the capability.
#define SHADOOP_RELEASE(...) \
  SHADOOP_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))

/// Return value annotation: the returned reference is protected by the
/// given capability.
#define SHADOOP_GUARDED_RETURN(x) \
  SHADOOP_THREAD_ANNOTATION__(lock_returned(x))

/// Escape hatch for code the analysis cannot model. Every use should
/// carry a comment saying why.
#define SHADOOP_NO_THREAD_SAFETY_ANALYSIS \
  SHADOOP_THREAD_ANNOTATION__(no_thread_safety_analysis)

namespace shadoop {

/// std::mutex wrapped as an annotated capability so Clang's analysis can
/// check lock discipline. `native()` exposes the raw mutex for
/// std::condition_variable::wait — the one operation the analysis cannot
/// model (wait releases and reacquires the lock behind its back); callers
/// keep the capability held across the wait, which is exactly how the
/// analysis documents condition variables.
class SHADOOP_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  std::mutex& native() { return mu_; }  // lint:allow(naked-mutex)

 private:
  std::mutex mu_;  // lint:allow(naked-mutex)
};

/// RAII lock over Mutex, analysis-visible (std::lock_guard is not).
/// Holds a std::unique_lock internally so condition variables can wait on
/// `native()` while the capability stays held for the analysis.
class SHADOOP_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) SHADOOP_ACQUIRE(mu) : lock_(mu->native()) {}
  ~MutexLock() SHADOOP_RELEASE() {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// The underlying lock, for std::condition_variable::wait only.
  std::unique_lock<std::mutex>& native() { return lock_; }  // lint:allow(naked-mutex)

 private:
  std::unique_lock<std::mutex> lock_;  // lint:allow(naked-mutex)
};

}  // namespace shadoop

#endif  // SHADOOP_COMMON_THREAD_ANNOTATIONS_H_
