// semperm/common/thread_annotations.hpp
//
// Clang thread-safety capability annotations (DESIGN.md §14). These wrap
// Clang's `-Wthread-safety` attribute spellings so concurrent subsystems
// can state their locking contracts in the type system:
//
//   * GUARDED_BY(mu)  on a data member: reads/writes require `mu` held;
//   * REQUIRES(mu)    on a function: callers must hold `mu` (this is the
//     compile-time form of the `*_locked()` naming convention);
//   * ACQUIRE/RELEASE on lock primitives and scope guards;
//   * SCOPED_CAPABILITY on RAII guard types (common/mutex.hpp).
//
// Under Clang the annotations are enforced at compile time (`-Wthread-safety`
// is enabled for all Clang builds by the top-level CMakeLists, and -Werror
// promotes violations to build failures in CI's static-analysis job). Under
// GCC and MSVC every macro expands to nothing, so annotated code stays
// portable and the annotations cost nothing.
//
// The standard-library mutex types carry no capability attributes under
// libstdc++, so annotated code must use the wrappers in common/mutex.hpp
// (semperm::Mutex / SpinLock / MutexLock / UniqueLock / CondVar) — thin,
// zero-overhead shims over the std primitives that exist solely to carry
// these attributes.
#pragma once

#if defined(__clang__) && !defined(SEMPERM_NO_THREAD_SAFETY_ANALYSIS)
#define SEMPERM_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define SEMPERM_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

/// Marks a type as a lockable capability ("mutex" shows in diagnostics).
#define CAPABILITY(x) SEMPERM_THREAD_ANNOTATION(capability(x))

/// Marks an RAII type whose constructor acquires and destructor releases.
#define SCOPED_CAPABILITY SEMPERM_THREAD_ANNOTATION(scoped_lockable)

/// Data member: accessible only with the given capability held.
#define GUARDED_BY(x) SEMPERM_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member: the *pointee* requires the capability held.
#define PT_GUARDED_BY(x) SEMPERM_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function: callers must hold the capability (not acquired here).
#define REQUIRES(...) \
  SEMPERM_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function: callers must NOT hold the capability (deadlock prevention).
#define EXCLUDES(...) SEMPERM_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function acquires the capability (held on return).
#define ACQUIRE(...) \
  SEMPERM_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the capability (no longer held on return).
#define RELEASE(...) \
  SEMPERM_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function tries to acquire; returns `b` on success.
#define TRY_ACQUIRE(b, ...) \
  SEMPERM_THREAD_ANNOTATION(try_acquire_capability(b, __VA_ARGS__))

/// Function returns a reference to the given capability.
#define RETURN_CAPABILITY(x) SEMPERM_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch for functions whose locking is correct but inexpressible
/// (e.g. the UniqueLock shim's internals). Use with a justifying comment.
#define NO_THREAD_SAFETY_ANALYSIS \
  SEMPERM_THREAD_ANNOTATION(no_thread_safety_analysis)
