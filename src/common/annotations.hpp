// Clang Thread Safety Analysis annotation macros.
//
// These expand to clang's capability attributes when the compiler
// supports them (the CI clang job builds with
// -Wthread-safety -Werror=thread-safety-analysis) and to nothing under
// gcc/msvc, so annotated code stays portable.  Use them through the
// wrappers in common/mutex.hpp rather than annotating raw std types:
// std::mutex cannot carry a capability attribute, which is also why
// adets-sa's raw-mutex rule bans it from scheduler decision state.
//
// Conventions (see docs/static-analysis.md):
//  - data members protected by a mutex:        ADETS_GUARDED_BY(mu_)
//  - functions that assume the mutex is held:  ADETS_REQUIRES(mu_)
//  - lock/unlock primitives:                   ADETS_ACQUIRE / ADETS_RELEASE
// Attributes are NOT inherited by virtual overrides -- every override of
// an ADETS_REQUIRES function must repeat the annotation.
#pragma once

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define ADETS_TSA(x) __attribute__((x))
#else
#define ADETS_TSA(x)
#endif
#else
#define ADETS_TSA(x)
#endif

/// Marks a class as a lockable capability ("mutex", "role", ...).
#define ADETS_CAPABILITY(name) ADETS_TSA(capability(name))

/// Marks an RAII class that acquires a capability in its constructor and
/// releases it in its destructor.
#define ADETS_SCOPED_CAPABILITY ADETS_TSA(scoped_lockable)

/// Data member readable/writable only while `x` is held.
#define ADETS_GUARDED_BY(x) ADETS_TSA(guarded_by(x))

/// Pointer member whose pointee is protected by `x`.
#define ADETS_PT_GUARDED_BY(x) ADETS_TSA(pt_guarded_by(x))

/// Compiler-invisible guard declaration, read only by the adets-sa
/// whole-program auditor (tools/adets-sa).  Use it where the guard is a
/// raw std::mutex that must stay invisible to clang's analysis -- e.g.
/// the model-checker runtime, whose locks cannot be common::Mutex
/// because that would recurse into the runtime's own mc hooks.
#define ADETS_GUARDED_BY_STATIC(x)

/// Function that must be called with the listed capabilities held.
#define ADETS_REQUIRES(...) ADETS_TSA(requires_capability(__VA_ARGS__))

/// Function that must be called with the capabilities held shared.
#define ADETS_REQUIRES_SHARED(...) \
  ADETS_TSA(requires_shared_capability(__VA_ARGS__))

/// Function that acquires the listed capabilities (exclusive).
#define ADETS_ACQUIRE(...) ADETS_TSA(acquire_capability(__VA_ARGS__))

/// Function that acquires the listed capabilities (shared).
#define ADETS_ACQUIRE_SHARED(...) ADETS_TSA(acquire_shared_capability(__VA_ARGS__))

/// Function that releases the listed capabilities.
#define ADETS_RELEASE(...) ADETS_TSA(release_capability(__VA_ARGS__))

/// Function that releases shared capabilities.
#define ADETS_RELEASE_SHARED(...) ADETS_TSA(release_shared_capability(__VA_ARGS__))

/// Function that must NOT be called with the listed capabilities held.
#define ADETS_EXCLUDES(...) ADETS_TSA(locks_excluded(__VA_ARGS__))

/// Function returning a reference to the named capability.
#define ADETS_RETURN_CAPABILITY(x) ADETS_TSA(lock_returned(x))

/// Escape hatch: disables the analysis for one function.  Every use
/// needs a comment explaining why the analysis cannot see the invariant.
#define ADETS_NO_THREAD_SAFETY_ANALYSIS ADETS_TSA(no_thread_safety_analysis)

// --- adets-sa effect contracts ----------------------------------------------
// The following macros expand to nothing for every compiler: they are
// read only by the whole-program auditor (tools/adets-sa), which checks
// them interprocedurally.

/// Function that may park the calling thread on the outside world:
/// condvar waits, queue pops, timer waits, network sends, user upcalls.
/// Root fact for the blocking-under-monitor pass, and the boundary at
/// which the grant-path audit stops (control re-enters the total
/// order).  Transitive blocking is inferred; annotate only irreducible
/// boundaries such as virtual interface methods.
#define ADETS_MAY_BLOCK

/// The dual of ADETS_MAY_BLOCK: asserts the function never parks the
/// calling thread even though it lexically appears to (e.g. joining
/// threads already observed finished).  Every use needs a comment
/// explaining why the blocking primitive cannot actually wait.
#define ADETS_NON_BLOCKING
