// Clang thread-safety annotations plus annotated lock types.
//
// The analysis (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html) turns
// the locking discipline into a compile-time contract: fields carry
// LIGHTNE_GUARDED_BY(mu), functions that expect a held lock carry
// LIGHTNE_REQUIRES(mu), and any access that the compiler cannot prove is
// protected is a build error under -Wthread-safety -Werror=thread-safety
// (CMake option LIGHTNE_THREAD_SAFETY_ANALYSIS, on by default with Clang).
// Under GCC every macro expands to nothing and the wrappers compile down to
// the std primitives they hold.
//
// Repo rule (machine-enforced by tools/lint/lightne_lint.py, rule
// `rawmutex`): this header is the only place allowed to name
// std::mutex/std::shared_mutex/std::condition_variable. Everything else
// uses the annotated Mutex/SharedMutex/CondVar wrappers below so that no
// lock can be added to the codebase outside the analysis.
#ifndef LIGHTNE_UTIL_THREAD_ANNOTATIONS_H_
#define LIGHTNE_UTIL_THREAD_ANNOTATIONS_H_

#include <condition_variable>  // the one allowed raw-primitive site
#include <mutex>               // the one allowed raw-primitive site
#include <shared_mutex>        // the one allowed raw-primitive site
#include <utility>

#if defined(__clang__)
#define LIGHTNE_THREAD_ANNOTATION_ATTRIBUTE(x) __attribute__((x))
#else
#define LIGHTNE_THREAD_ANNOTATION_ATTRIBUTE(x)
#endif

/// Marks a class as a lockable capability ("mutex", "shared_mutex", ...).
#define LIGHTNE_CAPABILITY(x) \
  LIGHTNE_THREAD_ANNOTATION_ATTRIBUTE(capability(x))

/// Marks an RAII class that acquires in its ctor and releases in its dtor.
#define LIGHTNE_SCOPED_CAPABILITY \
  LIGHTNE_THREAD_ANNOTATION_ATTRIBUTE(scoped_lockable)

/// Field may only be accessed while `x` is held.
#define LIGHTNE_GUARDED_BY(x) LIGHTNE_THREAD_ANNOTATION_ATTRIBUTE(guarded_by(x))

/// Pointer field: the pointed-to data may only be accessed while `x` is held.
#define LIGHTNE_PT_GUARDED_BY(x) \
  LIGHTNE_THREAD_ANNOTATION_ATTRIBUTE(pt_guarded_by(x))

/// Caller must hold the capability exclusively when calling.
#define LIGHTNE_REQUIRES(...) \
  LIGHTNE_THREAD_ANNOTATION_ATTRIBUTE(requires_capability(__VA_ARGS__))

/// Caller must hold the capability (shared is enough) when calling.
#define LIGHTNE_REQUIRES_SHARED(...) \
  LIGHTNE_THREAD_ANNOTATION_ATTRIBUTE(requires_shared_capability(__VA_ARGS__))

/// Function acquires the capability exclusively and does not release it.
#define LIGHTNE_ACQUIRE(...) \
  LIGHTNE_THREAD_ANNOTATION_ATTRIBUTE(acquire_capability(__VA_ARGS__))

/// Function acquires the capability shared and does not release it.
#define LIGHTNE_ACQUIRE_SHARED(...) \
  LIGHTNE_THREAD_ANNOTATION_ATTRIBUTE(acquire_shared_capability(__VA_ARGS__))

/// Function releases the capability (exclusive or shared).
#define LIGHTNE_RELEASE(...) \
  LIGHTNE_THREAD_ANNOTATION_ATTRIBUTE(release_capability(__VA_ARGS__))

/// Function releases a shared hold of the capability.
#define LIGHTNE_RELEASE_SHARED(...) \
  LIGHTNE_THREAD_ANNOTATION_ATTRIBUTE(release_shared_capability(__VA_ARGS__))

/// Function acquires exclusively iff it returns `b`.
#define LIGHTNE_TRY_ACQUIRE(b, ...) \
  LIGHTNE_THREAD_ANNOTATION_ATTRIBUTE(try_acquire_capability(b, __VA_ARGS__))

/// Caller must NOT hold the capability (catches self-deadlock).
#define LIGHTNE_EXCLUDES(...) \
  LIGHTNE_THREAD_ANNOTATION_ATTRIBUTE(locks_excluded(__VA_ARGS__))

/// Function returns a reference to the capability guarding its result.
#define LIGHTNE_RETURN_CAPABILITY(x) \
  LIGHTNE_THREAD_ANNOTATION_ATTRIBUTE(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Every use must
/// carry a comment explaining why the discipline cannot be expressed.
#define LIGHTNE_NO_THREAD_SAFETY_ANALYSIS \
  LIGHTNE_THREAD_ANNOTATION_ATTRIBUTE(no_thread_safety_analysis)

namespace lightne {

class CondVar;

/// Annotated exclusive mutex. Same cost as std::mutex; adds the capability
/// annotations so fields can be LIGHTNE_GUARDED_BY(mu_) and functions
/// LIGHTNE_REQUIRES(mu_).
class LIGHTNE_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() LIGHTNE_ACQUIRE() { mu_.lock(); }
  void Unlock() LIGHTNE_RELEASE() { mu_.unlock(); }
  bool TryLock() LIGHTNE_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;  // wrapped here: the one allowed raw-mutex site
};

/// RAII exclusive lock on a Mutex (the annotated std::lock_guard).
class LIGHTNE_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) LIGHTNE_ACQUIRE(mu) : mu_(&mu) { mu_->Lock(); }
  ~MutexLock() LIGHTNE_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

/// Annotated reader/writer mutex over std::shared_mutex.
class LIGHTNE_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() LIGHTNE_ACQUIRE() { mu_.lock(); }
  void Unlock() LIGHTNE_RELEASE() { mu_.unlock(); }
  void LockShared() LIGHTNE_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void UnlockShared() LIGHTNE_RELEASE_SHARED() { mu_.unlock_shared(); }

 private:
  std::shared_mutex mu_;  // wrapped here: the one allowed raw-mutex site
};

/// RAII exclusive (writer) lock on a SharedMutex.
class LIGHTNE_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) LIGHTNE_ACQUIRE(mu) : mu_(&mu) {
    mu_->Lock();
  }
  ~WriterMutexLock() LIGHTNE_RELEASE() { mu_->Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex* mu_;
};

/// RAII shared (reader) lock on a SharedMutex.
class LIGHTNE_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) LIGHTNE_ACQUIRE_SHARED(mu)
      : mu_(&mu) {
    mu_->LockShared();
  }
  ~ReaderMutexLock() LIGHTNE_RELEASE() { mu_->UnlockShared(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex* mu_;
};

/// Condition variable paired with the annotated Mutex. No predicate
/// overload on purpose: a predicate lambda is a separate function the
/// analysis cannot see into, so callers write the standard
///
///   MutexLock lock(mu_);
///   while (!condition) cv_.Wait(mu_);
///
/// loop, where the condition reads are visibly under the lock.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks, and re-acquires `mu` before
  /// returning. Caller must hold `mu` (spurious wakeups possible — loop).
  void Wait(Mutex& mu) LIGHTNE_REQUIRES(mu) {
    // Adopt the already-held native mutex for the wait protocol, then
    // release the unique_lock's ownership claim without unlocking: the
    // caller's MutexLock continues to own the (re-acquired) mutex.
    std::unique_lock<std::mutex> native(  // allowed raw-primitive site
        mu.mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;  // wrapped here: the one allowed raw site
};

}  // namespace lightne

#endif  // LIGHTNE_UTIL_THREAD_ANNOTATIONS_H_
