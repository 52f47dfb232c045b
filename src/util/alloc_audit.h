#ifndef TDR_UTIL_ALLOC_AUDIT_H_
#define TDR_UTIL_ALLOC_AUDIT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace tdr {

/// Heap-allocation audit counters.
///
/// The counters live in tdr_util (always linked, always zero-cost to
/// read), but they only ever move when the *hook* translation unit —
/// util/alloc_audit_hooks.cc, packaged as the `tdr_alloc_audit` static
/// library — is linked into the final binary. That TU replaces the
/// global `operator new` / `operator delete` with counting versions, so
/// only audit-aware targets (tests/alloc_audit_test,
/// tests/runtime_task_pool_test and bench_hot_path) pay for the hook;
/// everything else keeps the stock allocator.
///
/// Counting is process-wide and thread-safe (relaxed atomics). Audited
/// measurement windows are expected to be single-threaded simulation
/// runs, so attribution is unambiguous there.
struct AllocStats {
  std::uint64_t allocations = 0;    // operator new calls
  std::uint64_t deallocations = 0;  // operator delete calls
  std::uint64_t bytes = 0;          // total bytes requested
};

namespace alloc_internal {
extern std::atomic<std::uint64_t> g_allocations;
extern std::atomic<std::uint64_t> g_deallocations;
extern std::atomic<std::uint64_t> g_bytes;
extern std::atomic<std::int64_t> g_trace_budget;
extern std::atomic<bool> g_hooks_linked;
}  // namespace alloc_internal

/// Debugging aid: dump a backtrace to stderr for each of the next
/// `count` operator-new calls (then go quiet again). No-op unless the
/// hook library is linked. Point an offending bench at this, pipe
/// stderr through addr2line, and the residual allocation sites fall
/// out — the localization half of the audit harness.
inline void TraceNextAllocations(std::int64_t count) {
  alloc_internal::g_trace_budget.store(count, std::memory_order_relaxed);
}

/// True when the counting operator new/delete replacement is linked
/// into this binary (i.e. the target links tdr_alloc_audit). When
/// false, AllocSnapshot() is frozen at zero and audit assertions are
/// vacuous — callers should skip rather than "pass".
inline bool AllocAuditLinked() {
  return alloc_internal::g_hooks_linked.load(std::memory_order_relaxed);
}

/// Current process-wide counter values.
inline AllocStats AllocSnapshot() {
  AllocStats s;
  s.allocations =
      alloc_internal::g_allocations.load(std::memory_order_relaxed);
  s.deallocations =
      alloc_internal::g_deallocations.load(std::memory_order_relaxed);
  s.bytes = alloc_internal::g_bytes.load(std::memory_order_relaxed);
  return s;
}

/// Measurement window: counts allocations since construction.
///
///   AllocScope scope;
///   ... hot path ...
///   EXPECT_EQ(scope.allocations(), 0u);
class AllocScope {
 public:
  AllocScope() : start_(AllocSnapshot()) {}

  std::uint64_t allocations() const {
    return AllocSnapshot().allocations - start_.allocations;
  }
  std::uint64_t deallocations() const {
    return AllocSnapshot().deallocations - start_.deallocations;
  }
  std::uint64_t bytes() const { return AllocSnapshot().bytes - start_.bytes; }

 private:
  AllocStats start_;
};

}  // namespace tdr

#endif  // TDR_UTIL_ALLOC_AUDIT_H_
