// Counting replacements for the global allocation functions.
//
// This TU is compiled into the `tdr_alloc_audit` static library and
// linked ONLY into allocation-audited targets (tests/alloc_audit_test,
// tests/runtime_task_pool_test and bench_hot_path). Linking it
// replaces the C++ runtime's operator new/delete for the whole binary
// ([replacement.functions]); every other target keeps the stock
// allocator and pays nothing.
//
// The hooks forward to malloc/free and bump the relaxed atomics in
// util/alloc_audit.h. They must not themselves use operator new.

#include <execinfo.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <new>

#include "util/alloc_audit.h"

namespace {

using tdr::alloc_internal::g_allocations;
using tdr::alloc_internal::g_bytes;
using tdr::alloc_internal::g_deallocations;
using tdr::alloc_internal::g_hooks_linked;
using tdr::alloc_internal::g_trace_budget;

// Backtrace dump for TraceNextAllocations(). backtrace() itself can
// allocate on its first call (lazy libgcc load), so a thread-local
// reentrancy guard keeps that from recursing into the trace path.
thread_local bool g_in_trace = false;

void MaybeTrace(std::size_t size) {
  if (g_trace_budget.load(std::memory_order_relaxed) <= 0 || g_in_trace) {
    return;
  }
  if (g_trace_budget.fetch_sub(1, std::memory_order_relaxed) <= 0) return;
  g_in_trace = true;
  void* frames[24];
  int depth = backtrace(frames, 24);
  std::fprintf(stderr, "[alloc-audit] operator new(%zu):\n", size);
  // backtrace_symbols_fd writes without calling malloc.
  backtrace_symbols_fd(frames, depth, STDERR_FILENO);
  std::fprintf(stderr, "[alloc-audit] ----\n");
  g_in_trace = false;
}

// Flipped at static-init so AllocAuditLinked() reports the truth even
// before main(). Ordering with other static initializers is irrelevant:
// the counters are valid (constant-initialized) from load time.
const bool g_mark_linked = [] {
  g_hooks_linked.store(true, std::memory_order_relaxed);
  return true;
}();

void* CountedAlloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  MaybeTrace(size);
  if (align > alignof(std::max_align_t)) {
    void* p = nullptr;
    // aligned_alloc requires size to be a multiple of alignment.
    std::size_t rounded = (size + align - 1) / align * align;
    p = std::aligned_alloc(align, rounded);
    return p;
  }
  return std::malloc(size);
}

void CountedFree(void* p) {
  if (p == nullptr) return;
  g_deallocations.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) {
  void* p = CountedAlloc(size, 0);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  void* p = CountedAlloc(size, 0);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size, 0);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size, 0);
}

void* operator new(std::size_t size, std::align_val_t align) {
  void* p = CountedAlloc(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  void* p = CountedAlloc(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete(void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  CountedFree(p);
}
