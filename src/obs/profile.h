#ifndef TDR_OBS_PROFILE_H_
#define TDR_OBS_PROFILE_H_

#include <chrono>

#include "obs/metrics.h"

namespace tdr::obs {

/// RAII wall-clock timer for a real execution phase (today one driver
/// window): records the scope's elapsed WALL micros into a kProfile
/// stats metric at destruction.
///
/// Profile metrics measure the host, not the simulation, so they are
/// nondeterministic by nature; the registry keeps them out of
/// deterministic snapshots (see MetricKind::kProfile) and RunReport
/// emits them in a separate, explicitly nondeterministic section.
///
///   obs::ProfileScope scope(registry->GetProfile("profile.event_loop"));
///
/// Acquire the StatsHandle once (cold) and pass it by value. A default
/// (no-op) handle reads no clock, so the scope is free; a recording one
/// reads `steady_clock` twice (tens of ns each), which is why no scope
/// sits on a per-operation path.
class ProfileScope {
 public:
  explicit ProfileScope(MetricsRegistry::StatsHandle handle)
      : handle_(handle) {
    if (handle_.stats() != nullptr) {
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~ProfileScope() {
    if (handle_.stats() == nullptr) return;
    auto elapsed = std::chrono::steady_clock::now() - start_;
    handle_.Record(
        std::chrono::duration<double, std::micro>(elapsed).count());
  }

  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  MetricsRegistry::StatsHandle handle_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace tdr::obs

#endif  // TDR_OBS_PROFILE_H_
