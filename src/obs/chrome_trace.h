#ifndef TDR_OBS_CHROME_TRACE_H_
#define TDR_OBS_CHROME_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "txn/trace.h"
#include "util/sim_time.h"

namespace tdr::obs {

/// Converts a protocol TraceEvent stream plus fault-injector events
/// into Chrome trace-event JSON, loadable in Perfetto
/// (https://ui.perfetto.dev) or chrome://tracing.
///
/// Track layout:
///  * one process ("node N") per cluster node, simulated micros as ts;
///  * user transactions as complete (`X`) slices on their origin node,
///    from kTxnStart to commit/abort, args carrying outcome and detail;
///  * replica-update transactions as `X` slices on the applying node;
///  * lock waits/grants, op applies, stale/conflict decisions as
///    instant (`i`) events on the node where they happened;
///  * flow events (`s`/`t`/`f`, id = origin txn) linking a committed
///    transaction at its origin to every replica application of its
///    updates — the paper's Figure 1/4 pipelines, drawn as arrows;
///  * fault-injector actions (crash, restart, partition, heal, chaos)
///    as global instants on a dedicated "faults" process.
///
/// Attach as the executor's (and appliers') TraceSink, feed faults via
/// OnFault, then ToJson()/WriteFile() once the run is over. Events are
/// buffered raw and converted at serialization time, when slice ends
/// and flow targets are known; output is sorted by (time, arrival), so
/// per-track timestamps are monotone. The writer is a pure function of
/// the event stream — deterministic runs produce byte-identical traces.
class ChromeTraceWriter : public TraceSink {
 public:
  // TraceSink:
  void OnEvent(const TraceEvent& event) override { events_.push_back(event); }

  /// Records one fault-injector action (the FaultInjector observer
  /// hook feeds this). `description` is the human-readable entry, e.g.
  /// "partition \"wedge\" (1 nodes split off)".
  void OnFault(SimTime time, std::string_view description) {
    faults_.emplace_back(time, std::string(description));
  }

  std::size_t event_count() const {
    return events_.size() + faults_.size();
  }

  /// The full trace document: {"traceEvents": [...], ...}.
  Json ToJsonValue() const;
  std::string ToJson() const { return ToJsonValue().Dump(); }

  /// Writes ToJson() to `path`; false on I/O failure.
  bool WriteFile(const std::string& path) const;

 private:
  std::vector<TraceEvent> events_;
  std::vector<std::pair<SimTime, std::string>> faults_;
};

}  // namespace tdr::obs

#endif  // TDR_OBS_CHROME_TRACE_H_
