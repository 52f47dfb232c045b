#include "obs/chrome_trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

namespace tdr::obs {

namespace {

// The faults track needs a pid no node can collide with; NodeId is
// 32-bit so this is out of range by construction.
constexpr std::int64_t kFaultPid = static_cast<std::int64_t>(1) << 40;

struct Entry {
  std::int64_t ts = 0;    // micros
  std::size_t seq = 0;    // arrival order, the tie-breaker
  Json json;
};

Json MakeEvent(const char* ph, std::string_view name, std::int64_t ts,
               std::int64_t pid, std::int64_t tid) {
  Json e = Json::Object();
  e.Set("name", name);
  e.Set("ph", ph);
  e.Set("ts", ts);
  e.Set("pid", pid);
  e.Set("tid", tid);
  return e;
}

const char* OutcomeName(TraceEventType type) {
  switch (type) {
    case TraceEventType::kTxnCommit:
      return "commit";
    case TraceEventType::kTxnAbort:
      return "abort";
    case TraceEventType::kReplicaTxnDone:
      return "done";
    default:
      return "unfinished";
  }
}

}  // namespace

Json ChromeTraceWriter::ToJsonValue() const {
  // Pass 1: index transaction lifetimes and flow targets. A slice is a
  // (start, end) pair keyed by TxnId — ids are globally unique, so one
  // map covers user and replica transactions alike.
  std::map<TxnId, const TraceEvent*> starts;
  std::map<TxnId, const TraceEvent*> ends;
  // Origin txn -> its replica-update transactions, in arrival order
  // (arrival order is simulated-time order: the executor emits events
  // as the simulator executes them).
  std::map<TxnId, std::vector<const TraceEvent*>> applies_by_root;
  std::set<std::int64_t> pids;
  std::int64_t last_ts = 0;

  for (const TraceEvent& e : events_) {
    pids.insert(static_cast<std::int64_t>(e.node));
    last_ts = std::max(last_ts, e.time.micros());
    switch (e.type) {
      case TraceEventType::kTxnStart:
      case TraceEventType::kReplicaTxnStart:
        starts.emplace(e.txn, &e);
        if (e.type == TraceEventType::kReplicaTxnStart &&
            e.root != kInvalidTxnId) {
          applies_by_root[e.root].push_back(&e);
        }
        break;
      case TraceEventType::kTxnCommit:
      case TraceEventType::kTxnAbort:
      case TraceEventType::kReplicaTxnDone:
        ends.emplace(e.txn, &e);
        break;
      default:
        break;
    }
  }
  for (const auto& [time, desc] : faults_) {
    (void)desc;
    last_ts = std::max(last_ts, time.micros());
  }

  // Pass 2: emit entries.
  std::vector<Entry> entries;
  entries.reserve(events_.size() + faults_.size());
  std::size_t seq = 0;

  auto add = [&](std::int64_t ts, Json json) {
    entries.push_back(Entry{ts, seq++, std::move(json)});
  };

  for (const TraceEvent& e : events_) {
    const auto pid = static_cast<std::int64_t>(e.node);
    const auto tid = static_cast<std::int64_t>(e.txn);
    switch (e.type) {
      case TraceEventType::kTxnStart:
      case TraceEventType::kReplicaTxnStart: {
        // Slices are emitted as complete (`X`) events at their START
        // time — concurrent transactions on one node would make B/E
        // pairs nest incorrectly, but each txn has its own tid so X
        // slices land on their own row.
        const TraceEvent* end = nullptr;
        if (auto it = ends.find(e.txn); it != ends.end()) end = it->second;
        const std::int64_t start_ts = e.time.micros();
        const std::int64_t end_ts = end != nullptr ? end->time.micros()
                                                   : last_ts;
        char name[48];
        std::snprintf(name, sizeof(name), "%s %llu",
                      e.type == TraceEventType::kTxnStart ? "txn"
                                                          : "replica-txn",
                      static_cast<unsigned long long>(e.txn));
        Json slice = MakeEvent("X", name, start_ts, pid, tid);
        slice.Set("dur", end_ts - start_ts);
        Json args = Json::Object();
        args.Set("outcome",
                 OutcomeName(end != nullptr ? end->type : e.type));
        if (!e.detail.empty()) args.Set("detail", e.detail);
        if (end != nullptr && !end->detail.empty()) {
          args.Set("end_detail", end->detail);
        }
        if (e.root != kInvalidTxnId) {
          args.Set("origin_txn", static_cast<std::uint64_t>(e.root));
        }
        slice.Set("args", std::move(args));
        add(start_ts, std::move(slice));
        break;
      }
      case TraceEventType::kTxnCommit: {
        // Flow origin: one arrow fans out from this commit to every
        // replica application of its updates.
        auto it = applies_by_root.find(e.txn);
        if (it == applies_by_root.end()) break;
        Json flow = MakeEvent("s", "replicate", e.time.micros(), pid, tid);
        flow.Set("id", static_cast<std::uint64_t>(e.txn));
        add(e.time.micros(), std::move(flow));
        break;
      }
      case TraceEventType::kTxnAbort:
      case TraceEventType::kReplicaTxnDone:
        // Slice end; already folded into the X event.
        break;
      default: {
        Json inst = MakeEvent("i", TraceEventTypeToString(e.type),
                              e.time.micros(), pid, tid);
        inst.Set("s", "t");
        if (!e.detail.empty() || e.oid != 0) {
          Json args = Json::Object();
          args.Set("oid", static_cast<std::uint64_t>(e.oid));
          if (!e.detail.empty()) args.Set("detail", e.detail);
          inst.Set("args", std::move(args));
        }
        add(e.time.micros(), std::move(inst));
        break;
      }
    }
  }

  // Flow steps/ends: bind each replica-update slice back to its origin
  // commit. The last application terminates the flow ("f" with
  // bp:"e"); intermediate ones are steps ("t").
  for (const auto& [root, applies] : applies_by_root) {
    for (std::size_t i = 0; i < applies.size(); ++i) {
      const TraceEvent& e = *applies[i];
      const bool final_step = i + 1 == applies.size();
      Json flow = MakeEvent(final_step ? "f" : "t", "replicate",
                            e.time.micros(),
                            static_cast<std::int64_t>(e.node),
                            static_cast<std::int64_t>(e.txn));
      flow.Set("id", static_cast<std::uint64_t>(root));
      if (final_step) flow.Set("bp", "e");
      add(e.time.micros(), std::move(flow));
    }
  }

  for (const auto& [time, desc] : faults_) {
    Json inst = MakeEvent("i", desc, time.micros(), kFaultPid, 0);
    inst.Set("s", "g");
    add(time.micros(), std::move(inst));
  }

  // Monotone per-track timestamps: sort globally by (ts, arrival).
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) {
                     if (a.ts != b.ts) return a.ts < b.ts;
                     return a.seq < b.seq;
                   });

  Json trace_events = Json::Array();
  // Metadata first: name the node tracks and the faults track.
  for (std::int64_t pid : pids) {
    Json meta = MakeEvent("M", "process_name", 0, pid, 0);
    char name[32];
    std::snprintf(name, sizeof(name), "node %lld",
                  static_cast<long long>(pid));
    meta.Set("args", Json::Object().Set("name", name));
    trace_events.Push(std::move(meta));
  }
  if (!faults_.empty()) {
    Json meta = MakeEvent("M", "process_name", 0, kFaultPid, 0);
    meta.Set("args", Json::Object().Set("name", "faults"));
    trace_events.Push(std::move(meta));
  }
  for (Entry& entry : entries) {
    trace_events.Push(std::move(entry.json));
  }

  Json doc = Json::Object();
  doc.Set("traceEvents", std::move(trace_events));
  doc.Set("displayTimeUnit", "ms");
  return doc;
}

bool ChromeTraceWriter::WriteFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string body = ToJsonValue().Dump(1);
  const bool ok =
      std::fwrite(body.data(), 1, body.size(), f) == body.size() &&
      std::fputc('\n', f) != EOF;
  return std::fclose(f) == 0 && ok;
}

}  // namespace tdr::obs
