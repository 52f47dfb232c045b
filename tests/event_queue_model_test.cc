// Model check of the simulator's event queue (DESIGN.md §8.2): the
// timing wheel and its overflow heap must fire exactly as one ordered
// set of (when, seq) would. Seeded random schedule, cancel and RunUntil
// scripts run against a reference std::map, and the wheel's edge cases
// run by name against the same reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "util/rng.h"

namespace tdr::sim {
namespace {

constexpr std::int64_t kBucketUs = std::int64_t{1} << Simulator::kBucketBits;
constexpr std::int64_t kBuckets = Simulator::kBuckets;
constexpr std::int64_t kSpanUs = kBucketUs * kBuckets;
constexpr int kFirstChildLabel = 1'000'000;

/// What an event does when it fires: log its label, then optionally
/// schedule a one-shot child `child_delay` ahead (negative: clamped),
/// then, for a series, re-arm `interval` ahead.
struct Spec {
  std::int64_t interval = 0;
  std::optional<std::int64_t> child_delay;
};

struct Fired {
  int label;
  std::int64_t at;
  friend bool operator==(const Fired&, const Fired&) = default;
};

/// Runs one script on a Simulator and on the reference side by side.
/// The reference is a std::map keyed by (when, seq), where seq counts
/// what the simulator's sequence counter counts: every schedule, the
/// series handle RepeatEvery takes, and every re-arm.
class QueueCheck {
 public:
  using Key = std::pair<std::int64_t, std::uint64_t>;

  /// ScheduleAt, absolute time in µs.
  void At(int label, std::int64_t when, Spec spec = {}) {
    ids_[label] = sim_.ScheduleAt(SimTime::Micros(when), Fn(label, spec));
    if (when < now_) {
      ++clamped_;
      when = now_;
    }
    Insert(label, when, spec);
  }

  /// ScheduleAfter, delay in µs.
  void After(int label, std::int64_t delay, Spec spec = {}) {
    ids_[label] = sim_.ScheduleAfter(SimTime::Micros(delay), Fn(label, spec));
    if (delay < 0) {
      ++clamped_;
      delay = 0;
    }
    Insert(label, now_ + delay, spec);
  }

  /// RepeatEvery, interval in µs.
  void Every(int label, std::int64_t interval,
             std::optional<std::int64_t> child_delay = std::nullopt) {
    Spec spec{interval, child_delay};
    ids_[label] = sim_.RepeatEvery(SimTime::Micros(interval), Fn(label, spec));
    ++seq_;  // the series handle
    Insert(label, now_ + interval, spec);
  }

  void Cancel(int label) {
    bool sim_result = false;
    if (auto it = ids_.find(label); it != ids_.end()) {
      sim_result = sim_.Cancel(it->second);
    }
    bool ref_result = false;
    if (auto it = live_.find(label); it != live_.end()) {
      queue_.erase(it->second);
      live_.erase(it);
      ref_result = true;
    }
    EXPECT_EQ(sim_result, ref_result) << "cancel of " << label;
  }

  /// Runs both sides to `horizon` and compares everything observable.
  void RunUntil(std::int64_t horizon) {
    const std::uint64_t sim_ran = sim_.RunUntil(SimTime::Micros(horizon));
    std::uint64_t ref_ran = 0;
    while (!queue_.empty() && queue_.begin()->first.first <= horizon) {
      FireReference();
      ++ref_ran;
    }
    now_ = std::max(now_, horizon);
    EXPECT_EQ(sim_ran, ref_ran);
    Compare();
  }

  std::vector<int> Labels() const {
    std::vector<int> out;
    for (const Fired& f : sim_log_) out.push_back(f.label);
    return out;
  }
  std::int64_t now() const { return now_; }
  std::size_t live() const { return live_.size(); }
  std::vector<int> live_labels() const {
    std::vector<int> out;
    for (const auto& [label, key] : live_) out.push_back(label);
    return out;
  }

 private:
  Callback Fn(int label, Spec spec) {
    return [this, label, spec] { OnSimFire(label, spec); };
  }

  void OnSimFire(int label, const Spec& spec) {
    sim_log_.push_back(Fired{label, sim_.Now().micros()});
    if (spec.child_delay) {
      const int child = sim_next_child_++;
      ids_[child] = sim_.ScheduleAfter(SimTime::Micros(*spec.child_delay),
                                       Fn(child, Spec{}));
    }
  }

  void Insert(int label, std::int64_t when, const Spec& spec) {
    const Key key{when, ++seq_};
    queue_[key] = std::make_pair(label, spec);
    live_[label] = key;
  }

  void FireReference() {
    const auto it = queue_.begin();
    const auto [label, spec] = it->second;
    now_ = it->first.first;
    queue_.erase(it);
    ref_log_.push_back(Fired{label, now_});
    if (spec.interval == 0) live_.erase(label);
    if (spec.child_delay) {
      const int child = ref_next_child_++;
      std::int64_t delay = *spec.child_delay;
      if (delay < 0) {
        ++clamped_;
        delay = 0;
      }
      Insert(child, now_ + delay, Spec{});
    }
    if (spec.interval != 0) Insert(label, now_ + spec.interval, spec);
  }

  /// Compares the fires since the last call, then the counts.
  void Compare() {
    ASSERT_EQ(sim_log_.size(), ref_log_.size());
    for (std::size_t i = compared_; i < sim_log_.size(); ++i) {
      ASSERT_EQ(sim_log_[i], ref_log_[i])
          << "fire " << i << ": label " << sim_log_[i].label << " at "
          << sim_log_[i].at << " us, reference label " << ref_log_[i].label
          << " at " << ref_log_[i].at << " us";
    }
    compared_ = sim_log_.size();
    EXPECT_EQ(sim_.Now().micros(), now_);
    EXPECT_EQ(sim_.PendingEvents(), live_.size());
    EXPECT_EQ(sim_.executed_events(), ref_log_.size());
    EXPECT_EQ(sim_.clamped_schedules(), clamped_);
  }

  Simulator sim_;
  std::map<int, EventId> ids_;
  std::vector<Fired> sim_log_;
  int sim_next_child_ = kFirstChildLabel;

  std::map<Key, std::pair<int, Spec>> queue_;
  std::map<int, Key> live_;
  std::vector<Fired> ref_log_;
  std::size_t compared_ = 0;
  int ref_next_child_ = kFirstChildLabel;
  std::int64_t now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t clamped_ = 0;
};

TEST(EventQueueModelTest, LaterScheduledEarlierTimeInSameBucket) {
  QueueCheck q;
  q.At(1, 100);  // bucket [64, 128)
  q.At(2, 120);
  q.At(3, 70);   // scheduled last, due first
  q.At(4, 100);  // ties keep schedule order
  q.RunUntil(1000);
  EXPECT_EQ(q.Labels(), (std::vector<int>{3, 1, 4, 2}));
}

TEST(EventQueueModelTest, ZeroDelayLandsAheadOfLaterEntriesOfTheCursorBucket) {
  QueueCheck q;
  q.At(1, 110);
  q.At(2, 120);
  q.At(3, 100, Spec{0, 0});  // at 100 µs its child is due at once
  q.RunUntil(105);           // Now() mid-bucket, 110 and 120 still queued
  q.After(4, 0);
  q.RunUntil(1000);
  EXPECT_EQ(q.Labels(), (std::vector<int>{3, kFirstChildLabel, 4, 1, 2}));
}

TEST(EventQueueModelTest, BucketDistancesAtTheSpanEdge) {
  QueueCheck q;
  q.RunUntil(1000);  // Now() in bucket 15, mid-bucket
  const std::int64_t cursor = 1000 / kBucketUs;
  // Scheduled far first: kBuckets shares Now()'s bucket index, so only
  // the overflow heap can hold it without firing it a span early.
  q.At(1, (cursor + kBuckets) * kBucketUs);
  q.At(2, (cursor + kBuckets - 1) * kBucketUs);
  q.At(3, (cursor + kBuckets - 2) * kBucketUs);
  q.At(4, 1001);
  q.At(5, (cursor + kBuckets) * kBucketUs - 1);  // last µs of the span
  q.RunUntil(cursor * kBucketUs + 2 * kSpanUs);
  EXPECT_EQ(q.Labels(), (std::vector<int>{4, 3, 2, 5, 1}));
}

TEST(EventQueueModelTest, OverflowEntryAndLaterWheelEntryAtTheSameWhen) {
  QueueCheck q;
  const std::int64_t when = 100'000;  // beyond the span at Now() = 0
  q.At(1, when);
  q.RunUntil(50'000);
  q.At(2, when);  // now within the span: the wheel
  q.At(3, when - 1);
  q.RunUntil(200'000);
  EXPECT_EQ(q.Labels(), (std::vector<int>{3, 1, 2}));
}

TEST(EventQueueModelTest, LongOutOfOrderBurstInOneBucket) {
  // Times descending within one bucket: each of the first 32 inserts is
  // due before every entry already there. Past the bucket walk's limit
  // such an insert goes to the overflow heap, and the order must hold
  // across the two.
  QueueCheck q;
  for (int i = 0; i < 40; ++i) q.At(i, 6400 + 63 - i % 32);
  q.At(100, 6400 + 63);  // ties with 0 and 32, scheduled after them
  q.RunUntil(10'000);
  const std::vector<int> fired = q.Labels();
  ASSERT_EQ(fired.size(), 41u);
  EXPECT_EQ(fired.front(), 31);
  EXPECT_EQ(std::vector<int>(fired.end() - 3, fired.end()),
            (std::vector<int>{0, 32, 100}));
}

TEST(EventQueueModelTest, HorizonsMidBucketAndPastTheSpanWithNothingDue) {
  QueueCheck q;
  q.At(1, 60'000);      // in the wheel, a bucket near the span's end
  q.At(2, 3'000'000);   // in the heap
  q.RunUntil(30'017);   // mid-bucket, nothing due
  q.After(3, 40'000);   // wraps past the end of the wheel's array
  q.After(4, 0);
  q.RunUntil(30'017);
  q.RunUntil(1'000'000);  // fires 1 and 3
  q.RunUntil(2'500'017);  // more than a span on with nothing due
  q.After(5, 10);
  q.At(6, 2'500'027);
  q.RunUntil(5'000'000);
  EXPECT_EQ(q.Labels(), (std::vector<int>{4, 1, 3, 5, 6, 2}));
}

TEST(EventQueueModelTest, CancelsInTheWheelAndInTheHeap) {
  QueueCheck q;
  for (int i = 0; i < 6; ++i) q.At(i, 200 + i);        // one bucket
  q.At(10, 5000);                                       // alone in its bucket
  for (int i = 0; i < 4; ++i) q.At(20 + i, 1'000'000);  // the heap
  q.Cancel(0);   // the bucket's head
  q.Cancel(5);   // its tail
  q.Cancel(2);   // the middle
  q.Cancel(10);  // a bucket's only entry
  q.Cancel(21);
  q.Cancel(21);  // twice: the second is a no-op
  q.Cancel(99);  // never scheduled
  q.RunUntil(300);
  q.At(30, 5000);  // the emptied bucket is usable again
  q.RunUntil(2'000'000);
  EXPECT_EQ(q.Labels(), (std::vector<int>{1, 3, 4, 30, 20, 22, 23}));
  q.Cancel(1);  // fired: no longer cancellable
}

TEST(EventQueueModelTest, RepeatSeries) {
  QueueCheck q;
  q.Every(1, 100);             // in the wheel
  q.Every(2, kSpanUs);         // exactly a span: always the heap
  q.Every(3, 3 * kSpanUs, 0);  // far, with a zero-delay child each tick
  q.At(4, 1000);
  q.RunUntil(400'000);
  q.Cancel(1);
  q.Cancel(3);
  q.RunUntil(800'000);
  q.Cancel(2);
  q.RunUntil(1'000'000);
  EXPECT_EQ(q.live(), 0u);
}

TEST(EventQueueModelTest, PastTimeClamps) {
  QueueCheck q;
  q.At(1, 130);
  q.At(2, 100, Spec{0, -50});  // its child clamps to 100 µs
  q.RunUntil(110);
  q.At(3, 5);  // clamps to 110 µs, ahead of 130
  q.After(4, -7);
  q.RunUntil(1000);
  EXPECT_EQ(q.Labels(), (std::vector<int>{2, kFirstChildLabel, 3, 4, 1}));
}

/// A delay drawn to land near the wheel's edges: bucket boundaries, the
/// span, the cursor's own bucket, the heap, and the past.
std::int64_t Delay(Rng& rng) {
  switch (rng.UniformInt(8)) {
    case 0:
      return 0;
    case 1:
      return rng.UniformRange(1, 4 * kBucketUs);
    case 2: {
      const std::int64_t k = rng.UniformRange(0, kBuckets + 1);
      return std::max<std::int64_t>(0, k * kBucketUs + rng.UniformRange(-2, 2));
    }
    case 3:
      return kSpanUs + rng.UniformRange(-2 * kBucketUs, 2 * kBucketUs);
    case 4:
      return rng.UniformRange(0, kSpanUs);
    case 5:
      return rng.UniformRange(kSpanUs, 20 * kSpanUs);
    case 6:
      return rng.UniformRange(0, 200);
    default:
      return -rng.UniformRange(1, 200);
  }
}

class EventQueueRandomTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(EventQueueRandomTest, FireOrderMatchesReference) {
  Rng rng(GetParam());
  QueueCheck q;
  int next_label = 0;
  std::vector<int> labels;
  std::vector<int> series;
  for (int step = 0; step < 3000; ++step) {
    const std::uint64_t op = rng.UniformInt(100);
    if (op < 40) {
      const int label = next_label++;
      labels.push_back(label);
      Spec spec;
      if (rng.Bernoulli(0.2)) spec.child_delay = Delay(rng);
      if (rng.Bernoulli(0.5)) {
        q.At(label, q.now() + Delay(rng), spec);
      } else {
        q.After(label, Delay(rng), spec);
      }
    } else if (op < 42) {
      const int label = next_label++;
      labels.push_back(label);
      series.push_back(label);
      // Mostly slow series, so a script fires a bounded number of ticks.
      const std::int64_t interval =
          rng.Bernoulli(0.25)
              ? rng.UniformRange(kBucketUs / 2, 4 * kBucketUs)
              : rng.UniformRange(kBucketUs, 3 * kSpanUs);
      std::optional<std::int64_t> child;
      if (rng.Bernoulli(0.3)) child = Delay(rng);
      q.Every(label, interval, child);
    } else if (op < 45) {
      // A burst of out-of-order times in one bucket.
      const std::int64_t base =
          (q.now() / kBucketUs + rng.UniformRange(0, 3)) * kBucketUs;
      const int n = static_cast<int>(rng.UniformRange(2, 24));
      for (int i = 0; i < n; ++i) {
        const int label = next_label++;
        labels.push_back(label);
        q.At(label, base + rng.UniformRange(0, kBucketUs - 1));
      }
    } else if (op < 65) {
      const std::vector<int> live = q.live_labels();
      if (!live.empty() && rng.Bernoulli(0.8)) {
        q.Cancel(live[rng.UniformInt(live.size())]);
      } else if (!labels.empty()) {
        q.Cancel(labels[rng.UniformInt(labels.size())]);  // maybe dead
      }
    } else {
      const std::int64_t advance = rng.Bernoulli(0.95)
                                       ? rng.UniformRange(0, 3 * kBucketUs)
                                       : rng.UniformRange(0, 3 * kSpanUs);
      q.RunUntil(q.now() + advance);
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  for (int label : series) q.Cancel(label);
  q.RunUntil(q.now() + 30 * kSpanUs);
  EXPECT_EQ(q.live(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueRandomTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace tdr::sim
