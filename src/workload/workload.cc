#include "workload/workload.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "storage/shard_map.h"
#include "util/logging.h"

namespace tdr {

namespace {

[[noreturn]] void FailOptions(const std::string& message) {
  std::fprintf(stderr, "%s\n", message.c_str());
  std::abort();
}

}  // namespace

ProgramGenerator::ProgramGenerator(Options options)
    : options_(std::move(options)) {
  // An empty database leaves nothing to sample (UniformInt(0) divides
  // by zero), and Floyd's sampler starts at db_size - actions, which
  // wraps when actions exceed db_size: every program comes out empty.
  if (options_.db_size == 0) {
    FailOptions("ProgramGenerator: db_size 0 is not positive");
  }
  if (options_.actions == 0) {
    FailOptions("ProgramGenerator: actions 0 is not positive");
  }
  if (options_.actions > options_.db_size) {
    FailOptions(StrPrintf("ProgramGenerator: actions %u exceed db_size %llu",
                          options_.actions,
                          (unsigned long long)options_.db_size));
  }
  double total = options_.mix.write + options_.mix.add +
                 options_.mix.subtract + options_.mix.append +
                 options_.mix.read;
  assert(total > 0);
  double cum = 0;
  auto push = [&](OpType t, double w) {
    if (w <= 0) return;
    cum += w / total;
    cdf_.emplace_back(t, cum);
  };
  push(OpType::kWrite, options_.mix.write);
  push(OpType::kAdd, options_.mix.add);
  push(OpType::kSubtract, options_.mix.subtract);
  push(OpType::kAppend, options_.mix.append);
  push(OpType::kRead, options_.mix.read);
  cdf_.back().second = 1.0;  // guard against rounding
  if (options_.zipf_theta > 0.0) {
    zipf_ = std::make_unique<ZipfianGenerator>(options_.db_size,
                                               options_.zipf_theta);
  }
  if (options_.skew_hot_shards > 0 && options_.skew_hot_fraction > 0.0) {
    assert(zipf_ == nullptr && "zipf_theta and shard skew are exclusive");
    ShardMap shards(options_.db_size, options_.skew_num_shards);
    // Shards are contiguous from id 0, so the hot region is a prefix.
    if (options_.skew_hot_shards < shards.num_shards()) {
      hot_span_ = shards.ShardBegin(options_.skew_hot_shards);
    }
    // hot_shards >= num_shards covers the whole key space: no skew.
  }
}

OpType ProgramGenerator::PickType(Rng& rng) {
  double u = rng.UniformDouble();
  for (const auto& [type, cum] : cdf_) {
    if (u <= cum) return type;
  }
  return cdf_.back().first;
}

ObjectId ProgramGenerator::PickObject(Rng& rng) {
  if (zipf_ != nullptr) return zipf_->Next(rng);
  if (hot_span_ > 0) {
    if (rng.Bernoulli(options_.skew_hot_fraction)) {
      return rng.UniformInt(hot_span_);
    }
    return hot_span_ + rng.UniformInt(options_.db_size - hot_span_);
  }
  return rng.UniformInt(options_.db_size);
}

Program ProgramGenerator::Next(Rng& rng) {
  Program prog;
  NextInto(rng, &prog);
  return prog;
}

void ProgramGenerator::NextInto(Rng& rng, Program* out) {
  out->Clear();
  if (zipf_ == nullptr && hot_span_ == 0) {
    // Uniform: sample without replacement.
    rng.SampleWithoutReplacementInto(options_.db_size, options_.actions,
                                     &sample_scratch_);
    for (std::uint64_t oid : sample_scratch_) {
      std::int64_t operand = rng.UniformRange(kOperandLo, kOperandHi);
      out->Add(Op{PickType(rng), oid, operand});
    }
    return;
  }
  // Skewed: rejection-sample distinctness.
  chosen_scratch_.clear();
  for (std::uint32_t i = 0; i < options_.actions; ++i) {
    ObjectId oid = PickObject(rng);
    if (std::find(chosen_scratch_.begin(), chosen_scratch_.end(), oid) !=
        chosen_scratch_.end()) {
      --i;
      continue;
    }
    chosen_scratch_.push_back(oid);
    std::int64_t operand = rng.UniformRange(kOperandLo, kOperandHi);
    out->Add(Op{PickType(rng), oid, operand});
  }
}

OpenLoopArrivals::OpenLoopArrivals(sim::Simulator* sim, Options options,
                                   Rng rng, ArrivalCallback on_arrival)
    : sim_(sim),
      options_(options),
      rng_(rng),
      on_arrival_(std::move(on_arrival)) {
  // A gap of zero or less clamps to Now(): arrivals would fire at one
  // instant forever. NaN fails both comparisons, so test the good range.
  if (!(options_.tps > 0 && std::isfinite(options_.tps))) {
    FailOptions(StrPrintf(
        "OpenLoopArrivals: tps %g is not positive and finite", options_.tps));
  }
}

OpenLoopArrivals::~OpenLoopArrivals() { Stop(); }

void OpenLoopArrivals::Start() {
  if (running_) return;
  running_ = true;
  ScheduleNext();
}

void OpenLoopArrivals::Stop() {
  running_ = false;
  if (pending_ != sim::kInvalidEventId) {
    sim_->Cancel(pending_);
    pending_ = sim::kInvalidEventId;
  }
}

void OpenLoopArrivals::ScheduleNext() {
  double gap_seconds = options_.poisson
                           ? rng_.Exponential(1.0 / options_.tps)
                           : 1.0 / options_.tps;
  pending_ = sim_->ScheduleAfterNode(
      options_.node_affinity, SimTime::Seconds(gap_seconds), [this]() {
        pending_ = sim::kInvalidEventId;
        if (!running_) return;
        ++arrivals_;
        on_arrival_();
        ScheduleNext();
      });
}

}  // namespace tdr
