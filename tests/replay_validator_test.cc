#include "txn/replay_validator.h"

#include <gtest/gtest.h>

#include <numeric>

#include "replication/cluster.h"
#include "replication/eager.h"
#include "replication/lazy_master.h"
#include "workload/workload.h"

namespace tdr {
namespace {

TEST(ReplayValidatorTest, EmptyMatchesZeroStore) {
  ReplayValidator validator;
  ObjectStore store(4);
  EXPECT_TRUE(validator.Matches(store));
  EXPECT_EQ(validator.recorded(), 0u);
}

TEST(ReplayValidatorTest, ReplaysInTimestampOrder) {
  ReplayValidator validator;
  // Recorded out of order: the write of 5 commits AFTER the write of 9,
  // so 5 must win the replay.
  validator.RecordCommit(Program({Op::Write(0, 5)}), Timestamp(2, 0));
  validator.RecordCommit(Program({Op::Write(0, 9)}), Timestamp(1, 1));
  auto state = validator.ReplaySerial();
  EXPECT_EQ(state[0].AsScalar(), 5);
}

TEST(ReplayValidatorTest, DetectsLostUpdate) {
  ReplayValidator validator;
  validator.RecordCommit(Program({Op::Add(1, 10)}), Timestamp(1, 0));
  validator.RecordCommit(Program({Op::Add(1, 10)}), Timestamp(2, 0));
  ObjectStore store(4);
  // A lost update: the store shows only one increment.
  ASSERT_TRUE(store.Put(1, Value(10), Timestamp(2, 0)).ok());
  EXPECT_FALSE(validator.Matches(store));
  EXPECT_EQ(validator.Divergence(store), (std::vector<ObjectId>{1}));
  // The correct state matches.
  ASSERT_TRUE(store.Put(1, Value(20), Timestamp(2, 0)).ok());
  EXPECT_TRUE(validator.Matches(store));
}

TEST(ReplayValidatorTest, LiveLazyMasterExecutionIsSerializable) {
  // End-to-end oracle: run a contended mixed workload under lazy-master,
  // record every committed master transaction, and check the master
  // state equals the serial replay in commit-timestamp order.
  Cluster::Options copts;
  copts.num_nodes = 3;
  copts.db_size = 24;  // heavy contention: plenty of waits/deadlocks
  copts.action_time = SimTime::Millis(3);
  copts.seed = 2024;
  Cluster cluster(copts);
  std::vector<NodeId> all = {0, 1, 2};
  Ownership own = Ownership::RoundRobin(24, all);
  LazyMasterScheme scheme(&cluster, &own);
  ReplayValidator validator;

  ProgramGenerator::Options gopts;
  gopts.db_size = 24;
  gopts.actions = 3;
  gopts.mix = OpMix::Mixed(0.5);  // half commutative, half blind writes
  ProgramGenerator gen(gopts);
  Rng rng = cluster.ForkRng();
  for (int i = 0; i < 120; ++i) {
    NodeId origin = static_cast<NodeId>(rng.UniformInt(3));
    Program program = gen.Next(rng);
    cluster.sim().ScheduleAt(
        SimTime::Millis(static_cast<std::int64_t>(rng.UniformInt(800))),
        [&scheme, &validator, origin, program]() {
          scheme.Submit(origin, program,
                        [&validator, program](const TxnResult& r) {
                          if (r.outcome == TxnOutcome::kCommitted) {
                            validator.RecordCommit(program, r.commit_ts);
                          }
                        });
        });
  }
  cluster.sim().Run();
  ASSERT_GT(validator.recorded(), 60u);
  // The master copies live at the owners: assemble the master view.
  ObjectStore master_view(24);
  for (ObjectId oid = 0; oid < 24; ++oid) {
    const StoredObject& obj =
        cluster.node(own.OwnerOf(oid))->store().GetUnchecked(oid);
    ASSERT_TRUE(master_view.Put(oid, obj.value(), obj.ts()).ok());
  }
  EXPECT_TRUE(validator.Matches(master_view))
      << "divergent objects: " << validator.Divergence(master_view).size();
  // And since the run quiesced, every replica agrees with the masters.
  EXPECT_TRUE(cluster.Converged());
}

TEST(ReplayValidatorTest, EagerGroupExecutionIsSerializable) {
  Cluster::Options copts;
  copts.num_nodes = 2;
  copts.db_size = 16;
  copts.action_time = SimTime::Millis(3);
  copts.seed = 77;
  Cluster cluster(copts);
  EagerGroupScheme scheme(&cluster);
  ReplayValidator validator;
  ProgramGenerator::Options gopts;
  gopts.db_size = 16;
  gopts.actions = 3;
  ProgramGenerator gen(gopts);
  Rng rng = cluster.ForkRng();
  for (int i = 0; i < 80; ++i) {
    NodeId origin = static_cast<NodeId>(rng.UniformInt(2));
    Program program = gen.Next(rng);
    cluster.sim().ScheduleAt(
        SimTime::Millis(static_cast<std::int64_t>(rng.UniformInt(500))),
        [&scheme, &validator, origin, program]() {
          scheme.Submit(origin, program,
                        [&validator, program](const TxnResult& r) {
                          if (r.outcome == TxnOutcome::kCommitted) {
                            validator.RecordCommit(program, r.commit_ts);
                          }
                        });
        });
  }
  cluster.sim().Run();
  ASSERT_GT(validator.recorded(), 20u);
  EXPECT_TRUE(validator.Matches(cluster.node(0)->store()));
  EXPECT_TRUE(validator.Matches(cluster.node(1)->store()));
}

TEST(ReplayValidatorTest, ClearForgetsHistory) {
  ReplayValidator validator;
  validator.RecordCommit(Program({Op::Write(0, 1)}), Timestamp(1, 0));
  validator.Clear();
  ObjectStore store(1);
  EXPECT_TRUE(validator.Matches(store));
}

}  // namespace
}  // namespace tdr
