// Unit tests of the benchmark's own logic: the percentile and sample-floor
// rule, self-time subtraction over spans, the answer oracle, and the
// process CPU time behind the end-to-end metrics.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "children.h"
#include "core/cube.h"
#include "core/stellar.h"
#include "datagen/synthetic.h"
#include "oracle.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

TEST(SampleFloor, P99NeedsTenSamplesBeyondIt) {
  EXPECT_FALSE(MeetsSampleFloor(999, 99));
  EXPECT_TRUE(MeetsSampleFloor(1000, 99));
  EXPECT_EQ(SamplesNeededFor(99), 1000u);
  EXPECT_EQ(SamplesNeededFor(50), 20u);
  EXPECT_FALSE(MeetsSampleFloor(19, 50));
}

TEST(SampleFloor, PercentileRefusesTooFewSamples) {
  Samples samples;
  for (int i = 1; i <= 999; ++i) samples.Add(i);
  EXPECT_LT(samples.Percentile(99), 0);
  samples.Add(1000);
  // Nearest rank: the 990th smallest of 1..1000.
  EXPECT_EQ(samples.Percentile(99), 990);
  EXPECT_EQ(samples.Percentile(50), 500);
}

TEST(SampleFloor, NearestRankAndMedian) {
  const std::vector<double> sorted = {1, 2, 3, 4};
  EXPECT_EQ(NearestRank(sorted, 50), 2);
  EXPECT_EQ(NearestRank(sorted, 100), 4);
  EXPECT_EQ(NearestRank(sorted, 1), 1);
  EXPECT_EQ(Median({4, 1, 3}), 3);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
}

TEST(ProcessCpu, CountsTheSpinningThreads) {
  const double before = ProcessCpuSeconds("self");
  auto spin = [] {
    const auto start = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() - start <
           std::chrono::milliseconds(30)) {
    }
  };
  std::thread other(spin);
  spin();
  other.join();
  // Both threads spun for 30 ms; the joined thread's time may be gone.
  const double used = ProcessCpuSeconds("self") - before;
  EXPECT_GT(used, 0.025);
  EXPECT_LT(used, 5.0);
  EXPECT_EQ(ProcessCpuSeconds("no-such-process"), 0);
}

TEST(SelfTime, SubtractsWrappedLayersOnTheSameRequest) {
  // Three requests through net -> service -> cube, recorded as separate
  // spans per layer (times in ns).
  Tracer tracer;
  tracer.Record(1, "cube", 0, 1'000);
  tracer.Record(1, "service", 0, 3'000);
  tracer.Record(1, "net", 0, 10'000);
  tracer.Record(2, "cube", 0, 2'000);
  tracer.Record(2, "service", 0, 2'500);
  tracer.Record(2, "net", 0, 7'500);
  // Request 3 has no cube span: it has no service self time.
  tracer.Record(3, "service", 0, 4'000);

  const Samples service = tracer.SelfTimes("service", {"cube"});
  ASSERT_EQ(service.size(), 2u);
  EXPECT_DOUBLE_EQ(service.values()[0], 2.0);
  EXPECT_DOUBLE_EQ(service.values()[1], 0.5);

  const Samples net = tracer.SelfTimes("net", {"service"});
  ASSERT_EQ(net.size(), 2u);
  EXPECT_DOUBLE_EQ(net.values()[0], 7.0);
  EXPECT_DOUBLE_EQ(net.values()[1], 5.0);

  // Several wrapped layers are subtracted together.
  const Samples both = tracer.SelfTimes("net", {"service", "cube"});
  ASSERT_EQ(both.size(), 2u);
  EXPECT_DOUBLE_EQ(both.values()[0], 6.0);
  EXPECT_DOUBLE_EQ(both.values()[1], 3.0);

  EXPECT_EQ(tracer.Durations("service").size(), 3u);
}

class OracleTest : public ::testing::Test {
 protected:
  OracleTest() {
    skycube::SyntheticSpec spec;
    spec.num_objects = 300;
    spec.num_dims = 4;
    spec.seed = 11;
    const skycube::Dataset data = skycube::GenerateSynthetic(spec);
    oracle_ = std::make_unique<ReadOracle>(
        std::make_shared<const skycube::CompressedSkylineCube>(
            data.num_dims(), data.num_objects(),
            skycube::ComputeStellar(data)));
  }
  std::unique_ptr<ReadOracle> oracle_;
};

TEST_F(OracleTest, CatchesASingleFlippedId) {
  ReadOp op;
  op.subspace = 0b1011;
  skycube::net::WireResponse response;
  response.request_op = skycube::net::Opcode::kSkyline;
  response.ids = oracle_->cube().SubspaceSkyline(op.subspace);
  ASSERT_FALSE(response.ids.empty());
  EXPECT_TRUE(oracle_->Check(op, response));

  response.ids.back() ^= 1;
  EXPECT_FALSE(oracle_->Check(op, response));
}

TEST_F(OracleTest, CatchesWrongMembershipCountAndPartialAnswers) {
  ReadOp op;
  op.kind = skycube::QueryKind::kMembershipCount;
  op.object = oracle_->Skyline(0b1111).front();
  skycube::net::WireResponse response;
  response.request_op = skycube::net::Opcode::kMembershipCount;
  response.count = oracle_->cube().CountSubspacesWhereSkyline(op.object);
  EXPECT_TRUE(oracle_->Check(op, response));
  response.partial = true;
  EXPECT_FALSE(oracle_->Check(op, response));
  response.partial = false;
  response.count += 1;
  EXPECT_FALSE(oracle_->Check(op, response));

  op.kind = skycube::QueryKind::kMembership;
  op.subspace = 0b0110;
  response.request_op = skycube::net::Opcode::kMembership;
  response.member =
      !oracle_->cube().IsInSubspaceSkyline(op.object, op.subspace);
  EXPECT_FALSE(oracle_->Check(op, response));
  response.member = !response.member;
  EXPECT_TRUE(oracle_->Check(op, response));
}

TEST_F(OracleTest, CatchesWrongCardinality) {
  ReadOp op;
  op.kind = skycube::QueryKind::kSkylineCardinality;
  op.subspace = 0b0101;
  skycube::net::WireResponse response;
  response.request_op = skycube::net::Opcode::kCardinality;
  response.count = oracle_->Skyline(op.subspace).size();
  EXPECT_TRUE(oracle_->Check(op, response));
  response.count -= 1;
  EXPECT_FALSE(oracle_->Check(op, response));
}

}  // namespace
}  // namespace perfbench
