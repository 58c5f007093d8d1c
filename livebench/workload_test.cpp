// Self-tests of the benchmark's seeded inputs and its correctness gate.
#include <gtest/gtest.h>

#include "workload.hpp"

namespace livebench {
namespace {

std::vector<int> churn_schedule(const WorkloadSpec& spec, std::uint64_t seed) {
  std::vector<int> starts;
  for (std::uint64_t step = 1; step <= 200; ++step) {
    starts.push_back(churn_start(spec, seed, step));
  }
  return starts;
}

TEST(Workload, EqualSeedsGiveIdenticalModelsAndSchedules) {
  for (const WorkloadSpec& spec : all_workloads()) {
    viper::Model a = make_model(7);
    viper::Model b = make_model(7);
    EXPECT_TRUE(a.same_weights(b)) << spec.name;
    EXPECT_EQ(churn_schedule(spec, 7), churn_schedule(spec, 7)) << spec.name;
    for (std::uint64_t step = 1; step <= 3; ++step) {
      apply_step(a, spec, 7, step);
      apply_step(b, spec, 7, step);
    }
    EXPECT_TRUE(a.same_weights(b)) << spec.name;
  }
}

TEST(Workload, DifferentSeedsDiffer) {
  EXPECT_FALSE(make_model(7).same_weights(make_model(8)));
  const WorkloadSpec delta = find_workload("delta-churn").value();
  EXPECT_NE(churn_schedule(delta, 7), churn_schedule(delta, 8));
}

TEST(Workload, ModelShapeMatchesTheSpec) {
  const viper::Model model = make_model(1);
  EXPECT_EQ(model.num_tensors(), static_cast<std::size_t>(kNumTensors));
  EXPECT_EQ(model.payload_bytes(), kNumTensors * kTensorBytes);
}

TEST(Workload, StepRewritesExactlyTheChurnedBlock) {
  const WorkloadSpec delta = find_workload("delta-churn").value();
  const viper::Model before = make_model(3);
  viper::Model after = before;
  apply_step(after, delta, 3, 5);
  const int first = churn_start(delta, 3, 5);
  ASSERT_LE(first + delta.churned_tensors, kNumTensors);
  for (int i = 0; i < kNumTensors; ++i) {
    const auto& x = *before.tensor(tensor_name(i)).value();
    const auto& y = *after.tensor(tensor_name(i)).value();
    const bool churned = i >= first && i < first + delta.churned_tensors;
    EXPECT_EQ(!x.equals(y), churned) << "tensor " << i;
  }
}

TEST(Workload, ChurnBlockRotates) {
  const WorkloadSpec delta = find_workload("delta-churn").value();
  EXPECT_NE(churn_start(delta, 1, 1), churn_start(delta, 1, 2));
  const WorkloadSpec full = find_workload("full-stream").value();
  EXPECT_EQ(churn_start(full, 1, 1), 0);
  EXPECT_EQ(churn_start(full, 1, 2), 0);
}

TEST(CorrectnessGate, FlippedByteIsCaught) {
  const viper::Model served = make_model(11);
  viper::Model corrupted = served;
  auto tensor = corrupted.mutable_tensor(tensor_name(40));
  ASSERT_TRUE(tensor.is_ok());
  // The gate compares with Model::same_weights, as live_bench does.
  EXPECT_TRUE(served.same_weights(make_model(11)));
  tensor.value()->mutable_bytes()[12345] ^= std::byte{0x01};
  EXPECT_FALSE(served.same_weights(corrupted));
}

TEST(Quantile, InterpolatesBetweenRanks) {
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(quantile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.9), 4.6);
}

}  // namespace
}  // namespace livebench
