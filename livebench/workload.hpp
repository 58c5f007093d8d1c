// Seeded inputs of the live-engine benchmark: the workload table, the
// model the trainer checkpoints and the per-step churn schedule. Everything
// here is a pure function of (workload, seed, step), so equal seeds replay
// the same bytes and different seeds differ.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "viper/tensor/model.hpp"

namespace livebench {

inline constexpr int kNumTensors = 64;
inline constexpr std::size_t kTensorBytes = 512 * 1024;  // f32 [131072]
inline constexpr std::size_t kTensorElements = kTensorBytes / sizeof(float);

struct WorkloadSpec {
  std::string_view name;
  /// Tensors rewritten per trainer step (a contiguous block).
  int churned_tensors = kNumTensors;
  /// Checkpoint to the on-disk file tier with the PFS strategy instead of
  /// the memory-first host path with a background in-memory flush.
  bool durable_pfs = false;
};

[[nodiscard]] std::optional<WorkloadSpec> find_workload(std::string_view name);
[[nodiscard]] std::vector<WorkloadSpec> all_workloads();

/// Tensor name of index `i` ("w00".."w63"); names sort in index order, so
/// a contiguous index block is a contiguous byte range of the checkpoint.
[[nodiscard]] std::string tensor_name(int i);

/// The 32 MiB model of `seed`: 64 f32 tensors of seeded values.
[[nodiscard]] viper::Model make_model(std::uint64_t seed);

/// First tensor index of the block step `step` rewrites. The block never
/// wraps past the last tensor, and its position rotates every step from a
/// seed-dependent offset.
[[nodiscard]] int churn_start(const WorkloadSpec& spec, std::uint64_t seed,
                              std::uint64_t step);

/// One trainer step's weight update: rewrite every element of the step's
/// churned tensors (a damped, step-dependent drift, so every byte moves).
void apply_step(viper::Model& model, const WorkloadSpec& spec,
                std::uint64_t seed, std::uint64_t step);

/// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);

}  // namespace livebench
