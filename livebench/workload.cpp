#include "workload.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace livebench {

namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

constexpr WorkloadSpec kWorkloads[] = {
    {"full-stream", kNumTensors, false},
    {"delta-churn", 7, false},
    {"durable-pfs", kNumTensors, true},
};

}  // namespace

std::optional<WorkloadSpec> find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (spec.name == name) return spec;
  }
  return std::nullopt;
}

std::vector<WorkloadSpec> all_workloads() {
  return {std::begin(kWorkloads), std::end(kWorkloads)};
}

std::string tensor_name(int i) {
  char name[8];
  std::snprintf(name, sizeof(name), "w%02d", i);
  return name;
}

viper::Model make_model(std::uint64_t seed) {
  viper::Model model("live");
  std::uint64_t state = seed ^ 0x6c697665ull;  // "live"
  std::vector<float> values(kTensorElements);
  for (int i = 0; i < kNumTensors; ++i) {
    for (float& v : values) {
      // 24 random mantissa-sized bits -> uniform in [-0.1, 0.1).
      const auto bits = static_cast<std::uint32_t>(splitmix64(state) >> 40);
      v = (static_cast<float>(bits) * (1.0f / 16777216.0f) - 0.5f) * 0.2f;
    }
    std::vector<std::byte> bytes(kTensorBytes);
    std::memcpy(bytes.data(), values.data(), kTensorBytes);
    auto tensor = viper::Tensor::from_bytes(
        viper::DType::kF32, viper::Shape{static_cast<std::int64_t>(kTensorElements)},
        std::move(bytes));
    (void)model.add_tensor(tensor_name(i), std::move(tensor).value());
  }
  return model;
}

int churn_start(const WorkloadSpec& spec, std::uint64_t seed,
                std::uint64_t step) {
  const auto positions =
      static_cast<std::uint64_t>(kNumTensors - spec.churned_tensors + 1);
  if (positions <= 1) return 0;
  std::uint64_t state = seed ^ 0x6368726eull;  // "chrn"
  const std::uint64_t offset = splitmix64(state) % positions;
  const auto stride = static_cast<std::uint64_t>(spec.churned_tensors);
  return static_cast<int>((offset + step * stride) % positions);
}

void apply_step(viper::Model& model, const WorkloadSpec& spec,
                std::uint64_t seed, std::uint64_t step) {
  const int first = churn_start(spec, seed, step);
  const float drift = 1e-5f * static_cast<float>(step % 7 + 1);
  for (int i = first; i < first + spec.churned_tensors; ++i) {
    auto tensor = model.mutable_tensor(tensor_name(i));
    if (!tensor.is_ok()) continue;
    for (float& v : tensor.value()->mutable_data<float>()) {
      v = v * 0.9999f + drift;
    }
  }
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto lower = static_cast<std::size_t>(position);
  const std::size_t upper = std::min(lower + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return values[lower] + (values[upper] - values[lower]) * fraction;
}

}  // namespace livebench
