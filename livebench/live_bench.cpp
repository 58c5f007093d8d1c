// Live-engine benchmark. One process runs the real engine with no modeled
// sleeps and no charged costs: rank 0 runs ModelWeightsHandler and its
// transfer server, rank 1 runs one InferenceConsumer with prefetch on, and
// the two talk over a net::CommWorld. Two benchmark threads make the load:
// a closed-loop trainer (rewrite the churned tensors, 200 ms of stand-in
// compute, save_weights with an explicit version) and a closed-loop
// inference client (take active_model(), sum one fixed 512 KiB tensor,
// pause 1 ms).
//
//   live_bench --workload full-stream|delta-churn|durable-pfs --seed N
//              --seconds S --trace 0|1 [--scratch DIR] [--corrupt-final]
//
// --trace 0 measures the end-to-end metrics with every probe disarmed.
// --trace 1 spends half the time untraced and half with the tracer, trace
// contexts and the version ledger armed, then replays each layer's public
// entry point on the workload's own model and blob; it prints the
// per-layer metrics. The last stdout line is one JSON object; the exit
// code is non-zero when any correctness check fails.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "viper/common/thread_pool.hpp"
#include "viper/core/consumer.hpp"
#include "viper/core/handler.hpp"
#include "viper/core/metadata.hpp"
#include "viper/core/workflow.hpp"
#include "viper/durability/journal.hpp"
#include "viper/kvstore/pubsub.hpp"
#include "viper/memsys/file_tier.hpp"
#include "viper/memsys/presets.hpp"
#include "viper/memsys/storage_tier.hpp"
#include "viper/net/comm.hpp"
#include "viper/net/stream.hpp"
#include "viper/obs/context.hpp"
#include "viper/obs/ledger.hpp"
#include "viper/obs/metrics.hpp"
#include "viper/obs/trace.hpp"
#include "viper/serial/crc32.hpp"
#include "viper/serial/format.hpp"
#include "viper/serial/shard_delta.hpp"
#include "workload.hpp"

namespace {

using namespace viper;
namespace fs = std::filesystem;
using livebench::WorkloadSpec;
using SteadyClock = std::chrono::steady_clock;

constexpr char kModelName[] = "live";
constexpr double kComputeSeconds = 0.2;  // stand-in accelerator step
/// The inference client's pause between requests. It keeps the client to
/// about a tenth of a core, so it does not take a core from the engine's
/// pool and turn save and update latency into a measure of the scheduler.
constexpr auto kInferThinkTime = std::chrono::microseconds(1000);
constexpr std::uint64_t kWarmupSteps = 3;
constexpr int kSetups = 3;  // setup_s is the median of this many set-ups
/// Retention keeps the newest versions only, so a run's in-memory PFS and
/// file tier stay a few hundred MiB instead of growing 32 MiB per step.
constexpr std::size_t kKeepLast = 4;
constexpr double kConvergeTimeoutSeconds = 20.0;
constexpr std::size_t kMaxVersions = 8192;
/// Stated tolerance for the ledger check: the critical-path stage p50s
/// must sum to the benchmark's own measured update-latency p50 (save entry
/// to the update hook) within this share, so time the ledger misses shows.
constexpr double kSumGapTolerance = 0.15;
constexpr std::uint32_t kEngineChunkBytes = 256 * 1024;  // reply_chunk_bytes

const SteadyClock::time_point g_process_start = SteadyClock::now();

double since(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}
double now_s() { return since(g_process_start); }

double cpu_seconds(int who) {
  rusage usage{};
  getrusage(who, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

struct Args {
  WorkloadSpec spec;
  std::uint64_t seed = 1;
  double seconds = 32.0;  // BENCHMARK.json run_seconds
  bool trace = false;
  fs::path scratch = ".bench_build/livebench/scratch";
  bool corrupt_final = false;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-final") {
      args.corrupt_final = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      auto spec = livebench::find_workload(value);
      if (!spec) return std::nullopt;
      args.spec = *spec;
      have_workload = true;
    } else if (flag == "--seed") {
      char* end = nullptr;
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return std::nullopt;
    } else if (flag == "--seconds") {
      char* end = nullptr;
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') return std::nullopt;
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else {
      return std::nullopt;
    }
  }
  if (!have_workload || !(args.seconds > 0.0)) return std::nullopt;
  return args;
}

/// Name -> value + unit, printed in insertion order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }
  [[nodiscard]] bool all_finite() const {
    return std::all_of(metrics_.begin(), metrics_.end(),
                       [](const Metric& m) { return std::isfinite(m.value); });
  }

 private:
  std::vector<Metric> metrics_;
};

/// Save-entry and install times per version, plus the update hook's
/// version-mismatch count. Written by the trainer and the consumer's
/// prefetch worker.
struct VersionLog {
  std::mutex mutex;
  std::vector<double> saved_at = std::vector<double>(kMaxVersions, -1.0);
  std::vector<double> installed_at = std::vector<double>(kMaxVersions, -1.0);
  std::uint64_t hook_mismatches = 0;
};

/// One engine set-up: services, the producer rank (handler + transfer
/// server) on rank 0, the consumer on rank 1, and the trainer's model.
class Session {
 public:
  Session(const WorkloadSpec& spec, std::uint64_t seed, fs::path pfs_dir)
      : spec_(spec), seed_(seed), pfs_dir_(std::move(pfs_dir)) {}
  ~Session() { shutdown(); }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  Status start() {
    services_ = std::make_shared<core::SharedServices>();
    if (spec_.durable_pfs) {
      std::error_code ec;
      fs::remove_all(pfs_dir_, ec);
      fs::create_directories(pfs_dir_, ec);
      auto tier = memsys::FileTier::open(pfs_dir_, memsys::polaris_lustre());
      if (!tier.is_ok()) return tier.status();
      services_->pfs = std::shared_ptr<memsys::StorageTier>(std::move(tier).value());
    }
    core::ModelWeightsHandler::Options options;
    options.strategy = spec_.durable_pfs ? core::Strategy::kViperPfs
                                         : core::Strategy::kHostAsync;
    options.delta_updates = true;
    options.retention.keep_last = kKeepLast;
    world_ = net::CommWorld::create(2);
    producer_ = std::make_unique<core::ProducerRank>(services_, world_->comm(0), options);
    core::InferenceConsumer::Options consumer_options;
    consumer_options.prefetch = true;
    consumer_options.on_update = [this](const core::ModelMetadata& meta) {
      on_update(meta);
    };
    consumer_ = std::make_unique<core::InferenceConsumer>(
        services_, world_->comm(1), kModelName, consumer_options);
    consumer_->start();
    model_ = livebench::make_model(seed_);
    return Status::ok();
  }

  /// One trainer step; returns the seconds save_weights blocked.
  Result<double> step() {
    ++steps_;
    livebench::apply_step(model_, spec_, seed_, steps_);
    std::this_thread::sleep_for(std::chrono::duration<double>(kComputeSeconds));
    const std::uint64_t version = steps_;
    if (version >= kMaxVersions) return resource_exhausted("too many versions");
    model_.set_version(version);
    model_.set_iteration(static_cast<std::int64_t>(version));
    const double entered = now_s();
    {
      std::lock_guard lock(log_.mutex);
      log_.saved_at[version] = entered;
    }
    auto receipt = producer_->handler().save_weights(kModelName, model_);
    const double stall = now_s() - entered;
    if (!receipt.is_ok()) return receipt.status();
    last_saved_ = version;
    return stall;
  }

  /// Wait until the update hook has recorded the install of `version`.
  /// The consumer publishes active_version() before it calls the hook, so
  /// polling that could read the log before the last install lands in it.
  bool wait_recorded(std::uint64_t version, double timeout_seconds) {
    const auto start = SteadyClock::now();
    while (true) {
      {
        std::lock_guard lock(log_.mutex);
        if (log_.installed_at[version] >= 0.0) return true;
      }
      if (since(start) > timeout_seconds) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  void shutdown() {
    if (consumer_) consumer_->stop();
    producer_.reset();  // drains in-flight saves, stops the transfer server
    consumer_.reset();
    if (world_) world_->shutdown();
    if (services_) services_->bus->shutdown();
    services_.reset();
    if (spec_.durable_pfs) {
      std::error_code ec;
      fs::remove_all(pfs_dir_, ec);
    }
  }

  [[nodiscard]] core::InferenceConsumer& consumer() { return *consumer_; }
  [[nodiscard]] core::ModelWeightsHandler& handler() { return producer_->handler(); }
  [[nodiscard]] const viper::Model& model() const { return model_; }
  [[nodiscard]] std::uint64_t last_saved() const { return last_saved_; }
  [[nodiscard]] VersionLog& log() { return log_; }

 private:
  void on_update(const core::ModelMetadata& meta) {
    // Key on the version actually swapped in: the hook's metadata is
    // re-peeked after the install and may already name a newer version.
    // Stamp after the read, so the stamp never precedes that install.
    const auto served = consumer_->active_model();
    if (served == nullptr) return;
    const double at = now_s();
    const std::uint64_t version = served->version();
    std::lock_guard lock(log_.mutex);
    if (meta.version != version) ++log_.hook_mismatches;
    if (version < kMaxVersions && log_.installed_at[version] < 0.0) {
      log_.installed_at[version] = at;
    }
  }

  WorkloadSpec spec_;
  std::uint64_t seed_;
  fs::path pfs_dir_;
  viper::Model model_;
  std::uint64_t steps_ = 0;
  std::uint64_t last_saved_ = 0;
  VersionLog log_;
  std::shared_ptr<core::SharedServices> services_;
  std::shared_ptr<net::CommWorld> world_;
  std::unique_ptr<core::ProducerRank> producer_;
  std::unique_ptr<core::InferenceConsumer> consumer_;
};

/// Build a session and run its warm-up; returns the set-up seconds.
Result<double> set_up(Session& session, double started) {
  VIPER_RETURN_IF_ERROR(session.start());
  for (std::uint64_t i = 0; i < kWarmupSteps; ++i) {
    auto stall = session.step();
    if (!stall.is_ok()) return stall.status();
  }
  if (!session.wait_recorded(session.last_saved(), kConvergeTimeoutSeconds)) {
    return timeout("consumer never installed the warm-up version");
  }
  return now_s() - started;
}

struct InferenceStats {
  std::uint64_t requests = 0;
  std::uint64_t torn = 0;
  std::uint64_t backwards = 0;
  double cpu_seconds = 0.0;
  std::vector<double> latencies_us;
};

/// Closed-loop inference client on its own thread.
class InferenceLoad {
 public:
  explicit InferenceLoad(core::InferenceConsumer& consumer) : consumer_(consumer) {
    stats_.latencies_us.reserve(1 << 20);
    thread_ = std::thread([this] { run(); });
  }
  ~InferenceLoad() { stop(); }
  InferenceLoad(const InferenceLoad&) = delete;
  InferenceLoad& operator=(const InferenceLoad&) = delete;

  InferenceStats stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
    return std::move(stats_);
  }

 private:
  void run() {
    const double cpu_start = cpu_seconds(RUSAGE_THREAD);
    const std::string fixed = livebench::tensor_name(0);
    std::uint64_t last_version = 0;
    while (!stop_.load(std::memory_order_relaxed)) {
      const auto start = SteadyClock::now();
      const auto model = consumer_.active_model();
      bool torn = model == nullptr ||
                  model->num_tensors() != static_cast<std::size_t>(livebench::kNumTensors);
      double sum = 0.0;
      if (!torn) {
        if (model->version() < last_version) ++stats_.backwards;
        last_version = model->version();
        auto tensor = model->tensor(fixed);
        if (tensor.is_ok()) {
          // Two accumulators halve the dependent-add chain.
          const auto values = tensor.value()->data<float>();
          double even = 0.0;
          double odd = 0.0;
          for (std::size_t i = 0; i + 1 < values.size(); i += 2) {
            even += values[i];
            odd += values[i + 1];
          }
          sum = even + odd;
        } else {
          torn = true;
        }
      }
      if (torn) ++stats_.torn;
      sink_.store(sum, std::memory_order_relaxed);  // keeps the sum live
      ++stats_.requests;
      stats_.latencies_us.push_back(since(start) * 1e6);
      std::this_thread::sleep_for(kInferThinkTime);
    }
    stats_.cpu_seconds = cpu_seconds(RUSAGE_THREAD) - cpu_start;
  }

  core::InferenceConsumer& consumer_;
  std::atomic<bool> stop_{false};
  InferenceStats stats_;
  std::atomic<double> sink_{0.0};
  std::thread thread_;
};

struct PhaseResult {
  double wall_seconds = 0.0;
  std::uint64_t steps = 0;
  std::uint64_t save_errors = 0;
  std::uint64_t unapplied_saves = 0;  ///< neither installed nor superseded
  std::uint64_t first_version = 0;
  std::uint64_t last_version = 0;
  bool converged = false;
  std::vector<double> stalls_ms;
  std::vector<double> latencies_ms;  ///< over installed versions only
  double engine_cpu_seconds = 0.0;   ///< process CPU minus the inference client
  std::uint64_t hook_mismatches = 0;
  std::uint64_t prefetch_started = 0;
  std::uint64_t prefetch_superseded = 0;
  InferenceStats inference;

  [[nodiscard]] std::uint64_t attempted() const {
    return steps + save_errors + inference.requests;
  }
  [[nodiscard]] std::uint64_t failed() const {
    return save_errors + unapplied_saves + inference.torn + inference.backwards;
  }
};

PhaseResult run_phase(Session& session, double seconds) {
  PhaseResult result;
  core::InferenceConsumer& consumer = session.consumer();
  const std::uint64_t hook_mismatches_before = [&] {
    std::lock_guard lock(session.log().mutex);
    return session.log().hook_mismatches;
  }();
  const std::uint64_t started_before = consumer.prefetches_started();
  const std::uint64_t superseded_before = consumer.prefetches_superseded();
  result.first_version = session.last_saved() + 1;

  const double cpu_start = cpu_seconds(RUSAGE_SELF);
  InferenceLoad load(consumer);
  const auto start = SteadyClock::now();
  while (since(start) < seconds) {
    auto stall = session.step();
    if (stall.is_ok()) {
      ++result.steps;
      result.stalls_ms.push_back(stall.value() * 1e3);
    } else {
      ++result.save_errors;
      std::fprintf(stderr, "save failed: %s\n", stall.status().to_string().c_str());
    }
  }
  result.wall_seconds = since(start);
  result.inference = load.stop();
  result.engine_cpu_seconds =
      cpu_seconds(RUSAGE_SELF) - cpu_start - result.inference.cpu_seconds;
  result.last_version = session.last_saved();
  result.converged =
      session.wait_recorded(result.last_version, kConvergeTimeoutSeconds);
  session.handler().drain();

  VersionLog& log = session.log();
  std::lock_guard lock(log.mutex);
  bool superseded = false;  // some later version of the phase was installed
  for (std::uint64_t v = result.last_version; v >= result.first_version && v > 0;
       --v) {
    if (log.installed_at[v] >= 0.0) {
      result.latencies_ms.push_back((log.installed_at[v] - log.saved_at[v]) * 1e3);
      superseded = true;
    } else if (log.saved_at[v] >= 0.0 && !superseded) {
      ++result.unapplied_saves;
    }
  }
  result.hook_mismatches = log.hook_mismatches - hook_mismatches_before;
  result.prefetch_started = consumer.prefetches_started() - started_before;
  result.prefetch_superseded = consumer.prefetches_superseded() - superseded_before;
  return result;
}

void add_end_to_end(Report& report, const PhaseResult& phase,
                    double setup_seconds) {
  const double steps = static_cast<double>(std::max<std::uint64_t>(phase.steps, 1));
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  report.add("setup_s", setup_seconds, "s");
  report.add("train_steps_per_s", static_cast<double>(phase.steps) / phase.wall_seconds,
             "1/s");
  report.add("save_stall_p50_ms", livebench::quantile(phase.stalls_ms, 0.5), "ms");
  report.add("update_latency_p50_ms", livebench::quantile(phase.latencies_ms, 0.5),
             "ms");
  report.add("update_latency_p90_ms", livebench::quantile(phase.latencies_ms, 0.9),
             "ms");
  report.add("infer_rps",
             static_cast<double>(phase.inference.requests) / phase.wall_seconds, "1/s");
  report.add("infer_p90_us", livebench::quantile(phase.inference.latencies_us, 0.9), "us");
  report.add("cpu_ms_per_step", phase.engine_cpu_seconds * 1e3 / steps, "ms");
  report.add("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB");
  // Printed, not gated: on the memory paths this p90 sat on the knee
  // between the save body and a sporadic slow tail, and swung by up to a
  // quarter of its median from run to run (see README.md).
  std::printf("save_stall_p90_ms %.6g ms over %zu saves\n",
              livebench::quantile(phase.stalls_ms, 0.9), phase.stalls_ms.size());
}

// ---------------------------------------------------------------------------
// Traced-run layer metrics.

std::optional<double> stage_gap_ms(const obs::VersionTimeline& t, obs::Stage from,
                                   obs::Stage to) {
  if (!t.has(from) || !t.has(to)) return std::nullopt;
  return (t.stamp(to) - t.stamp(from)) * 1e3;
}

struct StageSpec {
  const char* name;
  obs::Stage from;
  obs::Stage to;
  bool critical;  // on the save -> swap path
};

constexpr StageSpec kStages[] = {
    {"serialize", obs::Stage::kCaptureStart, obs::Stage::kSerializeDone, true},
    {"commit", obs::Stage::kSerializeDone, obs::Stage::kCommitDone, true},
    {"notify", obs::Stage::kCommitDone, obs::Stage::kNotified, true},
    {"queue", obs::Stage::kNotified, obs::Stage::kFetchStart, true},
    {"fetch", obs::Stage::kFetchStart, obs::Stage::kFetchDone, true},
    {"decode", obs::Stage::kFetchDone, obs::Stage::kDecodeDone, true},
    {"swap", obs::Stage::kDecodeDone, obs::Stage::kSwapDone, true},
    {"flush", obs::Stage::kCommitDone, obs::Stage::kFlushDone, false},
};

struct LedgerBreakdown {
  double sum_gap_ratio = 0.0;
  std::string slowest;
  double slowest_share = 0.0;
  std::size_t timelines = 0;
};

/// Stage p50s from the ledger. The sum check compares the critical-path
/// stages with the latency the benchmark measured itself, from save_weights
/// entry to the hook: the stages telescope to the ledger's own latency, so
/// only an outside reference can expose time the ledger does not see.
LedgerBreakdown add_ledger_stages(Report& report, const PhaseResult& phase) {
  std::vector<obs::VersionTimeline> timelines;
  for (auto& t : obs::VersionLedger::global().timelines()) {
    if (t.model == kModelName && t.version >= phase.first_version &&
        t.version <= phase.last_version && t.update_latency() >= 0.0) {
      timelines.push_back(std::move(t));
    }
  }
  LedgerBreakdown breakdown;
  breakdown.timelines = timelines.size();
  double critical_sum = 0.0;
  double slowest_ms = -1.0;
  for (const StageSpec& stage : kStages) {
    std::vector<double> gaps;
    for (const auto& t : timelines) {
      if (auto gap = stage_gap_ms(t, stage.from, stage.to)) gaps.push_back(*gap);
    }
    const double p50 = livebench::quantile(std::move(gaps), 0.5);
    report.add(std::string("stage.") + stage.name + "_ms", p50, "ms");
    if (!stage.critical) continue;
    critical_sum += p50;
    if (p50 > slowest_ms) {
      slowest_ms = p50;
      breakdown.slowest = stage.name;
    }
  }
  const double latency_p50 = livebench::quantile(phase.latencies_ms, 0.5);
  breakdown.sum_gap_ratio =
      latency_p50 > 0.0 ? std::abs(critical_sum - latency_p50) / latency_p50 : 1.0;
  breakdown.slowest_share = critical_sum > 0.0 ? slowest_ms / critical_sum : 0.0;
  report.add("stage.sum_gap_ratio", breakdown.sum_gap_ratio, "ratio");
  report.add("stage.slowest_share", breakdown.slowest_share, "ratio");
  return breakdown;
}

/// Exact mean of a registry histogram. Its percentiles are quantized to
/// power-of-two bucket bounds, so they would read the same run after run.
double histogram_mean(const std::string& name) {
  return obs::MetricsRegistry::global().histogram(name).mean();
}

double counter(const std::string& name) {
  return static_cast<double>(obs::MetricsRegistry::global().counter(name).value());
}

/// Median seconds of `reps` timed calls of `op`.
double median_seconds(int reps, const std::function<void()>& op) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const auto start = SteadyClock::now();
    op();
    times.push_back(since(start));
  }
  return livebench::quantile(std::move(times), 0.5);
}

double gbps(std::size_t bytes, double seconds) {
  return seconds > 0.0 ? static_cast<double>(bytes) / seconds / 1e9 : 0.0;
}

std::shared_ptr<memsys::StorageTier> make_pfs_tier(const WorkloadSpec& spec,
                                                   const fs::path& dir) {
  if (!spec.durable_pfs) {
    return std::make_shared<memsys::MemoryTier>(memsys::polaris_lustre());
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
  auto tier = memsys::FileTier::open(dir, memsys::polaris_lustre());
  if (!tier.is_ok()) return nullptr;
  return std::shared_ptr<memsys::StorageTier>(std::move(tier).value());
}

/// Time each layer's public entry point on the workload's model and blob,
/// next to a memcpy of the same bytes. Returns false on any layer error.
bool add_replay(Report& report, const WorkloadSpec& spec, std::uint64_t seed,
                const viper::Model& model, std::uint64_t step,
                const fs::path& scratch) {
  bool ok = true;
  const auto check = [&ok](bool condition, const char* what) {
    if (!condition) {
      std::fprintf(stderr, "replay: %s failed\n", what);
      ok = false;
    }
  };
  ThreadPool& pool = ThreadPool::global();
  const auto format = serial::make_viper_format();
  serial::ShardDigest digest;
  auto captured = format->serialize_pooled_sharded(model, pool, 0, &digest);
  if (!captured.is_ok()) return false;
  const serial::SharedBlob blob = std::move(captured).value().share();
  const std::size_t bytes = blob->size();
  const std::span<const std::byte> view(blob->data(), bytes);

  std::vector<std::byte> target(bytes);
  volatile std::byte sink{};
  const double memcpy_gbps = gbps(bytes, median_seconds(15, [&] {
    std::memcpy(target.data(), blob->data(), bytes);
    sink = target[bytes / 2];
  }));
  const auto roofline = [&](const std::string& name, double value) {
    report.add(name + "_gbps", value, "GB/s");
    report.add(name + "_roofline", memcpy_gbps > 0.0 ? value / memcpy_gbps : 0.0,
               "ratio");
  };
  report.add("roofline.memcpy_gbps", memcpy_gbps, "GB/s");

  roofline("serial.serialize", gbps(bytes, median_seconds(9, [&] {
             check(format->serialize_pooled_sharded(model, pool).is_ok(),
                   "serialize");
           })));
  std::uint32_t crc = 0;
  roofline("serial.crc", gbps(bytes, median_seconds(9, [&] {
             crc = serial::crc32(view);
           })));
  std::optional<viper::Model> decoded;
  roofline("serial.decode", gbps(bytes, median_seconds(9, [&] {
             auto out = format->deserialize_shared_sharded(blob, pool);
             check(out.is_ok(), "decode");
             if (out.is_ok()) decoded.emplace(std::move(out).value());
           })));

  // Delta: the next step's capture diffed against this one at the
  // engine's default shard count.
  viper::Model next = model;
  livebench::apply_step(next, spec, seed, step + 1);
  serial::ShardDigest next_digest;
  auto next_captured = format->serialize_pooled_sharded(next, pool, 0, &next_digest);
  check(next_captured.is_ok(), "next capture");
  double frame_ratio = 1.0;
  double apply_gbps = 0.0;
  if (next_captured.is_ok()) {
    const serial::SharedBlob next_blob = std::move(next_captured).value().share();
    const serial::ShardDeltaPlan plan = serial::plan_shard_delta(digest, next_digest);
    check(plan.compatible, "delta plan");
    frame_ratio = static_cast<double>(plan.frame_bytes) /
                  static_cast<double>(next_blob->size());
    auto frame = serial::encode_shard_delta(
        std::span<const std::byte>(next_blob->data(), next_blob->size()), digest,
        next_digest, plan, 1, 2);
    check(frame.is_ok(), "delta encode");
    if (frame.is_ok()) {
      const serial::SharedBlob frame_blob = std::move(frame).value().share();
      bool applied = true;
      apply_gbps = gbps(next_blob->size(), median_seconds(9, [&] {
                          applied = serial::apply_shard_delta(view, *frame_blob).is_ok() &&
                                    applied;
                        }));
      auto full = serial::apply_shard_delta(view, *frame_blob);
      check(applied && full.is_ok() && full.value().vec() == *next_blob,
            "delta apply");
    }
  }
  report.add("serial.delta_frame_ratio", frame_ratio, "ratio");
  report.add("serial.delta_apply_gbps", apply_gbps, "GB/s");

  {
    auto world = net::CommWorld::create(2);
    net::StreamOptions options;
    options.chunk_bytes = kEngineChunkBytes;
    roofline("net.stream", gbps(bytes, median_seconds(9, [&] {
               std::thread receiver([&] {
                 auto got = net::stream_recv(world->comm(1), 0, 7, options);
                 check(got.is_ok() && got.value().size() == bytes, "stream recv");
               });
               check(net::stream_send(world->comm(0), 1, 7, view, options).is_ok(),
                     "stream send");
               receiver.join();
             })));
    world->shutdown();
  }

  {
    memsys::MemoryTier host(memsys::polaris_dram());
    check(host.put_shared("ckpt/live", blob).is_ok(), "host put");
    report.add("memsys.host_get_gbps", gbps(bytes, median_seconds(9, [&] {
                 std::vector<std::byte> out;
                 check(host.get("ckpt/live", out).is_ok(), "host get");
               })),
               "GB/s");
  }

  auto pfs = make_pfs_tier(spec, scratch / "replay-pfs");
  check(pfs != nullptr, "pfs tier");
  if (pfs != nullptr) {
    report.add("memsys.pfs_put_gbps", gbps(bytes, median_seconds(9, [&] {
                 check(pfs->put_shared("ckpt/live/v1", blob).is_ok(), "pfs put");
               })),
               "GB/s");
    report.add("memsys.pfs_get_gbps", gbps(bytes, median_seconds(9, [&] {
                 std::vector<std::byte> out;
                 check(pfs->get("ckpt/live/v1", out).is_ok(), "pfs get");
               })),
               "GB/s");
    // INTENT + COMMIT pairs over a journal growing to a run's length.
    durability::ManifestJournal journal(pfs, "replay");
    check(journal.load().is_ok(), "journal load");
    std::uint64_t version = 0;
    const double pair_seconds = median_seconds(128, [&] {
      ++version;
      const auto iteration = static_cast<std::int64_t>(version);
      check(journal.append_intent(version, bytes, crc, iteration).is_ok() &&
                journal.append_commit(version, bytes, crc, iteration).is_ok(),
            "journal append");
    });
    report.add("durability.journal_append_us", pair_seconds * 1e6, "us");
  }
  pfs.reset();
  {
    std::error_code ec;
    fs::remove_all(scratch / "replay-pfs", ec);
  }

  {
    // Publish -> Subscription::next on another thread.
    auto bus = kv::PubSub::create();
    kv::Subscription subscription = bus->subscribe("replay");
    constexpr int kEvents = 200;
    std::vector<double> published(kEvents, 0.0);
    std::vector<double> received(kEvents, 0.0);
    std::thread listener([&] {
      for (int i = 0; i < kEvents; ++i) {
        auto event = subscription.next(5.0);
        if (!event.is_ok()) return;
        received[static_cast<std::size_t>(std::stoi(event.value().payload))] = now_s();
      }
    });
    for (int i = 0; i < kEvents; ++i) {
      published[static_cast<std::size_t>(i)] = now_s();
      bus->publish("replay", std::to_string(i));
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
    listener.join();
    std::vector<double> notify_us;
    for (int i = 0; i < kEvents; ++i) {
      const auto index = static_cast<std::size_t>(i);
      check(received[index] > 0.0, "notify delivery");
      notify_us.push_back((received[index] - published[index]) * 1e6);
    }
    report.add("kvstore.notify_us", livebench::quantile(std::move(notify_us), 0.5),
               "us");
    bus->shutdown();

    kv::KvStore db;
    core::ModelMetadata meta;
    meta.name = kModelName;
    meta.location = core::Location::kHostMemory;
    meta.path = "ckpt/live";
    meta.size_bytes = bytes;
    report.add("kvstore.metadata_us", median_seconds(1000, [&] {
                 ++meta.version;
                 core::put_metadata(db, meta);
                 check(core::get_metadata(db, kModelName).is_ok(), "metadata get");
               }) * 1e6,
               "us");
  }

  if (decoded) {
    core::DoubleBuffer buffer;
    std::vector<viper::Model> copies(200, *decoded);
    std::size_t next_copy = 0;
    report.add("core.swap_us", median_seconds(200, [&] {
                 buffer.install(std::move(copies[next_copy++]));
               }) * 1e6,
               "us");
  } else {
    report.add("core.swap_us", 0.0, "us");
  }
  (void)sink;
  return ok;
}

void add_live_layers(Report& report, const WorkloadSpec& spec,
                     const PhaseResult& phase, Session& session) {
  const double steps = static_cast<double>(std::max<std::uint64_t>(phase.steps, 1));
  report.add("delta.fallback_ratio", counter("viper.delta.full_fallbacks") / steps,
             "ratio");
  report.add("serial.allocs_per_step", counter("viper.serial.allocations") / steps,
             "count");
  report.add("serial.bytes_copied_per_step",
             counter("viper.serial.bytes_copied") / steps, "B");
  // The tier each save stores to: host DRAM on the memory-first paths,
  // the PFS tier on durable-pfs.
  const memsys::StorageTier& save_tier =
      spec.durable_pfs ? *session.handler().services().pfs
                       : session.handler().host_tier();
  report.add("memsys.lock_wait_us_mean",
             histogram_mean("viper.memsys." + memsys::tier_metric_name(save_tier.name()) +
                            ".lock_wait_seconds") *
                 1e6,
             "us");
  const double installed = static_cast<double>(phase.latencies_ms.size());
  report.add("core.swap_ratio", installed / steps, "ratio");
  report.add("core.superseded_ratio",
             phase.prefetch_started > 0
                 ? static_cast<double>(phase.prefetch_superseded) /
                       static_cast<double>(phase.prefetch_started)
                 : 0.0,
             "ratio");
  report.add("core.hook_version_mismatch", static_cast<double>(phase.hook_mismatches),
             "count");
  report.add("pool.queue_wait_ms_mean",
             histogram_mean("viper.common.pool_queue_wait_seconds") * 1e3, "ms");
  report.add("pool.task_ms_mean",
             histogram_mean("viper.common.pool_task_seconds") * 1e3, "ms");
}

void set_traced(bool on) {
  obs::Tracer::global().set_enabled(on);
  obs::set_context_armed(on);
  obs::VersionLedger::set_armed(on);
}

void print_phase(const char* label, const PhaseResult& phase) {
  std::printf(
      "%s: %llu steps in %.2f s, %zu versions installed, %llu serves, "
      "%llu failed (%llu save errors, %llu unapplied, %llu torn, %llu "
      "backwards), hook version mismatches %llu\n",
      label, static_cast<unsigned long long>(phase.steps), phase.wall_seconds,
      phase.latencies_ms.size(),
      static_cast<unsigned long long>(phase.inference.requests),
      static_cast<unsigned long long>(phase.failed()),
      static_cast<unsigned long long>(phase.save_errors),
      static_cast<unsigned long long>(phase.unapplied_saves),
      static_cast<unsigned long long>(phase.inference.torn),
      static_cast<unsigned long long>(phase.inference.backwards),
      static_cast<unsigned long long>(phase.hook_mismatches));
}

int emit(const Report& report, bool correct, std::uint64_t attempted,
         std::uint64_t failed) {
  for (const Metric& m : report.metrics()) {
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : report.metrics()) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g", std::isfinite(m.value) ? m.value : 0.0);
    json += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int run(const Args& args) {
  std::error_code ec;
  fs::create_directories(args.scratch, ec);
  const fs::path pfs_dir = args.scratch / "pfs";

  // Set up kSetups times; keep the last session for the timed phases.
  std::vector<double> setups;
  std::unique_ptr<Session> session;
  for (int i = 0; i < kSetups; ++i) {
    const double started = i == 0 ? 0.0 : now_s();
    session.reset();
    session = std::make_unique<Session>(args.spec, args.seed, pfs_dir);
    auto seconds = set_up(*session, started);
    if (!seconds.is_ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", seconds.status().to_string().c_str());
      return 1;
    }
    setups.push_back(seconds.value());
  }
  const double setup_seconds = livebench::quantile(setups, 0.5);

  Report report;
  bool correct = true;
  std::vector<const PhaseResult*> phases;
  PhaseResult untraced;
  PhaseResult traced;
  LedgerBreakdown breakdown;
  if (!args.trace) {
    untraced = run_phase(*session, args.seconds);
    phases.push_back(&untraced);
    add_end_to_end(report, untraced, setup_seconds);
  } else {
    untraced = run_phase(*session, args.seconds / 2);
    obs::MetricsRegistry::global().reset();
    obs::VersionLedger::global().clear();
    set_traced(true);
    traced = run_phase(*session, args.seconds / 2);
    set_traced(false);
    phases.push_back(&untraced);
    phases.push_back(&traced);
    breakdown = add_ledger_stages(report, traced);
    add_live_layers(report, args.spec, traced, *session);
    const double untraced_p50 = livebench::quantile(untraced.latencies_ms, 0.5);
    report.add("obs.trace_overhead_ratio",
               untraced_p50 > 0.0
                   ? livebench::quantile(traced.latencies_ms, 0.5) / untraced_p50 - 1.0
                   : 0.0,
               "ratio");
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const PhaseResult* phase : phases) {
    print_phase(phase == &traced ? "traced phase" : "untraced phase", *phase);
    attempted += phase->attempted();
    failed += phase->failed();
    if (!phase->converged) {
      std::fprintf(stderr, "FAIL: consumer did not converge to v%llu\n",
                   static_cast<unsigned long long>(phase->last_version));
      correct = false;
    }
  }
  std::printf("failed_ratio %.6g (%llu of %llu operations)\n",
              attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted)
                            : 0.0,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  if (failed > 0) correct = false;

  // The served model must be byte-identical to the trainer's last save.
  viper::Model expected = session->model();
  if (args.corrupt_final) {
    auto tensor = expected.mutable_tensor(livebench::tensor_name(0));
    if (tensor.is_ok()) tensor.value()->mutable_bytes()[0] ^= std::byte{0x01};
  }
  const auto served = session->consumer().active_model();
  if (served == nullptr || served->version() != session->last_saved()) {
    std::fprintf(stderr, "FAIL: consumer does not serve the last saved version\n");
    correct = false;
  } else if (!served->same_weights(expected)) {
    std::fprintf(stderr, "FAIL: served model differs from the trainer's\n");
    correct = false;
  }

  if (args.trace) {
    std::printf("ledger: %zu complete timelines, slowest stage %s (%.0f%% of the "
                "critical path), stage sum within %.1f%% of measured update latency "
                "(tolerance %.0f%%)\n",
                breakdown.timelines, breakdown.slowest.c_str(),
                breakdown.slowest_share * 100.0, breakdown.sum_gap_ratio * 100.0,
                kSumGapTolerance * 100.0);
    if (breakdown.sum_gap_ratio > kSumGapTolerance) {
      std::fprintf(stderr, "FAIL: stage sum gap %.3f exceeds tolerance %.2f\n",
                   breakdown.sum_gap_ratio, kSumGapTolerance);
      correct = false;
    }
    viper::Model final_model = session->model();
    const std::uint64_t final_step = session->last_saved();
    session.reset();
    if (!add_replay(report, args.spec, args.seed, final_model, final_step,
                    args.scratch)) {
      correct = false;
    }
  }
  session.reset();
  if (!report.all_finite()) {
    std::fprintf(stderr, "FAIL: a metric is not finite\n");
    correct = false;
  }
  return emit(report, correct, attempted, failed);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: live_bench --workload full-stream|delta-churn|durable-pfs "
                 "--seed N --seconds S --trace 0|1 [--scratch DIR] "
                 "[--corrupt-final]\n");
    return 2;
  }
  return run(*args);
}
