// The `train` and `elastic` workloads: ElasticJob + minidl::MiniDlEngine
// doing real math inside the discrete-event cluster, driven and checked from
// outside through the job's public callbacks.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <set>

#include "bench.h"
#include "common/blob.h"
#include "common/rng.h"
#include "elan/job.h"
#include "minidl/elan_engine.h"
#include "storage/filesystem.h"

namespace elanbench {
namespace {

using namespace elan;

/// Gaussian class clusters: `classes` centres drawn from the seed, each
/// sample a centre plus isotropic noise, labels in random order so every
/// contiguous batch mixes classes. Learnable, and made only from the seed.
std::shared_ptr<const minidl::LabeledData> make_clusters(int samples, int dims, int classes,
                                                         std::uint64_t seed, double noise) {
  Rng rng(seed);
  std::vector<float> centres(static_cast<std::size_t>(classes * dims));
  for (auto& c : centres) c = static_cast<float>(rng.normal(0.0, 1.0));
  auto data = std::make_shared<minidl::LabeledData>();
  data->features = minidl::Tensor(samples, dims);
  data->labels.resize(static_cast<std::size_t>(samples));
  for (int i = 0; i < samples; ++i) {
    const int label = static_cast<int>(rng.uniform_int(0, classes - 1));
    data->labels[static_cast<std::size_t>(i)] = label;
    auto row = data->features.row(i);
    for (int d = 0; d < dims; ++d) {
      row[static_cast<std::size_t>(d)] =
          centres[static_cast<std::size_t>(label * dims + d)] +
          static_cast<float>(rng.normal(0.0, noise));
    }
  }
  return data;
}

/// What distinguishes the two job workloads (see README.md for why).
struct JobShape {
  const char* name;
  std::vector<int> layers;
  int samples;
  int total_batch;
  double lr;
  /// Modelled per-iteration overhead and worker start (simulated seconds);
  /// <= 0 keeps the program's defaults.
  Seconds iteration_overhead;
  Seconds start_mean;
  /// Per-GPU batch cap of the model spec (0 keeps the dataset size).
  int max_batch_per_gpu;
};

const JobShape kTrainShape{"train", {64, 256, 256, 10}, 16384, 512, 0.05, 0, 0, 0};
const JobShape kElasticShape{"elastic", {256, 1024, 1024, 10}, 512, 32, 0.01, 0.25, 0.2, 8};
constexpr int kInitialWorkers = 4;

/// Forwarding engine: forwards every call to a MiniDlEngine and records a
/// span around compute_gradients, apply_update and the registered state
/// hooks. The hooks are bracketed by two empty marker hooks registered just
/// before and after the engine's own (HookRegistry runs hooks in
/// registration order), so the engine's hook runs unchanged on the bytes the
/// program hands it. When the job's engines corrupt loads (self-test), the
/// engine's hook is instead wrapped so that the first load flips one byte of
/// the state.
struct Corruption {
  bool enabled = false;  // the same hook layout for every engine of a job
  int remaining = 0;     // loads still to corrupt
};

class TimedEngine final : public train::TrainingEngine {
 public:
  TimedEngine(std::unique_ptr<minidl::MiniDlEngine> inner, Spans& spans,
              std::shared_ptr<Corruption> corruption)
      : train::TrainingEngine(train::EngineKind::kCustom),
        inner_(std::move(inner)),
        spans_(spans),
        corruption_(std::move(corruption)) {}

  Seconds initialization_time() const override { return inner_->initialization_time(); }
  Seconds per_iteration_overhead() const override { return inner_->per_iteration_overhead(); }

  void register_state_hooks(HookRegistry& registry) override {
    if (corruption_->enabled) {
      register_corrupting_hooks(registry);
      return;
    }
    if (!spans_.enabled()) {
      inner_->register_state_hooks(registry);
      return;
    }
    registry.register_hook(StateHook{
        "elanbench.open", StateLocation::kCpu, 0,
        [this] {
          opened_ = Clock::now();
          return Blob("elanbench.open", 0);
        },
        [this](const Blob&) { opened_ = Clock::now(); }});
    inner_->register_state_hooks(registry);
    registry.register_hook(StateHook{
        "elanbench.close", StateLocation::kCpu, 0,
        [this] {
          spans_.add("elan.state_save", opened_, Clock::now());
          return Blob("elanbench.close", 0);
        },
        [this](const Blob&) { spans_.add("elan.state_load", opened_, Clock::now()); }});
  }

  void compute_gradients(std::uint64_t seed, const data::SampleRange& shard) override {
    ScopedSpan span(spans_, "minidl.compute_gradients");
    inner_->compute_gradients(seed, shard);
  }
  std::vector<double>* mutable_gradients() override { return inner_->mutable_gradients(); }
  void apply_update(std::uint64_t seed, double lr) override {
    ScopedSpan span(spans_, "minidl.apply_update");
    inner_->apply_update(seed, lr);
  }
  std::uint64_t state_checksum() const override { return inner_->state_checksum(); }

  const minidl::MiniDlEngine& inner() const { return *inner_; }

 private:
  void register_corrupting_hooks(HookRegistry& registry) {
    inner_->register_state_hooks(inner_hooks_);
    for (const auto& row : inner_hooks_.inventory()) {
      const std::string name = row.name;
      registry.register_hook(StateHook{
          name, row.location, row.nominal_bytes,
          [this, name] {
            auto snapshot = inner_hooks_.save_all();
            return std::move(snapshot.blobs.at(name));
          },
          [this, name](const Blob& blob) {
            StateSnapshot snapshot;
            auto& copy = snapshot.blobs.emplace(name, blob).first->second;
            if (corruption_->remaining > 0 && copy.size() > 0) {
              --corruption_->remaining;
              copy.mutable_bytes()[copy.size() / 2] ^= 0x01;
            }
            inner_hooks_.load_all(snapshot);
          }});
    }
  }

  std::unique_ptr<minidl::MiniDlEngine> inner_;
  Spans& spans_;
  std::shared_ptr<Corruption> corruption_;
  HookRegistry inner_hooks_;
  Clock::time_point opened_;
};

const minidl::MiniDlEngine& engine_of(const ElasticJob& job, int worker) {
  return dynamic_cast<const TimedEngine&>(job.worker(worker).engine()).inner();
}

std::uint64_t state_hash(const ElasticJob& job, int worker) {
  return fnv1a(engine_of(job, worker).model().save_state().bytes());
}

struct Testbed {
  sim::Simulator sim;
  topo::Topology topology{topo::TopologySpec{}};
  topo::BandwidthModel bandwidth;
  storage::SimFilesystem fs;
  transport::MessageBus bus{sim, bandwidth};
  transport::KvStore kv{sim};
};

minidl::MiniDlEngineConfig engine_config(const JobShape& shape, const Context& ctx) {
  minidl::MiniDlEngineConfig config;
  config.layer_sizes = shape.layers;
  config.seed = ctx.seed * 2654435761ULL + 17;
  return config;
}

std::unique_ptr<ElasticJob> make_job(Testbed& bed, const JobShape& shape,
                                     std::shared_ptr<const minidl::LabeledData> data,
                                     const Context& ctx, Spans& spans) {
  auto corruption = std::make_shared<Corruption>();
  if (ctx.fault == Fault::kFlipJoinerByte) *corruption = Corruption{true, 1};
  const auto ecfg = engine_config(shape, ctx);
  JobConfig cfg;
  cfg.job_id = shape.name;
  cfg.model = minidl::minidl_model_spec(ecfg, *data);
  if (shape.iteration_overhead > 0) cfg.model.iteration_overhead = shape.iteration_overhead;
  if (shape.max_batch_per_gpu > 0) cfg.model.max_batch_per_gpu = shape.max_batch_per_gpu;
  if (shape.start_mean > 0) {
    cfg.worker_params.start_mean = shape.start_mean;
    cfg.worker_params.start_stddev = 1e-6;  // same iteration count per cycle
  }
  cfg.engine_factory = [data, ecfg, &spans, corruption] {
    return std::make_unique<TimedEngine>(std::make_unique<minidl::MiniDlEngine>(data, ecfg),
                                         spans, corruption);
  };
  cfg.initial_workers = kInitialWorkers;
  cfg.initial_total_batch = shape.total_batch;
  cfg.base_lr = shape.lr;
  cfg.seed = ctx.seed;
  return std::make_unique<ElasticJob>(bed.sim, bed.topology, bed.bandwidth, bed.fs, bed.bus,
                                      bed.kv, std::move(cfg));
}

/// §V-C exactly-once: within an epoch no sample is handed out twice, and an
/// epoch ends only after every sample was handed out.
class ExactlyOnce {
 public:
  explicit ExactlyOnce(std::uint64_t samples) : seen_(samples, 0) {}

  void consume(std::uint64_t epoch, const std::vector<data::SampleRange>& shards) {
    if (epoch != epoch_) {
      if (epoch != epoch_ + 1) fail("epoch jumped from " + std::to_string(epoch_));
      if (covered_ != seen_.size()) {
        fail("epoch " + std::to_string(epoch_) + " ended after " + std::to_string(covered_) +
             " of " + std::to_string(seen_.size()) + " samples");
      }
      std::fill(seen_.begin(), seen_.end(), 0);
      covered_ = 0;
      epoch_ = epoch;
      ++epochs_verified_;
    }
    for (const auto& s : shards) {
      for (std::uint64_t i = s.begin; i < s.end; ++i) {
        if (i >= seen_.size()) {
          fail("sample " + std::to_string(i) + " outside the dataset");
          return;
        }
        if (seen_[i]++ != 0) {
          fail("sample " + std::to_string(i) + " handed out twice in epoch " +
               std::to_string(epoch));
          return;
        }
        ++covered_;
      }
    }
  }

  void report(Checks& checks, const std::string& name) const {
    checks.expect(error_.empty(), name, error_);
    checks.expect(epochs_verified_ >= 1, name + "_epoch_turnover",
                  "no epoch completed, so coverage was never verified");
  }

 private:
  void fail(const std::string& why) {
    if (error_.empty()) error_ = why;
  }
  std::vector<std::uint8_t> seen_;
  std::uint64_t epoch_ = 0;
  std::uint64_t covered_ = 0;
  int epochs_verified_ = 0;
  std::string error_;
};

/// Largest |a - b| over all parameters, relative to the largest |a|.
double relative_param_gap(const minidl::Mlp& a, const minidl::Mlp& b) {
  double gap = 0, scale = 1e-30;
  const auto compare = [&](const minidl::Tensor& x, const minidl::Tensor& y) {
    if (!x.same_shape(y)) {
      gap = INFINITY;
      return;
    }
    for (std::size_t i = 0; i < x.size(); ++i) {
      gap = std::max(gap, std::fabs(static_cast<double>(x.data()[i]) - y.data()[i]));
      scale = std::max(scale, std::fabs(static_cast<double>(x.data()[i])));
    }
  };
  for (std::size_t l = 0; l < a.layers().size(); ++l) {
    compare(a.layers()[l].weights, b.layers()[l].weights);
    compare(a.layers()[l].bias, b.layers()[l].bias);
  }
  return gap / scale;
}

/// Mean cross-entropy over the whole dataset, evaluated in slices.
float dataset_loss(minidl::Mlp& model, const minidl::LabeledData& data) {
  constexpr int kSlice = 1024;
  double total = 0;
  for (int begin = 0; begin < data.size(); begin += kSlice) {
    const int end = std::min(begin + kSlice, data.size());
    const auto slice = data.slice(begin, end);
    total += static_cast<double>(model.loss(slice.features, slice.labels, false)) * (end - begin);
  }
  return static_cast<float>(total / data.size());
}

void put_engine_layers(const Spans& spans, Outcome& out) {
  if (!spans.enabled()) return;
  const auto fb = spans.durations_ms("minidl.compute_gradients");
  const auto up = spans.durations_ms("minidl.apply_update");
  const auto residual =
      spans.self_ms("elan.iteration", {"minidl.compute_gradients", "minidl.apply_update"});
  if (!fb.empty()) out.per_layer["minidl.forward_backward_ms"] = median(fb);
  if (!up.empty()) out.per_layer["minidl.update_ms"] = median(up);
  if (!residual.empty()) out.per_layer["elan.iteration_residual_ms"] = median(residual);
}

}  // namespace

Outcome run_train(const Context& ctx, Budget budget, Spans& spans, Checks& checks) {
  constexpr std::uint64_t kWarmup = 8;   // iterations before the first window
  constexpr std::uint64_t kWindow = 8;   // iterations per throughput window
  constexpr std::uint64_t kPrefix = 8;   // iterations compared with plain SGD
  constexpr std::size_t kMinWindows = 5;
  const JobShape& shape = kTrainShape;
  const auto data = make_clusters(shape.samples, shape.layers.front(), shape.layers.back(),
                                  ctx.seed, 4.0);
  Testbed bed;
  auto job = make_job(bed, shape, data, ctx, spans);

  Outcome out;
  ExactlyOnce once(static_cast<std::uint64_t>(data->size()));
  std::uint64_t shard_samples = 0;
  std::vector<data::SampleRange> prefix_batches;
  // The replica's model before the first iteration and after each of the
  // first kPrefix iterations.
  std::vector<minidl::Mlp> prefix_models{minidl::Mlp(shape.layers, engine_config(shape, ctx).seed)};
  std::vector<double> window_rates;
  Clock::time_point setup_end, last_iteration, window_start;
  std::uint64_t window_samples = 0;
  std::uint64_t events_measured = 0;

  job->on_data_consumed = [&](std::uint64_t epoch, const std::vector<data::SampleRange>& shards) {
    if (job->iteration() == 0) setup_end = Clock::now();
    for (const auto& shard : shards) shard_samples += shard.size();
    auto reported = shards;
    if (job->iteration() == 3 && reported.size() > 1) {
      if (ctx.fault == Fault::kDuplicateShard) reported.push_back(reported[1]);
      if (ctx.fault == Fault::kSkipShard) reported.erase(reported.begin() + 1);
    }
    once.consume(epoch, reported);
    if (job->iteration() < kPrefix) {
      prefix_batches.push_back({shards.front().begin, shards.back().end});
    }
  };
  job->on_iteration = [&](std::uint64_t it) {
    const auto now = Clock::now();
    if (it > 1) spans.add("elan.iteration", last_iteration, now);
    last_iteration = now;
    if (it <= kPrefix) {
      prefix_models.push_back(engine_of(*job, job->worker_ids().front()).model());
    }
    if (it < kWarmup) return;
    if (it == kWarmup) {
      window_start = now;
      window_samples = job->samples_processed();
      events_measured = bed.sim.executed();
      return;
    }
    if ((it - kWarmup) % kWindow != 0) return;
    window_rates.push_back(static_cast<double>(job->samples_processed() - window_samples) /
                           seconds_between(window_start, now));
    window_start = now;
    window_samples = job->samples_processed();
    // At least kMinWindows, so that an epoch always turns over and the
    // exactly-once check sees a whole epoch.
    const bool done = window_rates.size() >= kMinWindows &&
                      (budget.seconds > 0
                           ? seconds_between(setup_end, now) >= budget.seconds
                           : window_rates.size() >= static_cast<std::size_t>(budget.rounds));
    if (done) job->stop();
  };
  job->stop_after_iterations(1ULL << 40);
  job->start();
  bed.sim.run();
  out.per_layer["process.peak_rss_mb"] = peak_rss_mb_self();

  const std::uint64_t iterations = job->iteration();
  out.attempted = iterations;
  out.end_to_end["setup_s"] = seconds_between(ctx.process_start, setup_end);
  if (!window_rates.empty()) out.end_to_end["samples_per_s"] = median(window_rates);

  // Correctness, against properties of data-parallel SGD.
  const auto ids = job->worker_ids();
  std::set<std::uint64_t> hashes;
  for (int id : ids) hashes.insert(state_hash(*job, id));
  checks.expect(job->consistent() && hashes.size() == 1, "train.replicas_identical",
                std::to_string(hashes.size()) + " distinct replica states");
  checks.expect(job->samples_processed() == shard_samples, "train.samples_accounted",
                std::to_string(job->samples_processed()) + " processed vs " +
                    std::to_string(shard_samples) + " in shards");
  once.report(checks, "train.exactly_once");

  minidl::Mlp fresh(shape.layers, engine_config(shape, ctx).seed);
  minidl::Mlp trained = engine_of(*job, ids.front()).model();
  const float initial_loss = dataset_loss(fresh, *data);
  const float final_loss = dataset_loss(trained, *data);
  constexpr float kLossMargin = 1.0f;  // nats below the initial full-dataset loss
  checks.expect(std::isfinite(final_loss) && final_loss < initial_loss - kLossMargin,
                "train.loss_decreased",
                "initial " + std::to_string(initial_loss) + ", final " +
                    std::to_string(final_loss));

  // Averaging equal-size shard gradients is large-batch SGD on their union;
  // only the summation order differs (float shard means, double sum). Each
  // of the first kPrefix iterations is compared with one large-batch step
  // from the replica's own state before it: chained over several steps, the
  // rounding differences flip the odd ReLU and then grow with every step
  // (max gap 1.5e-3 after 8 chained steps on 5 of 200 seeds, against at
  // most 3.5e-7 per step; a missing shard gradient reads ~2e-2).
  constexpr double kSgdTolerance = 1e-4;
  double gap = INFINITY;
  if (prefix_models.size() == kPrefix + 1 && prefix_batches.size() == kPrefix) {
    const float momentum = engine_config(shape, ctx).momentum;
    gap = 0;
    for (std::size_t k = 0; k < kPrefix; ++k) {
      minidl::Mlp reference = prefix_models[k];
      const auto& r = prefix_batches[k];
      const auto batch = data->slice(static_cast<int>(r.begin), static_cast<int>(r.end));
      reference.loss(batch.features, batch.labels, true);
      reference.sgd_step(static_cast<float>(shape.lr), momentum);
      gap = std::max(gap, relative_param_gap(reference, prefix_models[k + 1]));
    }
  }
  checks.expect(gap <= kSgdTolerance, "train.matches_large_batch_sgd",
                "relative parameter gap " + std::to_string(gap) + " in one of the first " +
                    std::to_string(kPrefix) + " iterations");
  std::fprintf(stderr,
               "train: %llu iterations, %zu windows, loss %.3f -> %.3f, sgd gap %.2e\n",
               static_cast<unsigned long long>(iterations), window_rates.size(), initial_loss,
               final_loss, gap);

  put_engine_layers(spans, out);
  if (iterations > kWarmup) {
    out.per_layer["sim.events_per_iteration"] =
        static_cast<double>(bed.sim.executed() - events_measured) /
        static_cast<double>(iterations - kWarmup);
  }
  return out;
}

Outcome run_elastic(const Context& ctx, Budget budget, Spans& spans, Checks& checks) {
  constexpr int kWide = 8;                 // workers after a scale-out
  constexpr std::uint64_t kSettle = 2;     // iterations at a size before the next request
  constexpr int kGpuPool = 16;             // GPUs the job may be placed on
  // The heap keeps growing over the first ~10 cycles (allocator retention:
  // with a fixed mmap threshold the peak stays flat), so the peak is read
  // after a fixed number of cycles rather than at a run-length-dependent end.
  constexpr std::size_t kRssCycles = 4;
  double peak_rss = 0;
  const JobShape& shape = kElasticShape;
  const auto data = make_clusters(shape.samples, shape.layers.front(), shape.layers.back(),
                                  ctx.seed, 4.0);
  Testbed bed;
  auto job = make_job(bed, shape, data, ctx, spans);

  Outcome out;
  ExactlyOnce once(static_cast<std::uint64_t>(data->size()));
  std::uint64_t shard_samples = 0;
  int size = kInitialWorkers, expected = kInitialWorkers;
  std::uint64_t requested = 0, completed = 0, iterations_at_size = 0;
  bool first_at_size = false, stopping = false;
  std::vector<int> ids_before = job->worker_ids();
  std::vector<double> out_pause, in_pause, messages, cycle_rates;
  Clock::time_point setup_end, last_iteration, cycle_start;
  bool cycle_open = false;
  std::uint64_t cycle_samples = 0, sent_at_request = 0, events_at_start = 0;
  double check_s = 0, cycle_check_s = 0, measured_s = 0;

  job->on_data_consumed = [&](std::uint64_t epoch, const std::vector<data::SampleRange>& shards) {
    const auto now = Clock::now();
    if (job->iteration() == 0) {
      setup_end = now;
      events_at_start = bed.sim.executed();
    }
    for (const auto& shard : shards) shard_samples += shard.size();
    once.consume(epoch, shards);
    const int n = static_cast<int>(shards.size());
    if (n == size) return;
    // First iteration at the new size: the pause ends here.
    const bool grew = n > size;
    (grew ? out_pause : in_pause).push_back(ms_between(last_iteration, now));
    spans.add(grew ? "elan.scale_out_pause" : "elan.scale_in_pause", last_iteration, now);
    messages.push_back(static_cast<double>(bed.bus.stats().sent - sent_at_request));
    ++completed;
    checks.expect(n == expected, "elastic.schedule",
                  "expected " + std::to_string(expected) + " workers, got " + std::to_string(n));
    // Replica checks (outside the timed work): every replica equals a
    // survivor's state, so each joiner received the source's bytes.
    const auto c0 = Clock::now();
    const auto ids = job->worker_ids();
    std::uint64_t source = 0;
    for (int id : ids) {
      if (std::find(ids_before.begin(), ids_before.end(), id) != ids_before.end()) {
        source = state_hash(*job, id);
        break;
      }
    }
    std::set<std::uint64_t> hashes;
    for (int id : ids) {
      const std::uint64_t h = state_hash(*job, id);
      hashes.insert(h);
      const bool joiner = std::find(ids_before.begin(), ids_before.end(), id) == ids_before.end();
      if (joiner) {
        checks.expect(h == source, "elastic.joiner_checksum",
                      "worker " + std::to_string(id) + " differs from its source");
      }
    }
    checks.expect(hashes.size() == 1, "elastic.replicas_identical",
                  std::to_string(hashes.size()) + " distinct states after adjustment " +
                      std::to_string(completed));
    const double spent = seconds_between(c0, Clock::now());
    check_s += spent;
    cycle_check_s += spent;
    ids_before = ids;
    size = n;
    iterations_at_size = 0;
    first_at_size = true;
  };

  job->on_iteration = [&](std::uint64_t) {
    const auto now = Clock::now();
    if (!first_at_size && job->iteration() > 1) spans.add("elan.iteration", last_iteration, now);
    first_at_size = false;
    last_iteration = now;
    ++iterations_at_size;
    if (stopping || job->adjustment_pending() || iterations_at_size < kSettle) return;
    if (size == kInitialWorkers) {
      // Cycle boundary: close the previous cycle, maybe stop, open the next.
      if (cycle_open) {
        const double wall = seconds_between(cycle_start, now) - cycle_check_s;
        measured_s += wall;
        cycle_rates.push_back(static_cast<double>(job->samples_processed() - cycle_samples) / wall);
        if (cycle_rates.size() == kRssCycles) peak_rss = peak_rss_mb_self();
      }
      // At least two cycles, so that an epoch always turns over.
      const bool done = cycle_rates.size() >= 2 &&
                        (budget.seconds > 0
                             ? measured_s >= budget.seconds
                             : cycle_rates.size() >= static_cast<std::size_t>(budget.rounds));
      if (done) {
        stopping = true;
        job->stop();
        return;
      }
      cycle_open = true;
      cycle_start = now;
      cycle_check_s = 0;
      cycle_samples = job->samples_processed();
      std::set<int> used;
      for (int id : job->worker_ids()) used.insert(job->worker(id).gpu());
      std::vector<topo::GpuId> gpus;
      for (int g = 0; g < kGpuPool && static_cast<int>(gpus.size()) < kWide - size; ++g) {
        if (!used.count(g)) gpus.push_back(g);
      }
      expected = kWide;
      sent_at_request = bed.bus.stats().sent;
      ++requested;
      bed.sim.schedule(0.0, [&job, gpus] { job->request_scale_out(gpus); });
    } else {
      auto ids = job->worker_ids();
      std::sort(ids.begin(), ids.end());
      std::vector<int> victims(ids.end() - (size - kInitialWorkers), ids.end());
      expected = kInitialWorkers;
      sent_at_request = bed.bus.stats().sent;
      ++requested;
      bed.sim.schedule(0.0, [&job, victims] { job->request_scale_in(victims); });
    }
  };
  job->stop_after_iterations(1ULL << 40);
  job->start();
  bed.sim.run();
  out.per_layer["process.peak_rss_mb"] = peak_rss > 0 ? peak_rss : peak_rss_mb_self();

  out.attempted = requested;
  out.failed = requested - std::min(requested, completed);
  out.end_to_end["setup_s"] = seconds_between(ctx.process_start, setup_end);
  if (!cycle_rates.empty()) out.end_to_end["samples_per_s"] = median(cycle_rates);
  if (!out_pause.empty()) out.end_to_end["scale_out_pause_ms"] = median(out_pause);

  checks.expect(requested == completed && job->adjustments().size() == completed,
                "elastic.all_adjustments_completed",
                std::to_string(completed) + " of " + std::to_string(requested) + " completed");
  checks.expect(job->num_workers() == kInitialWorkers, "elastic.schedule",
                "ended with " + std::to_string(job->num_workers()) + " workers");
  checks.expect(job->consistent(), "elastic.replicas_identical", "program's consistent() is false");
  checks.expect(job->samples_processed() == shard_samples, "elastic.samples_accounted");
  once.report(checks, "elastic.exactly_once");
  const auto bus = bed.bus.stats();
  checks.expect(bus.sent == bus.delivered + bus.dropped + bus.to_unknown, "elastic.bus_accounting",
                "sent " + std::to_string(bus.sent) + " != delivered " +
                    std::to_string(bus.delivered) + " + dropped " + std::to_string(bus.dropped) +
                    " + to_unknown " + std::to_string(bus.to_unknown));
  std::fprintf(stderr,
               "elastic: %llu adjustments, %zu cycles, %llu iterations, out pause %.1f ms, "
               "in pause %.2f ms, checks %.2f s\n",
               static_cast<unsigned long long>(completed), cycle_rates.size(),
               static_cast<unsigned long long>(job->iteration()),
               out_pause.empty() ? 0.0 : median(out_pause),
               in_pause.empty() ? 0.0 : median(in_pause), check_s);

  put_engine_layers(spans, out);
  if (spans.enabled()) {
    const auto save = spans.durations_ms("elan.state_save");
    const auto load = spans.durations_ms("elan.state_load");
    if (!save.empty()) out.per_layer["elan.state_save_ms"] = median(save);
    if (!load.empty()) out.per_layer["elan.state_load_ms"] = median(load);
    const auto other =
        spans.self_ms("elan.scale_out_pause", {"elan.state_save", "elan.state_load"});
    if (!other.empty()) out.per_layer["elan.pause_other_ms"] = median(other);
  }
  if (!in_pause.empty()) out.per_layer["elan.scale_in_pause_ms"] = median(in_pause);
  if (!messages.empty()) out.per_layer["elan.messages_per_adjustment"] = median(messages);
  if (job->iteration() > 0) {
    out.per_layer["sim.events_per_iteration"] =
        static_cast<double>(bed.sim.executed() - events_at_start) /
        static_cast<double>(job->iteration());
    // Every joiner receives the whole serialized state stream.
    const auto stream = job->worker(job->worker_ids().front()).hooks().save_all().serialize();
    out.per_layer["elan.replication_bytes"] =
        static_cast<double>(stream.size()) * (kWide - kInitialWorkers);
  }
  return out;
}

}  // namespace elanbench
