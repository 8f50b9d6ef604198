// Single-layer probes of the traced run. Each one calls one module's public
// functions on inputs shaped like the workloads' (train's largest layer and
// shard, elastic's gradient and state sizes, the 4 -> 8 replication request)
// and reports the median of repeated calls.
#include <sys/stat.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <functional>
#include <mutex>

#include "bench.h"
#include "comm/group.h"
#include "common/blob.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "elan/replication.h"
#include "minidl/mlp.h"
#include "minidl/tensor.h"
#include "transport/socket_transport.h"

namespace elanbench {
namespace {

using namespace elan;

const std::vector<int> kTrainLayers{64, 256, 256, 10};
constexpr int kReplays = 3;  // sched replays of the traced run
const std::vector<int> kElasticLayers{256, 1024, 1024, 10};
constexpr int kTrainShard = 128;  // train's per-worker shard: 512 / 4 workers

std::size_t parameter_count(const std::vector<int>& layers) {
  std::size_t n = 0;
  for (std::size_t i = 0; i + 1 < layers.size(); ++i) {
    n += static_cast<std::size_t>(layers[i] + 1) * static_cast<std::size_t>(layers[i + 1]);
  }
  return n;
}

/// Median wall time (ms) of `reps` calls after `warmup` untimed ones.
double time_ms(int warmup, int reps, const std::function<void()>& fn) {
  for (int i = 0; i < warmup; ++i) fn();
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    ms.push_back(ms_between(t0, Clock::now()));
  }
  return median(ms);
}

minidl::Tensor random_tensor(int rows, int cols, Rng& rng) {
  minidl::Tensor t(rows, cols);
  for (auto& v : t.data()) v = static_cast<float>(rng.normal(0.0, 1.0));
  return t;
}

/// minidl kernels and the thread pool, at the program's default kernel mode
/// and at KernelMode::kVector (which no training path selects), with the
/// pool at 1 and at all CPUs.
void minidl_probes(const Context& ctx, Outcome& out) {
  Rng rng(ctx.seed);
  const auto a = random_tensor(kTrainShard, 256, rng);
  const auto b = random_tensor(256, 256, rng);
  const double flops = 2.0 * kTrainShard * 256 * 256;
  out.per_layer["minidl.matmul_gflops"] =
      flops / (time_ms(5, 200, [&] { (void)minidl::matmul(a, b); }) * 1e6);

  minidl::Mlp mlp(kTrainLayers, ctx.seed);
  const auto x = random_tensor(kTrainShard, kTrainLayers.front(), rng);
  std::vector<int> labels(kTrainShard);
  for (auto& l : labels) l = static_cast<int>(rng.uniform_int(0, kTrainLayers.back() - 1));
  const auto fb = [&] { mlp.loss(x, labels, true); };
  const auto at_threads = [&](int threads, const char* name) {
    ThreadPool::set_global_threads(threads);
    out.per_layer[name] = time_ms(5, 60, fb);
  };
  at_threads(1, "thread_pool.fb_1t_ms");
  at_threads(ctx.cpus, "thread_pool.fb_nt_ms");
  out.per_layer["thread_pool.dispatch_us"] = 1000.0 * time_ms(100, 2000, [&] {
    ThreadPool::global().parallel_for(0, ctx.cpus, 1, [](std::int64_t, std::int64_t) {});
  });
  {
    minidl::ScopedKernelMode vector(minidl::KernelMode::kVector);
    out.per_layer["minidl.matmul_vector_gflops"] =
        flops / (time_ms(5, 200, [&] { (void)minidl::matmul(a, b); }) * 1e6);
    at_threads(1, "thread_pool.fb_vector_1t_ms");
    at_threads(ctx.cpus, "thread_pool.fb_vector_nt_ms");
  }
  ThreadPool::set_global_threads(ctx.threads);
}

void comm_probes(Outcome& out) {
  const auto allreduce = [](int ranks, std::size_t length, int reps, double& ms, double& gbps) {
    std::vector<std::vector<double>> grads(static_cast<std::size_t>(ranks),
                                           std::vector<double>(length, 1e-3));
    std::vector<std::vector<double>*> ptrs;
    for (auto& g : grads) ptrs.push_back(&g);
    ms = time_ms(2, reps, [&] { comm::allreduce_sum(ptrs); });
    gbps = static_cast<double>(ranks) * static_cast<double>(length) * sizeof(double) / (ms * 1e6);
  };
  double ms = 0, gbps = 0;
  allreduce(8, parameter_count(kElasticLayers), 10, ms, gbps);
  out.per_layer["comm.allreduce_ms"] = ms;
  out.per_layer["comm.allreduce_gbps"] = gbps;
  allreduce(4, parameter_count(kTrainLayers), 40, ms, gbps);
  out.per_layer["comm.allreduce_small_ms"] = ms;
}

void elan_probes(Outcome& out) {
  // Parameters + momentum, 4 bytes each: the elastic replica's state.
  const Bytes state_bytes = parameter_count(kElasticLayers) * 8;
  Blob blob("state", state_bytes);
  blob.fill_pattern(7);
  const double fnv_ms = time_ms(1, 8, [&] { (void)fnv1a(blob.bytes()); });
  out.per_layer["elan.fnv1a_gbps"] = static_cast<double>(state_bytes) / (fnv_ms * 1e6);

  topo::Topology topology{topo::TopologySpec{}};
  topo::BandwidthModel bandwidth;
  ReplicationPlanner planner(topology, bandwidth);
  ReplicationRequest request;
  for (int w = 0; w < 4; ++w) request.existing.emplace(w, w);
  for (int w = 4; w < 8; ++w) request.joining.emplace(w, w);
  request.gpu_state_bytes = state_bytes;
  request.cpu_state_bytes = 65 * 1024;
  out.per_layer["elan.chunk_plan_us"] =
      1000.0 * time_ms(20, 300, [&] { (void)planner.chunk_plan(request); });
}

/// Two SocketTransport endpoints in this process. Every payload that comes
/// back (ping-pong) or arrives (stream, bulk) is compared byte for byte with
/// what was sent, and the transports' sent/delivered/dropped counters must
/// balance: a lost or corrupted message fails the run.
void transport_probes(const Context& ctx, Outcome& out, Checks& checks) {
  const std::string dir = ctx.work_dir + "/sock";
  ::mkdir(dir.c_str(), 0755);
  std::mutex mu;
  std::condition_variable cv;
  std::vector<transport::Payload> received;  // guarded by mu
  std::vector<Clock::time_point> arrivals;   // guarded by mu
  std::atomic<bool> echo{true};  // b echoes pings back to a, else keeps them
  transport::SocketTransport::Options options;
  options.dir = dir;
  transport::SocketTransport a(options), b(options);
  const auto collect = [&](const transport::Message& m) {
    std::lock_guard<std::mutex> lock(mu);
    received.push_back(m.payload);
    arrivals.push_back(Clock::now());
    cv.notify_all();
  };
  a.attach("a", collect);
  b.attach("b", [&](const transport::Message& m) {
    if (echo) {
      b.send(transport::Message{0, "b", "a", "pong", m.payload, false, 0});
    } else {
      collect(m);
    }
  });
  const auto wait_for = [&](std::size_t n, double seconds) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::duration<double>(seconds),
                       [&] { return received.size() >= n; });
  };
  const auto reset = [&] {
    std::lock_guard<std::mutex> lock(mu);
    received.clear();
    arrivals.clear();
  };
  Rng rng(ctx.seed);
  const auto pattern = [&rng](std::size_t size, std::uint64_t tag) {
    std::vector<std::uint8_t> bytes(size);
    for (auto& v : bytes) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    std::memcpy(bytes.data(), &tag, std::min(size, sizeof(tag)));
    return bytes;
  };
  std::uint64_t sent = 0, corrupt = 0, lost = 0;

  // Ping-pong: round-trip time of 64-byte messages.
  constexpr int kPings = 2000, kPingWarmup = 100;
  std::vector<double> rtt_us;
  for (int i = 0; i < kPingWarmup + kPings; ++i) {
    reset();
    const auto bytes = pattern(64, static_cast<std::uint64_t>(i));
    const auto t0 = Clock::now();
    a.send(transport::Message{0, "a", "b", "ping", bytes, false, 0});
    ++sent;
    if (!wait_for(1, 2.0)) {
      ++lost;
      continue;
    }
    const auto t1 = Clock::now();
    std::lock_guard<std::mutex> lock(mu);
    const auto& back = received.front();
    if (back.size() != bytes.size() || std::memcmp(back.data(), bytes.data(), bytes.size()) != 0) {
      ++corrupt;
    }
    if (i >= kPingWarmup) rtt_us.push_back(1e6 * seconds_between(t0, t1));
  }
  if (!rtt_us.empty()) {
    out.per_layer["transport.socket_rtt_us_p50"] = quantile(rtt_us, 0.5);
    out.per_layer["transport.socket_rtt_us_p99"] = quantile(rtt_us, 0.99);
  }

  // One-way phases: b keeps what arrives; a sends `count` messages of `size`.
  echo = false;
  const auto one_way = [&](int count, std::size_t size) {
    reset();
    std::vector<std::vector<std::uint8_t>> expected;
    for (int i = 0; i < count; ++i) expected.push_back(pattern(size, static_cast<std::uint64_t>(i)));
    const auto t0 = Clock::now();
    for (int i = 0; i < count; ++i) {
      a.send(transport::Message{0, "a", "b", "data", expected[static_cast<std::size_t>(i)], false, 0});
      ++sent;
    }
    const bool all = wait_for(static_cast<std::size_t>(count), 10.0);
    std::lock_guard<std::mutex> lock(mu);
    lost += static_cast<std::uint64_t>(count) - received.size();
    for (std::size_t i = 0; i < received.size(); ++i) {
      // Frames on one link arrive in send order.
      const auto& want = expected[i];
      if (received[i].size() != want.size() ||
          std::memcmp(received[i].data(), want.data(), want.size()) != 0) {
        ++corrupt;
      }
    }
    return all && !arrivals.empty() ? seconds_between(t0, arrivals.back()) : INFINITY;
  };
  constexpr int kStream = 20000;
  out.per_layer["transport.socket_msgs_per_s"] = kStream / one_way(kStream, 64);
  constexpr int kBulk = 16;
  constexpr std::size_t kBulkBytes = 4u << 20;
  out.per_layer["transport.socket_payload_gbps"] =
      kBulk * static_cast<double>(kBulkBytes) / (one_way(kBulk, kBulkBytes) * 1e9);

  a.shutdown();
  b.shutdown();
  const auto sa = a.stats(), sb = b.stats();
  checks.expect(lost == 0 && corrupt == 0, "transport.payload_integrity",
                std::to_string(lost) + " lost, " + std::to_string(corrupt) + " corrupted of " +
                    std::to_string(sent));
  checks.expect(sa.sent == sent && sb.delivered == sent && sa.delivered == sb.sent &&
                    sa.dropped + sb.dropped + sa.to_unknown + sb.to_unknown == 0,
                "transport.accounting",
                "a sent " + std::to_string(sa.sent) + " delivered " +
                    std::to_string(sa.delivered) + " dropped " + std::to_string(sa.dropped) +
                    "; b sent " + std::to_string(sb.sent) + " delivered " +
                    std::to_string(sb.delivered) + " dropped " + std::to_string(sb.dropped));
  std::fprintf(stderr, "transport: %llu messages sent, %llu delivered, %llu dropped\n",
               static_cast<unsigned long long>(sa.sent + sb.sent),
               static_cast<unsigned long long>(sa.delivered + sb.delivered),
               static_cast<unsigned long long>(sa.dropped + sb.dropped));
}

void fill_missing(Outcome& out, const Outcome& from) {
  for (const auto& [k, v] : from.per_layer) out.per_layer.emplace(k, v);
  out.attempted += from.attempted;
  out.failed += from.failed;
}

}  // namespace

void run_probes(const Context& ctx, Outcome& out, Checks& checks) {
  minidl_probes(ctx, out);
  comm_probes(out);
  elan_probes(out);
  transport_probes(ctx, out, checks);
  fill_missing(out, run_replay(ctx, kReplays, checks));
}

}  // namespace elanbench
