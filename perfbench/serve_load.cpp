// serve_load — in-process load generator behind perfbench/run.py.
//
// Three modes, each a separate process so every measurement owns its
// address space (peak RSS, RIPPLE_THREADS):
//
//   fixtures  builds the workload's proposed-variant networks from the
//             seed (no training, no datasets), deploys them and saves the
//             .rpla artifacts the other modes open;
//   serve     sets up a ModelServer on those artifacts (timed, repeated),
//             drives the workload's load through ModelServer::submit,
//             checks a seeded sample of responses bit-exactly against
//             oracle InferenceSessions, and prints one JSON line of
//             end-to-end metrics — or, with --trace 1, runs an untraced
//             and a traced phase and prints the per-layer metrics;
//   replay    times warmed InferenceSession::predict_into at the
//             workload's modal shape (run under RIPPLE_THREADS=1 and
//             =nproc), and with --full also the crossbar-vs-fp32 replay
//             and the public GEMM on the shape dominating the plan's op
//             profile.
//
// Every layer is observed from outside through the public API: timed
// calls to submit/hot_swap/load_model/predict_into, unit_metrics(),
// counters(), the serve::trace stage histograms and events, and the plan
// op profiles deploy::set_plan_profiling turns on.
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "deploy/deploy.h"
#include "deploy/plan.h"
#include "deploy/trace.h"
#include "models/lstm_forecaster.h"
#include "models/m5.h"
#include "models/resnet.h"
#include "serve/prom.h"
#include "serve/server.h"
#include "serve/status.h"
#include "serve/tenant.h"
#include "serve/trace.h"
#include "tensor/gemm.h"
#include "tensor/random.h"
#include "tensor/threadpool.h"

using namespace ripple;
using Clock = std::chrono::steady_clock;

namespace {

// ---- workloads --------------------------------------------------------------

enum class Arch { kLstm, kResNet, kM5 };

struct Workload {
  std::string name;
  Arch arch;
  serve::TaskKind task;
  deploy::Backend backend = deploy::Backend::kFp32;
  int tenants = 1;
  int replicas = 1;          // >1: a ClusterController fleet per tenant
  bool open_loop = true;
  double rate_rps = 0.0;     // open loop: Poisson arrival rate
  int clients = 0;           // closed loop: one tenant per client
  int rows_min = 1;          // request row counts, uniform
  int rows_max = 1;
  int modal_rows = 1;        // replay shape
  double limit_ms = 0.0;     // goodput latency limit
  int64_t deadline_us = 0;   // per-request deadline (0 = server default)
  double swap_period_s = 0;  // hot_swap cadence while measuring (0 = none)
  int artifacts = 1;         // distinct weight sets the swaps cycle through
  int setup_reps = 9;        // set-ups per run (median reported)
  int64_t batch_max_delay_us = 1000;
  // peak_rss_mb is the high-water mark once set-up and cache warm-up are
  // done instead of after the measured phase: fleets respawn dispatcher
  // threads on every swap, and the glibc thread arenas that churn leaves
  // grew the mark by 1-12 MiB at random from run to run.
  bool rss_at_setup = false;
  // Events per trace ring. Rings are per finishing thread and live for the
  // process, so fleets, whose units respawn dispatcher threads on every
  // swap, get small rings.
  size_t trace_ring = size_t{1} << 16;
};

// The rates, limits and client counts are pinned here, never tuned at run
// time; perfbench/README.md records why each workload exists.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {.name = "edge-forecast",
       .arch = Arch::kLstm,
       .task = serve::TaskKind::kRegression,
       .tenants = 4,
       .rate_rps = 800.0,
       .limit_ms = 10.0,
       .setup_reps = 15},
      // batch_max_delay_us = 0: each closed-loop client has one request
      // outstanding, so a coalescing delay would only add idle time.
      {.name = "image-mixed",
       .arch = Arch::kResNet,
       .task = serve::TaskKind::kClassification,
       .tenants = 3,
       .open_loop = false,
       .clients = 3,
       .rows_max = 16,
       .modal_rows = 8,
       .limit_ms = 100.0,
       .setup_reps = 3,
       .batch_max_delay_us = 0},
      {.name = "fleet-swap",
       .arch = Arch::kM5,
       .task = serve::TaskKind::kClassification,
       .backend = deploy::Backend::kCrossbar,
       .tenants = 2,
       .replicas = 2,
       .rate_rps = 300.0,
       .limit_ms = 50.0,
       .deadline_us = 100'000,
       .swap_period_s = 1.0,
       .artifacts = 2,
       .setup_reps = 25,
       .rss_at_setup = true,
       .trace_ring = size_t{1} << 12},
  };
  return all;
}

const Workload& workload_named(const std::string& name) {
  for (const Workload& w : workloads())
    if (w.name == name) return w;
  throw std::runtime_error("unknown workload '" + name + "'");
}

constexpr int kMcSamples = 8;
constexpr double kWarmupS = 1.0;
// A request still unresolved this long after its phase ended is lost: the
// conservation check fails instead of the run hanging.
constexpr double kResolveGraceS = 5.0;
const char* kModelName = "model";

deploy::CrossbarBackendOptions crossbar_options() {
  deploy::CrossbarBackendOptions cb;
  cb.geometry = imc::TileGeometry{64, 64};
  cb.slice_bits = 8;
  cb.adc_share = 8;
  return cb;
}

deploy::DeployOptions deploy_options(const Workload& w) {
  deploy::DeployOptions d;
  d.backend = w.backend;
  if (w.backend == deploy::Backend::kCrossbar) d.crossbar = crossbar_options();
  return d;
}

uint64_t mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

serve::SessionOptions session_defaults(const Workload& w, uint64_t seed) {
  serve::SessionOptions s;
  s.task = w.task;
  s.mc_samples = kMcSamples;
  s.seed = mix(seed ^ 0x5e55104ull);
  s.batch_max_delay_us = w.batch_max_delay_us;
  return s;
}

Shape input_shape(const Workload& w, int64_t rows) {
  switch (w.arch) {
    case Arch::kLstm:
      return {rows, 24, 1};
    case Arch::kResNet:
      return {rows, 3, 16, 16};
    case Arch::kM5:
      return {rows, 1, 512};
  }
  return {};
}

std::unique_ptr<models::TaskModel> build_network(const Workload& w,
                                                 uint64_t seed) {
  Rng rng(seed);
  models::VariantConfig proposed;
  proposed.variant = models::Variant::kProposed;
  switch (w.arch) {
    case Arch::kLstm:
      return std::make_unique<models::LstmForecaster>(
          models::LstmForecaster::Topology{.hidden = 24, .window = 24},
          proposed, &rng);
    case Arch::kResNet:
      return std::make_unique<models::BinaryResNet>(
          models::BinaryResNet::Topology{
              .in_channels = 3, .classes = 10, .width = 12},
          proposed, &rng);
    case Arch::kM5:
      return std::make_unique<models::M5>(
          models::M5::Topology{
              .classes = 8, .width = 12, .input_length = 512},
          proposed, &rng);
  }
  return nullptr;
}

std::string artifact_path(const std::string& dir, const Workload& w, int k) {
  return dir + "/" + w.name + "-" + std::to_string(k) + ".rpla";
}

// ---- small utilities --------------------------------------------------------

int64_t ns_since(Clock::time_point t0, Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - t0).count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

/// Insertion-ordered metric list rendered as the result line's
/// {"name": {"value": v, "unit": u}} object.
struct Metrics {
  std::vector<std::tuple<std::string, double, std::string>> rows;
  void add(const std::string& name, double value, const std::string& unit) {
    rows.emplace_back(name, std::isfinite(value) ? value : 0.0, unit);
  }
  std::string json() const {
    std::ostringstream out;
    out.precision(17);
    out << "{";
    for (size_t i = 0; i < rows.size(); ++i) {
      const auto& [name, value, unit] = rows[i];
      out << (i ? ", " : "") << "\"" << name << "\": {\"value\": " << value
          << ", \"unit\": \"" << unit << "\"}";
    }
    out << "}";
    return out.str();
  }
};

bool tensors_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.numel())) == 0;
}

bool predictions_equal(const serve::Prediction& got,
                       const serve::Prediction& want) {
  if (const auto* g = std::get_if<serve::Regression>(&got)) {
    const auto* w = std::get_if<serve::Regression>(&want);
    return w && g->samples == w->samples && tensors_equal(g->mean, w->mean) &&
           tensors_equal(g->stddev, w->stddev);
  }
  if (const auto* g = std::get_if<serve::Classification>(&got)) {
    const auto* w = std::get_if<serve::Classification>(&want);
    return w && g->samples == w->samples &&
           g->predictions == w->predictions &&
           tensors_equal(g->mean_probs, w->mean_probs) &&
           tensors_equal(g->variance, w->variance) &&
           tensors_equal(g->entropy, w->entropy);
  }
  return false;
}

std::string tenant_id(const Workload& w, int t) {
  return w.name + "-t" + std::to_string(t);
}

// ---- inputs -----------------------------------------------------------------

constexpr int kInputsPerShape = 8;

/// Seeded request inputs: kInputsPerShape tensors per row count.
struct InputPool {
  std::map<int, std::vector<Tensor>> by_rows;

  InputPool(const Workload& w, uint64_t seed) {
    Rng rng(mix(seed ^ 0x1270u));
    for (int r = w.rows_min; r <= w.rows_max; ++r)
      for (int i = 0; i < kInputsPerShape; ++i)
        by_rows[r].push_back(Tensor::randn(input_shape(w, r), rng));
  }
  const Tensor& get(int rows, int index) const {
    return by_rows.at(rows)[static_cast<size_t>(index)];
  }
};

// ---- set-up -----------------------------------------------------------------

struct Setup {
  std::unique_ptr<serve::ModelServer> server;
  double seconds = 0.0;
  uint64_t requests = 0;
};

serve::ServerOptions server_options(const Workload& w) {
  serve::ServerOptions o;
  o.deploy = deploy_options(w);
  o.replicas = w.replicas;
  return o;
}

serve::Request make_request(const Workload& w, int tenant,
                            const Tensor& input) {
  serve::Request r;
  r.tenant = tenant_id(w, tenant);
  r.model.name = kModelName;
  r.input = input;
  return r;
}

/// ModelServer construction through load_model plus one served request per
/// (tenant, distinct row count), in sequence: session open, plan compile
/// and crossbar programming all land here.
Setup set_up(const Workload& w, const std::string& dir,
             const InputPool& inputs) {
  Setup s;
  const auto t0 = Clock::now();
  s.server = std::make_unique<serve::ModelServer>(server_options(w));
  s.server->load_model(kModelName, "v0", artifact_path(dir, w, 0));
  for (int t = 0; t < w.tenants; ++t) {
    for (int r = w.rows_min; r <= w.rows_max; ++r) {
      serve::Response resp =
          s.server->serve(make_request(w, t, inputs.get(r, 0)));
      if (resp.status != serve::Status::kOk)
        throw std::runtime_error("set-up request failed: " + resp.error);
      ++s.requests;
    }
  }
  s.seconds = ns_since(t0, Clock::now()) / 1e9;
  return s;
}

/// Lets the plan caches fill before anything is timed: per tenant, bursts
/// of k = 1..8 back-to-back requests, which a batcher coalesces into
/// k-request batches — the shapes an open-loop arrival process produces
/// only occasionally, and whose first compile would otherwise land at a
/// random point of the measured phase. Where peak_rss_mb is read after the
/// phase, a last burst of the largest batch runs on the graph path (the
/// 8-plan cache is full by then), so that path's first allocations land
/// here too rather than whenever a 9-request batch first forms.
uint64_t fill_plan_caches(serve::ModelServer& server, const Workload& w,
                          const InputPool& inputs) {
  uint64_t sent = 0;
  std::vector<int> bursts = {1, 2, 3, 4, 5, 6, 7, 8};
  if (!w.rss_at_setup)
    bursts.push_back(serve::SessionOptions{}.batch_max_requests);
  for (int t = 0; t < w.tenants; ++t) {
    for (int k : bursts) {
      std::vector<std::future<serve::Prediction>> burst;
      for (int i = 0; i < k; ++i)
        burst.push_back(server.submit(
            make_request(w, t, inputs.get(w.modal_rows, i % kInputsPerShape))));
      for (auto& f : burst) f.get();
      sent += static_cast<uint64_t>(k);
    }
  }
  return sent;
}

// ---- host steal -------------------------------------------------------------

/// Share of CPU time the hypervisor stole from this VM since `from`
/// (the cpu line of /proc/stat): steal / all jiffies. Reported with every
/// run.
struct CpuTimes {
  uint64_t steal = 0, total = 0;
};

CpuTimes read_cpu_times() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTimes t;
  uint64_t v = 0;
  for (int field = 0; field < 8 && in >> v; ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double steal_frac(const CpuTimes& from, const CpuTimes& to) {
  const uint64_t total = to.total - from.total;
  return total ? static_cast<double>(to.steal - from.steal) /
                     static_cast<double>(total)
               : 0.0;
}

/// Cumulative steal jiffies, read every kStealSampleMs while a phase runs.
/// Requests in flight across an interval in which the host stole CPU time
/// are left out of the latency quantiles (see stats_of).
struct StealSample {
  int64_t t_ns;
  uint64_t steal;
};

constexpr int64_t kStealSampleMs = 100;

// ---- load generation --------------------------------------------------------

struct Record {
  int64_t due_ns = 0;   // open loop: scheduled send; closed loop: submit
  int64_t send_ns = 0;  // submit() entered
  int64_t ret_ns = 0;   // submit() returned
  int64_t done_ns = 0;  // future observed ready
  int rows = 0;
  int tenant = 0;
  int input = 0;
  bool resolved = false;
  bool ok = false;
  bool sampled = false;
  bool measured = false;
  serve::Status status = serve::Status::kOk;
};

struct Swap {
  int version = 0;
  int artifact = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

struct Phase {
  std::vector<Record> records;
  std::map<size_t, serve::Prediction> outputs;  // sampled responses
  std::vector<Swap> swaps;
  std::vector<std::vector<serve::UnitMetricsRow>> pre_swap_units;
  std::vector<StealSample> steal;
  double seconds = 0.0;  // measured window
};

/// Oracle sampling: about 1 in `every` requests, chosen from the seed.
bool sampled(uint64_t seed, size_t i, uint64_t every) {
  return mix(seed ^ (0xc0ffeeull + i)) % every == 0;
}

void record_result(Record& rec, std::future<serve::Prediction>& fut,
                   serve::Prediction* keep) {
  rec.resolved = true;
  try {
    serve::Prediction p = fut.get();
    rec.ok = true;
    if (keep) *keep = std::move(p);
  } catch (const serve::ServeError& e) {
    rec.status = e.status();
  } catch (const std::exception&) {
    rec.status = serve::Status::kClosed;
  }
}

struct Pending {
  size_t index;
  std::future<serve::Prediction> future;
};

/// Open loop: one sender submits on a seeded Poisson schedule; the calling
/// thread collects completions (polling the outstanding futures, the
/// oldest with a 20 µs timed wait) until kResolveGraceS past the phase's
/// end and samples the host's steal; fleet workloads add a swapper thread.
Phase run_open_loop(serve::ModelServer& server, const Workload& w,
                    const InputPool& inputs, uint64_t seed, double seconds,
                    int* next_version, const std::string& dir) {
  Phase ph;
  Rng rng(mix(seed ^ 0x0be1u));
  const double total = kWarmupS + seconds;
  // Reserved up front: vector growth would leave a run-dependent mark in
  // the process's peak RSS.
  ph.records.reserve(static_cast<size_t>(1.2 * w.rate_rps * total) + 64);
  double t = 0.0;
  for (size_t i = 0;; ++i) {
    t += -std::log(1.0 - static_cast<double>(rng.uniform())) / w.rate_rps;
    if (t >= total) break;
    Record rec;
    rec.due_ns = static_cast<int64_t>(t * 1e9);
    rec.tenant = static_cast<int>(i % static_cast<size_t>(w.tenants));
    rec.rows = static_cast<int>(rng.randint(w.rows_min, w.rows_max));
    rec.input = static_cast<int>(rng.randint(0, kInputsPerShape - 1));
    rec.sampled = sampled(seed, i, 32);
    rec.measured = t >= kWarmupS;
    ph.records.push_back(rec);
  }
  ph.seconds = seconds;

  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> queue;
  bool sender_done = false;

  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  // A throw on a load-generator thread is carried to the caller after the
  // join; the sender still signals completion so the collector drains.
  std::exception_ptr failure;
  std::mutex failure_mu;
  auto fail = [&] {
    std::lock_guard<std::mutex> lock(failure_mu);
    if (!failure) failure = std::current_exception();
  };
  std::thread sender([&] {
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    try {
      for (size_t i = 0; i < ph.records.size(); ++i) {
        Record& rec = ph.records[i];
        const auto due = t0 + std::chrono::nanoseconds(rec.due_ns);
        // Built before the due time, so building it is not in the latency.
        serve::Request request =
            make_request(w, rec.tenant, inputs.get(rec.rows, rec.input));
        if (w.deadline_us > 0)
          request.deadline = due + std::chrono::microseconds(w.deadline_us);
        std::this_thread::sleep_until(due);
        const auto s = Clock::now();
        std::future<serve::Prediction> fut = server.submit(std::move(request));
        const auto r = Clock::now();
        rec.send_ns = ns_since(t0, s);
        rec.ret_ns = ns_since(t0, r);
        {
          std::lock_guard<std::mutex> lock(mu);
          queue.push_back({i, std::move(fut)});
        }
        cv.notify_one();
      }
    } catch (...) {
      fail();
    }
    std::lock_guard<std::mutex> lock(mu);
    sender_done = true;
    cv.notify_one();
  });

  std::thread swapper;
  if (w.swap_period_s > 0.0) {
    swapper = std::thread([&] {
      try {
        for (double at = kWarmupS + w.swap_period_s; at < total;
             at += w.swap_period_s) {
          std::this_thread::sleep_until(
              t0 + std::chrono::nanoseconds(static_cast<int64_t>(at * 1e9)));
          Swap sw;
          sw.version = (*next_version)++;
          sw.artifact = sw.version % w.artifacts;
          ph.pre_swap_units.push_back(server.unit_metrics());
          const auto s = Clock::now();
          server.hot_swap(kModelName, "v" + std::to_string(sw.version),
                          artifact_path(dir, w, sw.artifact));
          sw.start_ns = ns_since(t0, s);
          sw.end_ns = ns_since(t0, Clock::now());
          ph.swaps.push_back(sw);
        }
      } catch (...) {
        fail();
      }
    });
  }

  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  const auto resolve_by =
      t0 + std::chrono::nanoseconds(
               static_cast<int64_t>((total + kResolveGraceS) * 1e9));
  std::vector<Pending> outstanding;
  auto next_steal = t0;
  for (;;) {
    if (Clock::now() >= next_steal) {
      ph.steal.push_back({ns_since(t0, Clock::now()), read_cpu_times().steal});
      next_steal += std::chrono::milliseconds(kStealSampleMs);
    }
    {
      std::unique_lock<std::mutex> lock(mu);
      if (outstanding.empty())
        cv.wait(lock, [&] { return !queue.empty() || sender_done; });
      while (!queue.empty()) {
        outstanding.push_back(std::move(queue.front()));
        queue.pop_front();
      }
      // Whatever is still outstanding past resolve_by stays unresolved.
      if (sender_done &&
          (outstanding.empty() || Clock::now() > resolve_by))
        break;
    }
    outstanding.front().future.wait_for(std::chrono::microseconds(20));
    size_t kept = 0;
    for (size_t j = 0; j < outstanding.size(); ++j) {
      Pending& p = outstanding[j];
      if (p.future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        Record& rec = ph.records[p.index];
        rec.done_ns = ns_since(t0, Clock::now());
        record_result(rec, p.future,
                      rec.sampled ? &ph.outputs[p.index] : nullptr);
      } else {
        if (kept != j) outstanding[kept] = std::move(p);
        ++kept;
      }
    }
    outstanding.resize(kept);
  }
  sender.join();
  if (swapper.joinable()) swapper.join();
  if (failure) std::rethrow_exception(failure);
  return ph;
}

/// Closed loop: each client thread owns one tenant and keeps exactly one
/// request outstanding; latency runs from submit to completion; the calling
/// thread samples the host's steal. A client
/// whose request is still unresolved kResolveGraceS past the phase's end
/// records it unresolved and stops.
Phase run_closed_loop(serve::ModelServer& server, const Workload& w,
                      const InputPool& inputs, uint64_t seed,
                      double seconds) {
  Phase ph;
  ph.seconds = seconds;
  const double total = kWarmupS + seconds;
  const int64_t warm_ns = static_cast<int64_t>(kWarmupS * 1e9);
  const int64_t total_ns = static_cast<int64_t>(total * 1e9);
  std::vector<std::vector<Record>> per_client(w.clients);
  std::vector<std::map<size_t, serve::Prediction>> outs(w.clients);
  std::vector<std::exception_ptr> failures(w.clients);
  const Clock::time_point t0 = Clock::now();
  const auto end = t0 + std::chrono::nanoseconds(total_ns);
  const auto resolve_by =
      end + std::chrono::nanoseconds(
                static_cast<int64_t>(kResolveGraceS * 1e9));

  auto run_client = [&](int c) {
    Rng rng(mix(seed ^ (0xc11e47ull + static_cast<uint64_t>(c))));
    auto& recs = per_client[c];
    recs.reserve(4096);
    // Row counts come in seeded permutations of rows_min..rows_max, so
    // every run serves the same uniform mix; the seed sets the order.
    std::vector<int> rows;
    for (size_t i = 0; Clock::now() < end; ++i) {
      if (rows.empty()) {
        for (int r = w.rows_max; r >= w.rows_min; --r) rows.push_back(r);
        for (size_t j = rows.size() - 1; j > 0; --j)
          std::swap(rows[j], rows[static_cast<size_t>(
                                 rng.randint(0, static_cast<int64_t>(j)))]);
      }
      Record rec;
      rec.tenant = c % w.tenants;
      rec.rows = rows.back();
      rows.pop_back();
      rec.input = static_cast<int>(rng.randint(0, kInputsPerShape - 1));
      rec.sampled = sampled(seed ^ static_cast<uint64_t>(c), i, 16);
      serve::Request req =
          make_request(w, rec.tenant, inputs.get(rec.rows, rec.input));
      const auto s = Clock::now();
      std::future<serve::Prediction> fut = server.submit(std::move(req));
      const auto r = Clock::now();
      rec.due_ns = rec.send_ns = ns_since(t0, s);
      rec.ret_ns = ns_since(t0, r);
      if (fut.wait_until(resolve_by) != std::future_status::ready) {
        recs.push_back(rec);
        break;
      }
      serve::Prediction out;
      record_result(rec, fut, rec.sampled ? &out : nullptr);
      rec.done_ns = ns_since(t0, Clock::now());
      rec.measured = rec.done_ns >= warm_ns && rec.done_ns < total_ns;
      if (rec.sampled) outs[c][recs.size()] = std::move(out);
      recs.push_back(rec);
    }
  };

  std::vector<std::thread> clients;
  std::atomic<int> running{w.clients};
  for (int c = 0; c < w.clients; ++c) {
    clients.emplace_back([&, c] {
      try {
        run_client(c);
      } catch (...) {
        failures[static_cast<size_t>(c)] = std::current_exception();
      }
      running.fetch_sub(1);
    });
  }
  // The calling thread samples the host's steal while the clients run.
  for (auto next = t0; running.load() > 0;
       next += std::chrono::milliseconds(kStealSampleMs)) {
    ph.steal.push_back({ns_since(t0, Clock::now()), read_cpu_times().steal});
    std::this_thread::sleep_until(next +
                                  std::chrono::milliseconds(kStealSampleMs));
  }
  for (std::thread& t : clients) t.join();
  for (const std::exception_ptr& f : failures)
    if (f) std::rethrow_exception(f);
  for (int c = 0; c < w.clients; ++c) {
    for (auto& [i, p] : outs[c])
      ph.outputs[ph.records.size() + i] = std::move(p);
    ph.records.insert(ph.records.end(), per_client[c].begin(),
                      per_client[c].end());
  }
  return ph;
}

// ---- phase statistics -------------------------------------------------------

struct PhaseStats {
  uint64_t sent = 0, ok = 0, failed = 0, refused = 0;
  // Per kRateWindowS window of the measured phase (by due time in an open
  // loop, by completion in a closed one): rows/s and in-limit completions/s.
  std::vector<double> window_rows, window_good;
  std::vector<double> latency_ms;  // OK requests, in due-time order
  // The OK requests in flight across no interval in which the host stole
  // CPU time: the samples of the latency quantiles.
  std::vector<double> quiet_ms;
  size_t stolen_intervals = 0, intervals = 0;
  std::vector<double> lag_us;
  std::vector<double> submit_us;
  double mean_latency_ms = 0.0;
  double backlog_ratio = 1.0;  // completions / sends in the last window
};

constexpr double kRateWindowS = 5.0;

PhaseStats stats_of(const Phase& ph, const Workload& w) {
  PhaseStats s;
  const int64_t end_ns = static_cast<int64_t>((kWarmupS + ph.seconds) * 1e9);
  const int64_t window_ns = static_cast<int64_t>(
      std::max(1.0, 0.1 * ph.seconds) * 1e9);
  uint64_t window_sent = 0, window_done = 0;
  double sum = 0.0;
  const size_t windows = static_cast<size_t>(
      std::max(1.0, std::round(ph.seconds / kRateWindowS)));
  const double window_s = ph.seconds / static_cast<double>(windows);
  s.window_rows.assign(windows, 0.0);
  s.window_good.assign(windows, 0.0);
  // [from, to] spans between steal samples whose steal count grew; the
  // counts are of the measured phase's intervals.
  std::vector<std::pair<int64_t, int64_t>> stolen;
  for (size_t i = 1; i < ph.steal.size(); ++i) {
    const bool grew = ph.steal[i].steal > ph.steal[i - 1].steal;
    if (grew) stolen.emplace_back(ph.steal[i - 1].t_ns, ph.steal[i].t_ns);
    if (ph.steal[i].t_ns >= static_cast<int64_t>(kWarmupS * 1e9) &&
        ph.steal[i - 1].t_ns <= end_ns) {
      ++s.intervals;
      s.stolen_intervals += grew ? 1 : 0;
    }
  }
  auto in_stolen = [&](const Record& r) {
    auto it = std::lower_bound(
        stolen.begin(), stolen.end(), r.due_ns,
        [](const std::pair<int64_t, int64_t>& iv, int64_t t) {
          return iv.second < t;
        });
    return it != stolen.end() && it->first <= r.done_ns;
  };
  std::vector<const Record*> by_due;
  for (const Record& r : ph.records)
    if (r.measured) by_due.push_back(&r);
  std::sort(by_due.begin(), by_due.end(),
            [](const Record* a, const Record* b) {
              return a->due_ns < b->due_ns;
            });
  for (const Record* rp : by_due) {
    const Record& r = *rp;
    ++s.sent;
    const double lat_ms = (r.done_ns - r.due_ns) / 1e6;
    if (r.ok) {
      ++s.ok;
      const double at_s =
          (w.open_loop ? r.due_ns : r.done_ns) / 1e9 - kWarmupS;
      const size_t win = std::min(
          windows - 1, static_cast<size_t>(std::max(0.0, at_s / window_s)));
      s.window_rows[win] += r.rows / window_s;
      if (lat_ms <= w.limit_ms) s.window_good[win] += 1.0 / window_s;
      s.latency_ms.push_back(lat_ms);
      if (!in_stolen(r)) s.quiet_ms.push_back(lat_ms);
      sum += lat_ms;
    } else if (r.status == serve::Status::kOverloaded ||
               r.status == serve::Status::kQuotaExceeded) {
      ++s.refused;
    } else {
      ++s.failed;
    }
    if (w.open_loop) s.lag_us.push_back((r.send_ns - r.due_ns) / 1e3);
    s.submit_us.push_back((r.ret_ns - r.send_ns) / 1e3);
  }
  if (w.open_loop) {
    for (const Record& r : ph.records) {
      if (r.due_ns >= end_ns - window_ns && r.due_ns < end_ns) ++window_sent;
      if (r.done_ns >= end_ns - window_ns && r.done_ns < end_ns) ++window_done;
    }
    s.backlog_ratio = window_sent ? static_cast<double>(window_done) /
                                        static_cast<double>(window_sent)
                                  : 1.0;
  }
  s.mean_latency_ms = s.ok ? sum / static_cast<double>(s.ok) : 0.0;
  return s;
}

/// Share of the OK requests that must have run clear of host steal for the
/// latency quantiles to stand for the phase.
constexpr double kMinQuietFrac = 0.25;

/// Harness validity: a run whose generator fell behind, whose backlog grew,
/// whose host stole CPU time under too many of its requests, or whose
/// sample cannot support a p99 (>= 10 samples past it) reports no latency
/// at all. Traced runs skip the steal check: they report no quantiles.
std::string invalid_reason(const PhaseStats& s, const Workload& w,
                           bool check_steal) {
  const size_t samples =
      check_steal ? s.quiet_ms.size() : s.latency_ms.size();
  if (samples < 1000)
    return "only " + std::to_string(samples) +
           " latency samples; p99 needs >= 1000";
  if (check_steal &&
      static_cast<double>(s.quiet_ms.size()) <
          kMinQuietFrac * static_cast<double>(s.latency_ms.size()))
    return "the host stole CPU time under " +
           std::to_string(s.latency_ms.size() - s.quiet_ms.size()) + " of " +
           std::to_string(s.latency_ms.size()) + " requests";
  if (w.open_loop) {
    const double lag_p99 = quantile(s.lag_us, 0.99);
    // Lateness is inside every latency (timed from the due time); a run
    // is void once lateness alone would break the latency limit.
    if (lag_p99 > 1e3 * w.limit_ms)
      return "generator lateness p99 " + std::to_string(lag_p99) +
             " us exceeds the latency limit";
    if (s.backlog_ratio < 0.9)
      return "backlog: completions kept up with only " +
             std::to_string(s.backlog_ratio) + " of sends in the last window";
  }
  return {};
}

// ---- correctness gate -------------------------------------------------------

/// Oracle sessions opened with each unit's seeds: artifact seed + tenant
/// salt, plus replica index i for fleets (crossbar programming seed too).
class Oracles {
 public:
  Oracles(const Workload& w, const std::string& dir, uint64_t seed)
      : w_(w), dir_(dir), seed_(seed) {}

  const serve::Prediction& want(int artifact, int tenant, int replica,
                                const Tensor& x, int rows, int input) {
    const auto key = std::make_tuple(artifact, tenant, replica, rows, input);
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
    return cache_[key] = session(artifact, tenant, replica).predict(x);
  }

 private:
  serve::InferenceSession& session(int artifact, int tenant, int replica) {
    auto& slot = sessions_[{artifact, tenant, replica}];
    if (!slot) {
      const uint64_t salt = serve::tenant_salt_of(tenant_id(w_, tenant));
      deploy::DeployOptions d = deploy_options(w_);
      serve::SessionOptions s = session_defaults(w_, seed_ + artifact);
      s.seed += salt + static_cast<uint64_t>(replica);
      s.compile = false;  // the graph path is the oracle
      d.session = s;
      d.crossbar.seed += salt + static_cast<uint64_t>(replica);
      slot = serve::InferenceSession::open(artifact_path(dir_, w_, artifact),
                                           d);
    }
    return *slot;
  }

  const Workload& w_;
  std::string dir_;
  uint64_t seed_;
  std::map<std::tuple<int, int, int>,
           std::unique_ptr<serve::InferenceSession>>
      sessions_;
  std::map<std::tuple<int, int, int, int, int>, serve::Prediction> cache_;
};

struct GateResult {
  uint64_t checked = 0;
  uint64_t mismatched = 0;
  uint64_t unresolved = 0;
  std::vector<std::string> violations;
};

/// Artifacts that may have served a request in flight over [send, done]:
/// version k is routable from the start of its hot_swap until the end of
/// the next one.
std::set<int> candidate_artifacts(const Phase& ph, const Record& r,
                                  int active_artifact_at_start) {
  std::set<int> out;
  int64_t from = INT64_MIN;
  int artifact = active_artifact_at_start;
  for (const Swap& sw : ph.swaps) {
    if (from <= r.done_ns && sw.end_ns >= r.send_ns) out.insert(artifact);
    from = sw.start_ns;
    artifact = sw.artifact;
  }
  if (from <= r.done_ns) out.insert(artifact);
  return out;
}

void check_phase(const Phase& ph, const Workload& w, const InputPool& inputs,
                 Oracles& oracles, int active_artifact_at_start,
                 GateResult* gate) {
  for (const auto& [i, got] : ph.outputs) {
    const Record& r = ph.records[i];
    if (!r.ok) continue;
    const Tensor& x = inputs.get(r.rows, r.input);
    bool match = false;
    for (int a : candidate_artifacts(ph, r, active_artifact_at_start))
      for (int rep = 0; rep < w.replicas && !match; ++rep)
        match = predictions_equal(
            got, oracles.want(a, r.tenant, rep, x, r.rows, r.input));
    ++gate->checked;
    if (!match) ++gate->mismatched;
  }
  // sent == ok + failed: every request sent resolved, one way or the
  // other, within kResolveGraceS of the phase's end.
  uint64_t unresolved = 0;
  for (const Record& r : ph.records) unresolved += r.resolved ? 0 : 1;
  if (unresolved > 0)
    gate->violations.push_back(
        std::to_string(unresolved) + " of " +
        std::to_string(ph.records.size()) + " requests sent were unresolved " +
        std::to_string(kResolveGraceS) + " s after the phase ended");
  gate->unresolved += unresolved;
}

// ---- per-layer accounting ---------------------------------------------------

struct UnitTotals {
  uint64_t submitted = 0, batches = 0, timeouts = 0;
  uint64_t retries = 0, shed = 0, restarts = 0, cluster_submitted = 0;
};

UnitTotals totals_of(const std::vector<serve::UnitMetricsRow>& rows) {
  UnitTotals t;
  for (const auto& r : rows) {
    t.timeouts += r.timeouts;
    if (r.cluster) {
      t.cluster_submitted += r.submitted;
      t.retries += r.cluster_retries;
      t.shed += r.cluster_shed;
      t.restarts += r.cluster_restarts;
    } else {
      t.submitted += r.submitted;
      t.batches += r.batches;
    }
  }
  return t;
}

/// Phase delta of the unit counters. Retired versions vanish from
/// unit_metrics(), so each version contributes its last snapshot (taken
/// just before the swap that retired it) minus its snapshot at phase start.
UnitTotals phase_units(const std::vector<serve::UnitMetricsRow>& start,
                       const std::vector<std::vector<serve::UnitMetricsRow>>&
                           pre_swap,
                       const std::vector<serve::UnitMetricsRow>& end) {
  std::map<std::string, serve::UnitMetricsRow> last;
  auto key = [](const serve::UnitMetricsRow& r) {
    return r.version + "/" + r.entry + "/" + r.tenant;
  };
  for (const auto& snap : pre_swap)
    for (const auto& r : snap) last[key(r)] = r;
  for (const auto& r : end) last[key(r)] = r;
  std::vector<serve::UnitMetricsRow> merged;
  for (auto& [k, r] : last) merged.push_back(r);
  UnitTotals a = totals_of(merged), b = totals_of(start);
  UnitTotals d;
  d.submitted = a.submitted - b.submitted;
  d.batches = a.batches - b.batches;
  d.timeouts = a.timeouts - b.timeouts;
  d.retries = a.retries - b.retries;
  d.shed = a.shed - b.shed;
  d.restarts = a.restarts - b.restarts;
  d.cluster_submitted = a.cluster_submitted - b.cluster_submitted;
  return d;
}

double stage_mean_us(serve::trace::Stage s) {
  return serve::trace::Tracer::instance().stage_latency(s).mean_us();
}

// ---- spans ------------------------------------------------------------------

/// The benchmark's own spans around each public call: name, start, end,
/// parent span and request id. Held in memory, written at the end.
struct BenchSpan {
  std::string name;
  int64_t start_ns, end_ns;
  int64_t parent;  // index into the span list, -1 for roots
  int64_t request;
};

void add_phase_spans(const Phase& ph, const std::string& phase,
                     std::vector<BenchSpan>* spans) {
  const int64_t root = static_cast<int64_t>(spans->size());
  int64_t first = INT64_MAX, last = 0;
  for (const Record& r : ph.records) {
    first = std::min(first, r.due_ns);
    last = std::max(last, r.done_ns);
  }
  spans->push_back({phase, first, last, -1, -1});
  for (size_t i = 0; i < ph.records.size(); ++i) {
    const Record& r = ph.records[i];
    const int64_t id = static_cast<int64_t>(spans->size());
    const int64_t req = static_cast<int64_t>(i);
    spans->push_back({"request", r.due_ns, r.done_ns, root, req});
    spans->push_back({"ModelServer::submit", r.send_ns, r.ret_ns, id, req});
    spans->push_back({"future.wait", r.ret_ns, r.done_ns, id, req});
  }
  for (const Swap& sw : ph.swaps)
    spans->push_back({"ModelServer::hot_swap", sw.start_ns, sw.end_ns, root,
                      -1});
}

void write_spans(const std::string& path, const std::vector<BenchSpan>& spans) {
  std::ofstream out(path);
  out << "[\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const BenchSpan& s = spans[i];
    out << (i ? ",\n" : "") << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request << "}";
  }
  out << "\n]\n";
}

// ---- modes ------------------------------------------------------------------

struct Args {
  std::string mode, workload, dir;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool full = false;
};

Args parse(int argc, char** argv) {
  Args a;
  if (argc < 2) throw std::runtime_error("usage: serve_load <mode> ...");
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--dir") a.dir = value();
    else if (k == "--seed") a.seed = std::stoull(value());
    else if (k == "--seconds") a.seconds = std::stod(value());
    else if (k == "--trace") a.trace = value() != "0";
    else if (k == "--full") a.full = true;
    else throw std::runtime_error("unknown argument " + k);
  }
  if (a.workload.empty() || a.dir.empty())
    throw std::runtime_error("--workload and --dir are required");
  return a;
}

int run_fixtures(const Args& a) {
  const Workload& w = workload_named(a.workload);
  std::filesystem::create_directories(a.dir);
  for (int k = 0; k < w.artifacts; ++k) {
    std::unique_ptr<models::TaskModel> model =
        build_network(w, mix(a.seed * 131 + static_cast<uint64_t>(k)));
    model->set_training(false);
    model->deploy();
    deploy::save_artifact(*model, artifact_path(a.dir, w, k),
                          session_defaults(w, a.seed + k));
  }
  return 0;
}

/// Warmed predict_into at `shape`: median µs over ~0.4 s of calls.
double replay_us(const serve::InferenceSession& session, const Tensor& x) {
  session.precompile(x.shape());
  serve::Prediction out;
  for (int i = 0; i < 5; ++i) session.predict_into(x, out);
  std::vector<double> us;
  const auto end = Clock::now() + std::chrono::milliseconds(400);
  while (Clock::now() < end || us.size() < 20) {
    const auto s = Clock::now();
    session.predict_into(x, out);
    us.push_back(ns_since(s, Clock::now()) / 1e3);
  }
  return median(us);
}

struct GemmShape {
  bool nt = false;  // linear: C[m,n] = A[m,k]·B[n,k]ᵀ; conv: C = A·B
  int64_t m = 0, n = 0, k = 0;
  double flops() const { return 2.0 * m * n * k; }
};

/// The GEMM of the largest traced step whose tag matches `tag` (any GEMM
/// tag when none matches), read from one recorded graph forward.
GemmShape dominant_gemm(const std::string& artifact, const Tensor& x,
                        const serve::SessionOptions& defaults,
                        deploy::OpTag tag) {
  deploy::DeployOptions d;
  serve::SessionOptions s = defaults;
  s.compile = false;
  d.session = s;
  auto session = serve::InferenceSession::open(artifact, d);
  deploy::TraceRecorder recorder;
  {
    deploy::TraceScope scope(recorder);
    (void)session->mc_outputs(x);
  }
  GemmShape best, best_any;
  for (const deploy::TraceStep& st : recorder.steps()) {
    GemmShape g;
    if (st.tag == deploy::OpTag::kLinear) {
      g = {true, st.inputs[0].dim(0), st.w.dim(0), st.w.dim(1)};
    } else if (st.tag == deploy::OpTag::kConv2d) {
      const Shape& o = st.output.shape();
      g = {false, st.w.dim(0), o[0] * o[2] * o[3],
           st.w.dim(1) * st.w.dim(2) * st.w.dim(3)};
    } else if (st.tag == deploy::OpTag::kConv1d) {
      const Shape& o = st.output.shape();
      g = {false, st.w.dim(0), o[0] * o[2], st.w.dim(1) * st.w.dim(2)};
    } else {
      continue;
    }
    if (g.flops() > best_any.flops()) best_any = g;
    if (st.tag == tag && g.flops() > best.flops()) best = g;
  }
  return best.m ? best : best_any;
}

double gemm_seconds(const GemmShape& g) {
  Rng rng(7);
  Tensor a = Tensor::randn({g.m, g.k}, rng);
  Tensor b = Tensor::randn(g.nt ? Shape{g.n, g.k} : Shape{g.k, g.n}, rng);
  Tensor c = Tensor::zeros({g.m, g.n});
  auto call = [&] {
    if (g.nt) gemm_nt(g.m, g.n, g.k, a.data(), b.data(), c.data());
    else gemm_nn(g.m, g.n, g.k, a.data(), b.data(), c.data());
  };
  for (int i = 0; i < 5; ++i) call();
  std::vector<double> s;
  const auto end = Clock::now() + std::chrono::milliseconds(300);
  while (Clock::now() < end || s.size() < 20) {
    const auto t = Clock::now();
    call();
    s.push_back(ns_since(t, Clock::now()) / 1e9);
  }
  return median(s);
}

int run_replay(const Args& a) {
  const Workload& w = workload_named(a.workload);
  const std::string path = artifact_path(a.dir, w, 0);
  const serve::SessionOptions defaults = session_defaults(w, a.seed);
  Rng rng(mix(a.seed ^ 0x4e91u));
  const Tensor x = Tensor::randn(input_shape(w, w.modal_rows), rng);

  Metrics m;
  deploy::DeployOptions d = deploy_options(w);
  d.session = defaults;
  auto session = serve::InferenceSession::open(path, d);
  m.add("session.replay_us", replay_us(*session, x), "us");
  if (a.full) {
    deploy::set_plan_profiling(true);
    serve::Prediction out;
    for (int i = 0; i < 50; ++i) session->predict_into(x, out);
    deploy::set_plan_profiling(false);
    // Dominant GEMM-group op by profiled time; fused LSTM gates run the
    // linear GEMMs.
    deploy::OpTag tag = deploy::OpTag::kNone;
    uint64_t best_ns = 0;
    for (const deploy::PlanOpProfile& op :
         session->plan_info(x.shape()).op_profile) {
      if (std::strcmp(deploy::op_tag_group(op.tag), "gemm") != 0) continue;
      if (op.total_ns > best_ns) {
        best_ns = op.total_ns;
        tag = op.tag == deploy::OpTag::kLstmGates ? deploy::OpTag::kLinear
                                                  : op.tag;
      }
    }
    const GemmShape g = dominant_gemm(path, x, defaults, tag);
    const double secs = gemm_seconds(g);
    m.add("kernel.gemm_gflops", g.flops() / secs / 1e9, "GFLOP/s");
    m.add("kernel.gemm_bytes",
          4.0 * static_cast<double>(g.m * g.k + g.k * g.n + 2 * g.m * g.n),
          "bytes");
    std::fprintf(stderr, "  gemm replay: %s m=%lld n=%lld k=%lld (%s)\n",
                 g.nt ? "gemm_nt" : "gemm_nn", static_cast<long long>(g.m),
                 static_cast<long long>(g.n), static_cast<long long>(g.k),
                 deploy::op_tag_name(tag));
    if (w.backend == deploy::Backend::kCrossbar) {
      deploy::DeployOptions fp = d;
      fp.backend = deploy::Backend::kFp32;
      auto digital = serve::InferenceSession::open(path, fp);
      const double cb = replay_us(*session, x);
      const double dg = replay_us(*digital, x);
      m.add("imc.overhead_frac", cb / dg - 1.0, "ratio");
      m.add("imc.analog_us_per_row", session->modeled_analog_us_per_row(),
            "us");
    } else {
      m.add("imc.overhead_frac", 0.0, "ratio");
      m.add("imc.analog_us_per_row", 0.0, "us");
    }
  }
  std::printf("%s\n", m.json().c_str());
  return 0;
}

std::string read_loadavg() {
  std::ifstream in("/proc/loadavg");
  std::string first;
  in >> first;
  return first.empty() ? "0" : first;
}

void print_phase(const char* label, const PhaseStats& s) {
  std::fprintf(stderr,
               "  %-9s sent=%llu ok=%llu failed=%llu refused=%llu samples=%zu "
               "p50=%.3fms p99=%.3fms mean=%.3fms lag_p99=%.1fus "
               "backlog=%.3f submit_p99=%.1fus submit_max=%.1fus\n"
               "  %-9s clear of steal: %zu samples (%zu of %zu steal "
               "intervals stolen) p50=%.3fms p99=%.3fms\n",
               label, static_cast<unsigned long long>(s.sent),
               static_cast<unsigned long long>(s.ok),
               static_cast<unsigned long long>(s.failed),
               static_cast<unsigned long long>(s.refused),
               s.latency_ms.size(), quantile(s.latency_ms, 0.5),
               quantile(s.latency_ms, 0.99), s.mean_latency_ms,
               quantile(s.lag_us, 0.99), s.backlog_ratio,
               quantile(s.submit_us, 0.99), quantile(s.submit_us, 1.0), "",
               s.quiet_ms.size(), s.stolen_intervals, s.intervals,
               quantile(s.quiet_ms, 0.5), quantile(s.quiet_ms, 0.99));
}

unsigned nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

/// Serving and set-up processes run with RIPPLE_THREADS = nproc / sessions
/// (at least 1), sessions being tenants x replicas, so the concurrent
/// sessions' work fits the cores instead of each session's parallel
/// regions contending for all of them. Must run before anything touches
/// the pool, which reads RIPPLE_THREADS once.
void pin_pool(const Workload& w) {
  const int threads =
      std::max(1, static_cast<int>(nproc()) / (w.tenants * w.replicas));
  setenv("RIPPLE_THREADS", std::to_string(threads).c_str(), 1);
  if (ThreadPool::global().size() != (threads == 1 ? 0 : threads))
    throw std::runtime_error("the thread pool was sized before "
                             "RIPPLE_THREADS could be pinned");
}

/// The remaining set-up repetitions (all but the serving process's own),
/// each on a fresh server, as one JSON list of seconds.
int run_setup(const Args& a) {
  const Workload& w = workload_named(a.workload);
  pin_pool(w);
  const InputPool inputs(w, a.seed);
  std::ostringstream out;
  out.precision(17);
  out << "[";
  for (int rep = 1; rep < w.setup_reps; ++rep)
    out << (rep > 1 ? ", " : "") << set_up(w, a.dir, inputs).seconds;
  out << "]";
  std::printf("%s\n", out.str().c_str());
  return 0;
}

int run_serve(const Args& a) {
  const Workload& w = workload_named(a.workload);
  pin_pool(w);
  const std::string load_at_start = read_loadavg();
  const unsigned nproc = ::nproc();
  const unsigned loadgen_threads =
      w.open_loop ? (w.swap_period_s > 0 ? 3u : 2u)
                  : static_cast<unsigned>(w.clients);
  if (loadgen_threads > nproc)
    throw std::runtime_error("load generator needs " +
                             std::to_string(loadgen_threads) +
                             " threads but nproc is " + std::to_string(nproc));
  const InputPool inputs(w, a.seed);

  // One set-up per serving process: repeated set-ups churn thread arenas
  // and make the process's RSS run-dependent. The other repetitions run in
  // the `setup` mode's own process.
  Setup kept = set_up(w, a.dir, inputs);
  serve::ModelServer& server = *kept.server;
  uint64_t bench_submits = kept.requests;
  if (w.open_loop) bench_submits += fill_plan_caches(server, w, inputs);
  const double rss_setup = peak_rss_mb();
  int next_version = 1;
  auto run_phase = [&] {
    return w.open_loop ? run_open_loop(server, w, inputs, a.seed, a.seconds,
                                       &next_version, a.dir)
                       : run_closed_loop(server, w, inputs, a.seed, a.seconds);
  };

  GateResult gate;
  Oracles oracles(w, a.dir, a.seed);
  Metrics m;
  std::ostringstream ctx;
  {
    std::string info = serve::MetricsExporter(server).buildinfo();
    while (!info.empty() && (info.back() == '\n' || info.back() == '}'))
      info.pop_back();
    const char* threads = std::getenv("RIPPLE_THREADS");
    ctx << info << ",\"workload\":\"" << w.name << "\",\"seed\":" << a.seed
        << ",\"nproc\":" << nproc << ",\"ripple_threads\":\""
        << (threads ? threads : "") << "\",\"loadavg_start\":"
        << load_at_start << ",\"trace\":" << (a.trace ? 1 : 0);
  }

  int active_artifact = 0;
  const CpuTimes cpu_before = read_cpu_times();
  Phase untraced = run_phase();
  const double steal = steal_frac(cpu_before, read_cpu_times());
  bench_submits += untraced.records.size();
  // The serving process's high-water mark after the untraced phase (the
  // oracles below open sessions of their own), and its growth under load.
  const double rss_end = peak_rss_mb();
  const double rss = w.rss_at_setup ? rss_setup : rss_end;
  const double rss_growth = rss_end - rss_setup;
  const PhaseStats su = stats_of(untraced, w);
  print_phase("untraced", su);
  std::fprintf(stderr, "  host: %.1f%% of CPU time stolen by the hypervisor\n",
               100.0 * steal);
  check_phase(untraced, w, inputs, oracles, active_artifact, &gate);
  if (!untraced.swaps.empty()) active_artifact = untraced.swaps.back().artifact;
  std::string invalid = invalid_reason(su, w, !a.trace);

  uint64_t attempted = su.sent, failed = su.failed + su.refused;

  if (!a.trace) {
    const double ok_frac =
        su.sent ? static_cast<double>(su.ok) / static_cast<double>(su.sent)
                : 0.0;
    m.add("setup_s", kept.seconds, "s");
    m.add("latency_p50_ms", quantile(su.quiet_ms, 0.5), "ms");
    m.add("latency_p99_ms", quantile(su.quiet_ms, 0.99), "ms");
    m.add("goodput_rps", median(su.window_good), "req/s");
    m.add("rows_per_s", median(su.window_rows), "rows/s");
    m.add("ok_frac", ok_frac, "ratio");
    m.add("peak_rss_mb", rss, "MiB");
    std::fprintf(stderr,
                 "  end-to-end: setup_s=%.4f (this process) p50=%.3f ms "
                 "p99=%.3f ms (%zu samples) "
                 "goodput=%.2f req/s rows=%.2f rows/s error_frac=%.5f "
                 "peak_rss=%.1f MiB (+%.1f MiB under load)\n",
                 kept.seconds, quantile(su.quiet_ms, 0.5),
                 quantile(su.quiet_ms, 0.99), su.quiet_ms.size(),
                 median(su.window_good), median(su.window_rows),
                 1.0 - ok_frac, rss, rss_growth);
  } else {
    // Traced replay of the same load: 1-in-1 sampling, the workload's ring
    // size (drops are counted), plan profiling on.
    auto& tracer = serve::trace::Tracer::instance();
    serve::trace::TracerOptions topts;
    topts.sample_every = 1;
    topts.slow_threshold_us = 0;
    topts.ring_capacity = w.trace_ring;
    tracer.configure(topts);
    tracer.reset();
    deploy::set_plan_profiling(true);
    const auto units_start = server.unit_metrics();
    tracer.set_enabled(true);
    Phase traced = run_phase();
    bench_submits += traced.records.size();
    tracer.set_enabled(false);
    deploy::set_plan_profiling(false);
    const auto units_end = server.unit_metrics();
    const PhaseStats st = stats_of(traced, w);
    print_phase("traced", st);
    check_phase(traced, w, inputs, oracles, active_artifact, &gate);
    if (invalid.empty()) invalid = invalid_reason(st, w, false);
    attempted += st.sent;
    failed += st.failed + st.refused;

    using serve::trace::Stage;
    const UnitTotals u =
        phase_units(units_start, traced.pre_swap_units, units_end);
    const std::vector<serve::trace::Event> events = tracer.snapshot_events();
    uint64_t exec_plan = 0, exec_all = 0;
    std::map<uint32_t, uint64_t> by_replica;
    uint64_t dispatches = 0;
    for (const auto& e : events) {
      if (e.stage == Stage::kExecute) {
        ++exec_all;
        exec_plan += e.detail == 1 ? 1 : 0;
      } else if (e.stage == Stage::kDispatch) {
        ++by_replica[e.detail];
        ++dispatches;
      }
    }
    uint64_t share_max = 0;
    for (auto& [rep, n] : by_replica) share_max = std::max(share_max, n);

    uint64_t op_ns = 0, gemm_ns = 0, epi_ns = 0, other_ns = 0;
    for (const auto& row : units_end) {
      for (const deploy::PlanOpProfile& op : row.plan_ops) {
        op_ns += op.total_ns;
        const std::string group = deploy::op_tag_group(op.tag);
        (group == "gemm" ? gemm_ns
                         : group == "epilogue" ? epi_ns : other_ns) +=
            op.total_ns;
      }
    }
    uint64_t rows_submitted = 0;
    for (const Record& r : traced.records) rows_submitted += r.rows;
    const double exec_total_ns = static_cast<double>(
        tracer.stage_latency(Stage::kExecute).snapshot().total_us) * 1e3;
    double stage_sum = 0.0;
    for (Stage s : {Stage::kAdmission, Stage::kQueueWait,
                    Stage::kBatchAssembly, Stage::kDispatch, Stage::kExecute,
                    Stage::kResolve})
      stage_sum += stage_mean_us(s);
    const double request_mean = stage_mean_us(Stage::kRequest);
    std::vector<double> swap_ms;
    for (const Swap& sw : traced.swaps)
      swap_ms.push_back((sw.end_ns - sw.start_ns) / 1e6);
    for (const Swap& sw : untraced.swaps)
      swap_ms.push_back((sw.end_ns - sw.start_ns) / 1e6);
    auto frac = [](double num, double den) {
      return den > 0.0 ? num / den : 0.0;
    };
    const double submitted = static_cast<double>(u.submitted);
    const double csub = static_cast<double>(u.cluster_submitted);

    m.add("server.submit_us.p50", quantile(st.submit_us, 0.5), "us");
    m.add("server.submit_us.p99", quantile(st.submit_us, 0.99), "us");
    m.add("stage.admission_us", stage_mean_us(Stage::kAdmission), "us");
    m.add("server.hot_swap_ms.p50", median(swap_ms), "ms");
    m.add("server.hot_swap_ms.max",
          swap_ms.empty() ? 0.0
                          : *std::max_element(swap_ms.begin(), swap_ms.end()),
          "ms");
    m.add("stage.queue_wait_us", stage_mean_us(Stage::kQueueWait), "us");
    m.add("stage.batch_assembly_us", stage_mean_us(Stage::kBatchAssembly),
          "us");
    m.add("batcher.requests_per_batch", frac(submitted, u.batches),
          "requests");
    m.add("batcher.timeouts", static_cast<double>(u.timeouts), "count");
    m.add("stage.dispatch_us", stage_mean_us(Stage::kDispatch), "us");
    m.add("cluster.retries_per_1k", 1e3 * frac(u.retries, csub), "per_1k");
    m.add("cluster.shed_per_1k", 1e3 * frac(u.shed, csub), "per_1k");
    m.add("cluster.restarts", static_cast<double>(u.restarts), "count");
    m.add("cluster.replica_share_max",
          frac(static_cast<double>(share_max), dispatches), "ratio");
    m.add("stage.execute_us", stage_mean_us(Stage::kExecute), "us");
    m.add("stage.resolve_us", stage_mean_us(Stage::kResolve), "us");
    m.add("stage.request_us", request_mean, "us");
    m.add("session.plan_frac", frac(exec_plan, exec_all), "ratio");
    m.add("session.batch_rows_mean",
          u.batches ? frac(rows_submitted, u.batches) : 0.0, "rows");
    m.add("plan.gemm_frac", frac(gemm_ns, op_ns), "ratio");
    m.add("plan.epilogue_frac", frac(epi_ns, op_ns), "ratio");
    m.add("plan.other_frac", frac(other_ns, op_ns), "ratio");
    m.add("plan.op_ns_per_request",
          frac(static_cast<double>(op_ns), static_cast<double>(st.sent)),
          "ns");
    m.add("trace.overhead_frac",
          frac(st.mean_latency_ms, su.mean_latency_ms) - 1.0, "ratio");
    m.add("trace.dropped_events", static_cast<double>(tracer.dropped_events()),
          "count");
    m.add("server.rss_growth_mb", rss_growth, "MiB");
    std::fprintf(stderr, "  traced phase peak rss %.1f MiB\n", peak_rss_mb());
    m.add("loadgen.lag_p99_us", quantile(su.lag_us, 0.99), "us");
    m.add("host.steal_frac", steal, "ratio");
    m.add("host.quiet_frac",
          frac(static_cast<double>(su.quiet_ms.size()),
               static_cast<double>(su.latency_ms.size())),
          "ratio");
    m.add("loadgen.p99_all_ms", quantile(su.latency_ms, 0.99), "ms");
    m.add("loadgen.samples", static_cast<double>(su.latency_ms.size()),
          "count");
    m.add("accounting.stage_gap_frac", 1.0 - frac(stage_sum, request_mean),
          "ratio");
    m.add("accounting.op_gap_frac",
          1.0 - frac(static_cast<double>(op_ns), exec_total_ns), "ratio");
    std::fprintf(stderr,
                 "  accounting: stage sum %.1f us vs request mean %.1f us; "
                 "plan ops %.3f ms vs execute %.3f ms%s\n",
                 stage_sum, request_mean, op_ns / 1e6, exec_total_ns / 1e6,
                 w.replicas > 1 ? " (cluster units export no plan_ops)" : "");

    std::vector<BenchSpan> spans;
    add_phase_spans(untraced, "phase.untraced", &spans);
    add_phase_spans(traced, "phase.traced", &spans);
    write_spans(a.dir + "/spans-" + w.name + ".json", spans);
    tracer.write_chrome_trace(a.dir + "/trace-" + w.name + ".json");
  }

  // Conservation: the server accepted every request the benchmark sent,
  // and every request a retired version accepted resolved.
  const auto& c = server.counters();
  if (c.submitted() != bench_submits)
    gate.violations.push_back("server counted " +
                              std::to_string(c.submitted()) +
                              " submits, the benchmark sent " +
                              std::to_string(bench_submits));
  if (c.drained_submitted() != c.drained_completed())
    gate.violations.push_back(
        "drained_submitted " + std::to_string(c.drained_submitted()) +
        " != drained_completed " + std::to_string(c.drained_completed()));
  if (gate.checked == 0)
    gate.violations.push_back("no response was checked against an oracle");
  std::fprintf(stderr, "  oracle: %llu/%llu sampled responses bit-exact\n",
               static_cast<unsigned long long>(gate.checked - gate.mismatched),
               static_cast<unsigned long long>(gate.checked));
  for (const std::string& v : gate.violations)
    std::fprintf(stderr, "  VIOLATION: %s\n", v.c_str());
  const bool correct = gate.mismatched == 0 && gate.violations.empty();

  ctx << ",\"steal_frac\":" << steal << "}";
  std::printf("context: %s\n", ctx.str().c_str());
  // A correctness failure is reported even from an invalid run, so that
  // running the workload again cannot hide it.
  if (correct && !invalid.empty()) {
    std::fprintf(stderr, "  run invalid: %s\n", invalid.c_str());
    std::printf("invalid: %s\n", invalid.c_str());
    return 3;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), m.json().c_str());
  if (gate.unresolved > 0) {
    // A lost request may never let the server shut down: skip destructors.
    std::fflush(stdout);
    std::fflush(stderr);
    std::_Exit(1);
  }
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    if (a.mode == "fixtures") return run_fixtures(a);
    if (a.mode == "serve") return run_serve(a);
    if (a.mode == "replay") return run_replay(a);
    if (a.mode == "setup") return run_setup(a);
    throw std::runtime_error("unknown mode '" + a.mode + "'");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve_load: %s\n", e.what());
    return 2;
  }
}
