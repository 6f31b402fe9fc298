// hpfbench — the repository's end-to-end benchmark program (one process per
// run; perfbench/run.py builds it and calls it).
//
//   hpfbench --workload <study_warm|measured_sweep|serve_tenants>
//            --seed <n> --seconds <s> --trace <0|1> --out <dir>
//
// Every workload runs a FIXED number of queries, derived from --seconds by a
// per-workload rate constant (the queries per second the workload completes
// on a 4-vCPU Xeon with a Release build), so caches, the artifact spill and
// peak RSS end in the same state on a fast commit and a slow one. The query sequence is a
// pure function of --seed; the library only ever sees the generated plans.
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// answers every second query twice, untraced and then traced, the traced
// twin under the benchmark's own spans around every public call plus the
// library's obs::Tracer, and reports the per-layer ledger from the twins and
// the tracing overhead from the pairs. Spans are written to
// <out>/<workload>.spans.json (Chrome trace_event format) and the library's
// own spans to <out>/<workload>.obs.json.
//
// Outputs are checked against the scalar reference path (batch_size=1,
// workers=1), computed untimed after the timed phase; every mismatch counts
// as a failed query and makes the process exit nonzero.
//
// The last stdout line is one JSON object: workload, correctness counts,
// the tail percentile used, the build description, and every metric with
// its unit.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "compiler/pipeline.hpp"
#include "obs/obs.hpp"
#include "serve/client.hpp"
#include "serve/plan_codec.hpp"
#include "serve/server.hpp"
#include "sim/executor.hpp"
#include "study/study.hpp"
#include "suite/suite.hpp"

#ifndef HPFBENCH_BUILD_TYPE
#define HPFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef HPFBENCH_CXX_FLAGS
#define HPFBENCH_CXX_FLAGS "unknown"
#endif

namespace {

using namespace hpf90d;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// ---- small utilities ---------------------------------------------------------

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

double ms_between(std::uint64_t a, std::uint64_t b) {
  return static_cast<double>(b - a) / 1e6;
}

/// splitmix64: every random choice of a workload derives from --seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }
  /// `k` distinct values of `pool`, kept in pool order.
  template <typename T>
  std::vector<T> pick(const std::vector<T>& pool, std::size_t k) {
    std::vector<std::size_t> idx(pool.size());
    std::iota(idx.begin(), idx.end(), 0);
    shuffle(idx);
    idx.resize(k);
    std::sort(idx.begin(), idx.end());
    std::vector<T> out;
    for (std::size_t i : idx) out.push_back(pool[i]);
    return out;
  }

 private:
  std::uint64_t state_;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile with at least ten samples beyond it: the 11th
/// largest sample. Returns {value, percentile}.
std::pair<double, double> tail(std::vector<double> v) {
  if (v.empty()) return {0, 0};
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t idx = n > 10 ? n - 11 : 0;
  return {v[idx], 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n)};
}

/// Peak resident set of this process (the daemon runs in-process, so the
/// serve workload's figure covers it too).
double vm_hwm_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

// ---- benchmark spans ---------------------------------------------------------

/// The benchmark's own spans: one per public call into a layer, recorded
/// from this file only (the library gets no new tracing). Each span carries
/// its parent and the query it belongs to; self time per layer is a span's
/// duration minus its children's.
class SpanLog {
 public:
  struct Rec {
    std::string name;
    std::uint64_t start = 0, end = 0;
    int parent = -1;
    long query = -1;
    int thread = 0;
  };

  int open(std::string name, int parent, long query, int thread) {
    const std::lock_guard<std::mutex> lock(mutex_);
    recs_.push_back({std::move(name), now_ns(), 0, parent, query, thread});
    return static_cast<int>(recs_.size()) - 1;
  }
  void close(int id) {
    const std::uint64_t t = now_ns();
    const std::lock_guard<std::mutex> lock(mutex_);
    recs_[static_cast<std::size_t>(id)].end = t;
  }
  /// A span whose interval is known only afterwards (e.g. a server-side
  /// duration the client learns from the reply).
  int add(std::string name, std::uint64_t start, std::uint64_t end, int parent,
          long query, int thread) {
    const std::lock_guard<std::mutex> lock(mutex_);
    recs_.push_back({std::move(name), start, end, parent, query, thread});
    return static_cast<int>(recs_.size()) - 1;
  }

  /// Self time (ms) per span name over every recorded span.
  [[nodiscard]] std::map<std::string, double> self_ms() const {
    std::vector<double> child(recs_.size(), 0);
    for (const Rec& r : recs_) {
      if (r.parent >= 0) child[static_cast<std::size_t>(r.parent)] += ms_between(r.start, r.end);
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < recs_.size(); ++i) {
      out[recs_[i].name] += ms_between(recs_[i].start, recs_[i].end) - child[i];
    }
    return out;
  }
  /// Total duration (ms) and count per span name.
  [[nodiscard]] std::map<std::string, std::pair<double, long>> totals() const {
    std::map<std::string, std::pair<double, long>> out;
    for (const Rec& r : recs_) {
      auto& t = out[r.name];
      t.first += ms_between(r.start, r.end);
      t.second += 1;
    }
    return out;
  }

  void write_chrome(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    const std::uint64_t origin = recs_.empty() ? 0 : recs_.front().start;
    for (std::size_t i = 0; i < recs_.size(); ++i) {
      const Rec& r = recs_[i];
      const std::uint64_t s = r.start >= origin ? r.start - origin : 0;
      char buf[160];
      std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f", static_cast<double>(s) / 1e3,
                    static_cast<double>(r.end - r.start) / 1e3);
      out << (i ? ",\n" : "\n") << "{\"name\":\"" << json_escape(r.name)
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << r.thread << ',' << buf
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << r.parent
          << ",\"query\":" << r.query << "}}";
    }
    out << "\n]}\n";
  }

 private:
  std::mutex mutex_;
  std::vector<Rec> recs_;
};

/// RAII span; a null log disables it (untraced queries).
class Scope {
 public:
  Scope(SpanLog* log, std::string name, int parent, long query, int thread = 0)
      : log_(log), id_(log ? log->open(std::move(name), parent, query, thread) : -1) {}
  ~Scope() {
    if (log_) log_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

/// Self time (ms) per obs::Phase over a tracer snapshot: a phase span's
/// duration minus the spans nested inside it on the same thread.
std::array<double, obs::kPhaseCount> phase_self_ms(const std::vector<obs::SpanRecord>& spans) {
  std::array<double, obs::kPhaseCount> out{};
  std::map<std::uint32_t, std::vector<const obs::SpanRecord*>> by_thread;
  for (const auto& s : spans) by_thread[s.thread].push_back(&s);
  for (auto& [thread, v] : by_thread) {
    std::sort(v.begin(), v.end(), [](const obs::SpanRecord* a, const obs::SpanRecord* b) {
      return a->start_ns != b->start_ns ? a->start_ns < b->start_ns : a->dur_ns > b->dur_ns;
    });
    std::vector<double> child(v.size(), 0);
    std::vector<std::size_t> open;  // indices of the enclosing spans
    for (std::size_t i = 0; i < v.size(); ++i) {
      while (!open.empty() &&
             v[open.back()]->start_ns + v[open.back()]->dur_ns <= v[i]->start_ns) {
        open.pop_back();
      }
      if (!open.empty()) child[open.back()] += static_cast<double>(v[i]->dur_ns) / 1e6;
      open.push_back(i);
    }
    for (std::size_t i = 0; i < v.size(); ++i) {
      const auto p = static_cast<std::size_t>(v[i]->phase);
      out[p] += static_cast<double>(v[i]->dur_ns) / 1e6 - child[i];
    }
  }
  return out;
}

/// Copies library spans recorded on one thread into the benchmark's log,
/// nested as they were, under `parent`.
void adopt_obs_spans(SpanLog& spans, std::vector<obs::SpanRecord> snap, int parent, long query,
                     int thread) {
  std::sort(snap.begin(), snap.end(), [](const obs::SpanRecord& a, const obs::SpanRecord& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.dur_ns > b.dur_ns;
  });
  std::vector<std::pair<std::uint64_t, int>> stack;  // (end, span id)
  for (const auto& sp : snap) {
    while (!stack.empty() && stack.back().first <= sp.start_ns) stack.pop_back();
    const int id = spans.add(std::string("obs.") + obs::phase_name(sp.phase), sp.start_ns,
                             sp.start_ns + sp.dur_ns, stack.empty() ? parent : stack.back().second,
                             query, thread);
    stack.emplace_back(sp.start_ns + sp.dur_ns, id);
  }
}

double phase_ms(const std::array<double, obs::kPhaseCount>& a, obs::Phase p) {
  return a[static_cast<std::size_t>(p)];
}

// ---- results -----------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

/// One workload run: the end-to-end figures plus, when traced, the ledger.
struct Outcome {
  std::vector<double> latencies_ms;  // untraced queries
  double timed_wall_s = 0;
  long points = 0;                   // sweep points the untraced queries completed
  std::vector<double> setup_s;       // one sample per set-up repetition
  long attempted = 0;
  long failed = 0;
  double rss_mb = 0;
  std::map<std::string, Metric> layer;  // per-layer ledger (--trace 1)
  std::vector<std::string> failures;    // first few mismatch descriptions
  /// Counts `queries` failed queries (a plan whose output is wrong fails
  /// every query that returned it).
  void fail(const std::string& what, long queries = 1) {
    failed += queries;
    if (failures.size() < 8) failures.push_back(what);
  }
};

/// Set-up is repeated kSetupsPerSlice times before each of kSetupSlices
/// slices of the queries, and reported as the median of all of them. The
/// served workload restarts its daemon kSetupSlices times.
constexpr int kSetupSlices = 15;
constexpr int kSetupsPerSlice = 3;

/// Runs the set-ups and the query slices in turn, and keeps the first
/// set-up's session as the working one. One set-up takes a fraction of a
/// second, far shorter than the host's fast and slow spells, so set-ups done
/// back to back would all land in one spell; spread evenly over the run,
/// their median follows the run's typical speed as the query medians do.
/// Discarded sessions are freed outside both timings.
template <typename SetUp, typename Slice>
std::unique_ptr<api::Session> interleave_setup(Outcome& o, long nq, const SetUp& set_up,
                                               const Slice& slice) {
  std::unique_ptr<api::Session> working;
  double timed_ms = 0;
  for (int rep = 0; rep < kSetupSlices; ++rep) {
    for (int k = 0; k < kSetupsPerSlice; ++k) {
      const std::uint64_t t0 = now_ns();
      std::unique_ptr<api::Session> fresh = set_up();
      o.setup_s.push_back(ms_between(t0, now_ns()) / 1e3);
      if (!working) working = std::move(fresh);
    }
    const std::uint64_t t1 = now_ns();
    slice(*working, nq * rep / kSetupSlices, nq * (rep + 1) / kSetupSlices);
    timed_ms += ms_between(t1, now_ns());
  }
  o.timed_wall_s = timed_ms / 1e3;
  return working;
}

/// A traced run (--trace 1) answers every kTraceEvery-th query twice:
/// untraced, then traced right after. The ledger comes from the traced
/// twins, and the tracing overhead from each pair, which the host's slow
/// and fast spells hit alike.
constexpr long kTraceEvery = 2;

/// How much higher the traced median latency is than the untraced one, in %.
double overhead_pct(const std::vector<double>& untraced, const std::vector<double>& traced) {
  const double base = median(untraced);
  return base > 0 ? 100.0 * (median(traced) - base) / base : 0.0;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".bench_run";
};

/// Every per-layer metric the benchmark defines, with its unit. Metrics a
/// workload does not exercise report 0 (e.g. serve.* on study_warm).
const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"study.run_ms", "ms"},           {"study.lower_ms", "ms"},
      {"study.analysis_ms", "ms"},      {"study.export_ms", "ms"},
      {"api.run_ms", "ms"},             {"api.chunk_schedule_ms", "ms"},
      {"core.lockstep_ms", "ms"},       {"core.replay_ms", "ms"},
      {"core.lanes_per_visit", "lanes"}, {"core.evicted_per_point", "ratio"},
      {"core.refilled_frac", "ratio"},  {"core.replayed_frac", "ratio"},
      {"core.pooled_lanes", "count"},   {"core.speculated_branches", "count"},
      {"sim.measure_ms", "ms"},         {"sim.executor_ms", "ms"},
      {"core.predict_us", "us"},        {"sim.measure_share", "ratio"},
      {"sim.max_error_pct", "%"},       {"hpf.compile_ms", "ms"},
      {"api.layout_build_ms", "ms"},    {"api.layout_hit_ratio", "ratio"},
      {"api.compile_hit_ratio", "ratio"}, {"api.layout_spill_hits", "count"},
      {"serve.spill_layouts_stored", "count"}, {"serve.submit_ms", "ms"},
      {"serve.queue_wait_ms", "ms"},    {"serve.execute_ms", "ms"},
      {"serve.encode_ms", "ms"},        {"serve.decode_ms", "ms"},
      {"serve.job_overhead_ms", "ms"},  {"serve.coalesced_wait_ms", "ms"},
      {"serve.unattributed_ms", "ms"},  {"serve.coalesced_frac", "ratio"},
      {"serve.stop_ms", "ms"},          {"serve.warm_start_ms", "ms"},
      {"ledger.query_ms", "ms"},        {"ledger.unattributed_ms", "ms"},
      {"ledger.attributed_pct", "%"},   {"obs.trace_overhead_pct", "%"},
  };
  return units;
}

void set_layer(Outcome& o, const std::string& name, double value) {
  for (const auto& [n, unit] : layer_metric_units()) {
    if (n == name) {
      o.layer[name] = {value, unit};
      return;
    }
  }
  throw std::logic_error("undeclared layer metric " + name);
}

/// Batch telemetry shared by the study and serve ledgers.
void set_batch_layers(Outcome& o, const api::BatchStats& b, std::size_t points) {
  const double pts = points ? static_cast<double>(points) : 1.0;
  const double batched = b.batched_points ? static_cast<double>(b.batched_points) : 1.0;
  set_layer(o, "core.lanes_per_visit", b.mean_lanes_per_visit());
  set_layer(o, "core.evicted_per_point", static_cast<double>(b.evicted_lanes) / pts);
  set_layer(o, "core.refilled_frac",
            b.evicted_lanes ? static_cast<double>(b.refilled_lanes) /
                                  static_cast<double>(b.evicted_lanes)
                            : 0.0);
  set_layer(o, "core.replayed_frac", static_cast<double>(b.replayed_points) / batched);
  set_layer(o, "core.pooled_lanes", static_cast<double>(b.pooled_lanes));
  set_layer(o, "core.speculated_branches", static_cast<double>(b.speculated_branches));
}

void add_batch(api::BatchStats& into, const api::BatchStats& b) {
  into.batched_points += b.batched_points;
  into.scalar_points += b.scalar_points;
  into.replayed_points += b.replayed_points;
  into.ir_visits += b.ir_visits;
  into.lane_visits += b.lane_visits;
  into.evicted_lanes += b.evicted_lanes;
  into.refilled_lanes += b.refilled_lanes;
  into.pooled_lanes += b.pooled_lanes;
  into.simd_stripes += b.simd_stripes;
  into.speculated_branches += b.speculated_branches;
  into.speculated_lanes += b.speculated_lanes;
}

void add_cache(api::CacheStats& into, const api::CacheStats& c) {
  into.compile_hits += c.compile_hits;
  into.compile_misses += c.compile_misses;
  into.layout_hits += c.layout_hits;
  into.layout_misses += c.layout_misses;
  into.layout_spill_hits += c.layout_spill_hits;
}

double ratio(std::size_t hits, std::size_t misses) {
  return hits + misses ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0.0;
}

/// Compile and layout-build time of one set-up, from the obs spans of the
/// last set-up repetition.
void set_setup_layers(Outcome& o, const std::vector<obs::SpanRecord>& setup_spans) {
  const auto self = phase_self_ms(setup_spans);
  set_layer(o, "hpf.compile_ms", phase_ms(self, obs::Phase::Compile));
  set_layer(o, "api.layout_build_ms", phase_ms(self, obs::Phase::LayoutBuild));
}

/// Query-level ledger from the benchmark spans: the named layers' self
/// time over the traced queries' total, the rest `unattributed` (the
/// query span's own self time).
void set_ledger(Outcome& o, const SpanLog& spans, long traced_queries) {
  const auto self = spans.self_ms();
  const auto tot = spans.totals();
  const double q = tot.count("query") ? tot.at("query").first : 0.0;
  const double un = self.count("query") ? self.at("query") : 0.0;
  const double per = traced_queries ? 1.0 / static_cast<double>(traced_queries) : 0.0;
  set_layer(o, "ledger.query_ms", q * per);
  set_layer(o, "ledger.unattributed_ms", un * per);
  set_layer(o, "ledger.attributed_pct", q > 0 ? 100.0 * (q - un) / q : 0.0);
}

// ---- workload 1: study_warm ----------------------------------------------------

/// One design-study template of the warm pool: an app, its directive
/// variants, problem sizes and a machine-knob grid over nprocs {1,2,4,8}.
struct StudySpec {
  std::string app;        // suite id the source and bindings come from
  int variants = 1;       // Laplace: 1 = the app's own distribution, 3 = all three
  std::size_t sizes = 4;  // problem sizes drawn from the app's pool
  std::size_t lat = 4, bw = 2, cpu = 2;  // knob-grid extents
};

const std::vector<long long>& size_pool(const std::string& app) {
  static const std::vector<long long> laplace{16, 24, 32, 48, 64, 96, 128, 192, 256};
  static const std::vector<long long> lfk2{128, 256, 512, 1024, 2048, 4096, 8192};
  static const std::vector<long long> nbody{16, 24, 32, 48, 64, 96, 128};
  if (app.rfind("laplace", 0) == 0) return laplace;
  if (app == "lfk2") return lfk2;
  return nbody;
}

api::DirectiveVariant variant_of(const suite::BenchmarkApp& app) {
  return {app.name, app.directive_overrides,
          app.id == "laplace_bb" ? std::optional<int>(2) : std::nullopt};
}

/// `k` values spread evenly over `pool`, its first and last included.
std::vector<long long> spread(const std::vector<long long>& pool, std::size_t k) {
  std::vector<long long> out;
  for (std::size_t i = 0; i < k; ++i) out.push_back(pool[k > 1 ? i * (pool.size() - 1) / (k - 1) : 0]);
  return out;
}

/// Materializes a template with seeded knob values. Its problem sizes are
/// fixed: N-Body's interpretation cost grows with n, so seeded sizes made
/// one seed's run cheaper than another's. The number of sweep points, and
/// the cost, depend only on the template, never on the seed.
study::StudyPlan make_study(const StudySpec& spec, Rng& rng, const std::string& title) {
  static const std::vector<double> lat_pool{0.125, 0.25, 0.5, 1, 2, 4, 8, 16, 32};
  static const std::vector<double> bw_pool{0.25, 0.5, 1, 2, 4, 8};
  static const std::vector<double> cpu_pool{0.5, 1, 2, 4};
  const suite::BenchmarkApp& app = suite::app(spec.app);
  study::StudyPlan plan(title);
  plan.source(app.source)
      .knob_axis(study::Knob::Latency, rng.pick(lat_pool, spec.lat))
      .knob_axis(study::Knob::Bandwidth, rng.pick(bw_pool, spec.bw))
      .knob_axis(study::Knob::Cpu, rng.pick(cpu_pool, spec.cpu))
      .problems_from(spread(size_pool(spec.app), spec.sizes), app.bindings)
      .nprocs({1, 2, 4, 8})
      .runs(0);
  if (spec.variants == 3) {
    for (const char* id : {"laplace_bb", "laplace_bx", "laplace_xb"}) {
      plan.add_variant(variant_of(suite::app(id)));
    }
  } else {
    plan.add_variant(variant_of(app));
  }
  return plan;
}

/// The warm pool: lockstep-friendly Laplace studies in all three
/// distributions, plus divergent LFK 2 (lanes evicted and refilled) and
/// N-Body (few lanes per visit). 672 to 2016 points per query.
const std::vector<StudySpec>& study_pool() {
  static const std::vector<StudySpec> pool = {
      {"laplace_bb", 1, 6, 6, 4, 2},  // 1152 points
      {"laplace_bx", 1, 6, 7, 3, 2},  // 1008
      {"laplace_xb", 1, 6, 8, 4, 2},  // 1536
      {"laplace_bb", 3, 4, 7, 3, 2},  // 2016
      {"lfk2", 1, 6, 7, 4, 2},        // 1344
      {"lfk2", 1, 4, 8, 4, 2},        // 1024
      {"nbody", 1, 4, 8, 4, 2},       // 1024
      {"nbody", 1, 6, 7, 2, 2},       // 672
  };
  return pool;
}

constexpr double kStudyRate = 30;  // see the file comment

std::vector<study::StudyPlan> study_plans(std::uint64_t seed) {
  Rng rng(seed ^ 0x5717d1e5ULL);
  std::vector<study::StudyPlan> plans;
  const auto& pool = study_pool();
  for (std::size_t i = 0; i < pool.size(); ++i) {
    plans.push_back(make_study(pool[i], rng, "warm study " + std::to_string(i)));
  }
  return plans;
}

/// Balanced schedule: whole rounds, each a seeded permutation of the pool,
/// so every template is queried equally often for any seed.
std::vector<std::size_t> round_schedule(std::size_t pool, long queries, Rng& rng) {
  std::vector<std::size_t> order;
  while (static_cast<long>(order.size()) < queries) {
    std::vector<std::size_t> round(pool);
    std::iota(round.begin(), round.end(), 0);
    rng.shuffle(round);
    order.insert(order.end(), round.begin(), round.end());
  }
  order.resize(static_cast<std::size_t>(queries));
  return order;
}

/// What a traced study_warm run gathers from its traced twins.
struct StudyLedger {
  SpanLog spans;
  obs::Tracer tracer{1 << 16};
  obs::Tracer archive{1 << 20};  // every traced query's library spans, for the export
  std::array<double, obs::kPhaseCount> phases{};
  api::BatchStats batch;
  api::CacheStats cache;
  double lower_ms = 0, sweep_ms = 0;
  std::size_t points = 0;
  std::vector<double> untraced_ms, traced_ms;  // the pairs' latencies
};

struct StudyQueryOut {
  std::string csv;
  double ms = 0;  // call to exported CSV
  std::size_t points = 0;
  std::size_t crossovers = 0;
  std::size_t curves = 0;
};

/// One study_warm query: run the study, read off crossovers and scaling,
/// export the CSV. With a ledger, the query runs under the benchmark spans
/// and the library tracer, and what they recorded is gathered afterwards,
/// off the query's clock, with a probe of the plan's lowering alone.
StudyQueryOut study_query(api::Session& session, const study::StudyPlan& plan,
                          const api::RunOptions& defaults, StudyLedger* led, long q) {
  SpanLog* spans = led ? &led->spans : nullptr;
  api::RunOptions opts = defaults;
  if (led) opts.trace = &led->tracer;
  StudyQueryOut out;
  std::optional<study::StudyResult> result;
  const std::uint64_t a = now_ns();
  {
    Scope root(spans, "query", -1, q);
    {
      Scope s(spans, "study.run_study", root.id(), q);
      result.emplace(study::run_study(session, plan, opts));
    }
    {
      Scope s(spans, "study.analysis", root.id(), q);
      out.crossovers = result->crossovers().size();
      out.curves = result->scalability().size();
    }
    {
      Scope s(spans, "study.export", root.id(), q);
      out.csv = result->csv();
    }
  }
  out.ms = ms_between(a, now_ns());
  out.points = result->report.records.size();
  if (led) {
    const auto snap = led->tracer.snapshot();
    led->tracer.clear();
    const auto p = phase_self_ms(snap);
    for (std::size_t i = 0; i < p.size(); ++i) led->phases[i] += p[i];
    for (const auto& sp : snap) led->archive.record(sp);
    add_batch(led->batch, result->report.batch);
    add_cache(led->cache, result->report.cache);
    led->sweep_ms += result->report.wall_seconds * 1e3;
    led->points += out.points;
    Scope s(spans, "probe.study.lower", -1, q);
    const std::uint64_t b = now_ns();
    (void)plan.lower(session);
    led->lower_ms += ms_between(b, now_ns());
  }
  return out;
}

Outcome run_study_warm(const Args& args) {
  Outcome o;
  const std::vector<study::StudyPlan> plans = study_plans(args.seed);
  Rng order_rng(args.seed ^ 0x0badc0deULL);
  const long nq = std::max<long>(16, std::lround(args.seconds * kStudyRate));
  const std::vector<std::size_t> order = round_schedule(plans.size(), nq, order_rng);
  const api::RunOptions defaults;  // library defaults: pooled workers, batch 64
  const std::unique_ptr<StudyLedger> led = args.trace ? std::make_unique<StudyLedger>() : nullptr;

  // Set-up: a fresh session compiles every variant and builds every layout
  // while answering each pool study once. The first export of each template
  // is kept; every later one must match it byte for byte, and after the run
  // the kept ones must match the scalar reference path.
  obs::Tracer setup_tracer(1 << 16);
  std::vector<std::string> first(plans.size());
  std::vector<std::size_t> first_crossovers(plans.size()), first_curves(plans.size());
  std::vector<long> asked(plans.size());  // queries per template
  const auto set_up = [&] {
    setup_tracer.clear();
    auto fresh = std::make_unique<api::Session>();
    if (led) fresh->set_trace_sink(&setup_tracer);
    for (const auto& plan : plans) (void)study::run_study(*fresh, plan, defaults);
    fresh->set_trace_sink(nullptr);
    return fresh;
  };
  const auto answer = [&](api::Session& session, long q, StudyLedger* ledger) {
    const std::size_t t = order[static_cast<std::size_t>(q)];
    ++asked[t];
    ++o.attempted;
    StudyQueryOut out = study_query(session, plans[t], defaults, ledger, q);
    if (first[t].empty()) {
      first[t] = std::move(out.csv);
      first_crossovers[t] = out.crossovers;
      first_curves[t] = out.curves;
    } else if (out.csv != first[t] || out.crossovers != first_crossovers[t] ||
               out.curves != first_curves[t]) {
      o.fail("study_warm query " + std::to_string(q) + " differs from the template's first export");
    }
    return out;
  };
  const auto slice = [&](api::Session& session, long lo, long hi) {
    for (long q = lo; q < hi; ++q) {
      const StudyQueryOut out = answer(session, q, nullptr);
      o.latencies_ms.push_back(out.ms);
      o.points += static_cast<long>(out.points);
      if (led && q % kTraceEvery == 0) {
        led->untraced_ms.push_back(out.ms);
        led->traced_ms.push_back(answer(session, q, led.get()).ms);
      }
    }
  };
  const std::unique_ptr<api::Session> session = interleave_setup(o, nq, set_up, slice);
  o.rss_mb = vm_hwm_mb();

  if (led) {
    const double per = 1.0 / static_cast<double>(led->traced_ms.size());
    const auto tot = led->spans.totals();
    set_layer(o, "study.run_ms", tot.at("study.run_study").first * per);
    set_layer(o, "study.lower_ms", led->lower_ms * per);
    set_layer(o, "study.analysis_ms", tot.at("study.analysis").first * per);
    set_layer(o, "study.export_ms", tot.at("study.export").first * per);
    set_layer(o, "api.run_ms", led->sweep_ms * per);
    set_layer(o, "api.chunk_schedule_ms", phase_ms(led->phases, obs::Phase::ChunkSchedule) * per);
    set_layer(o, "core.lockstep_ms", phase_ms(led->phases, obs::Phase::LockstepWindow) * per);
    set_layer(o, "core.replay_ms", phase_ms(led->phases, obs::Phase::ScalarReplay) * per);
    set_batch_layers(o, led->batch, led->points);
    set_layer(o, "api.layout_hit_ratio", ratio(led->cache.layout_hits, led->cache.layout_misses));
    set_layer(o, "api.compile_hit_ratio", ratio(led->cache.compile_hits, led->cache.compile_misses));
    set_setup_layers(o, setup_tracer.snapshot());
    set_ledger(o, led->spans, static_cast<long>(led->traced_ms.size()));
    set_layer(o, "obs.trace_overhead_pct", overhead_pct(led->untraced_ms, led->traced_ms));
    led->spans.write_chrome(args.out + "/study_warm.spans.json");
    std::ofstream(args.out + "/study_warm.obs.json") << led->archive.chrome_trace_json();
  }

  // Output check against the scalar reference path, untimed.
  api::Session reference;
  api::RunOptions scalar;
  scalar.workers = 1;
  scalar.batch_size = 1;
  for (std::size_t t = 0; t < plans.size(); ++t) {
    if (first[t].empty()) continue;
    const study::StudyResult ref = study::run_study(reference, plans[t], scalar);
    if (ref.csv() != first[t] || ref.crossovers().size() != first_crossovers[t] ||
        ref.scalability().size() != first_curves[t]) {
      o.fail("study_warm template " + std::to_string(t) + " differs from the scalar reference",
             asked[t]);
    }
  }
  return o;
}

// ---- workload 2: measured_sweep -----------------------------------------------

/// Per-app problem-size range for measured queries: one app at one size
/// on nprocs {1,2,4,8} with runs=3 costs roughly 10 to 80 ms across each
/// range on a 4-vCPU Xeon (cost grows linearly in n, and in n^2
/// for N-Body and Laplace).
struct SizeRange {
  const char* app;
  long long lo, hi;
};

const std::vector<SizeRange>& measured_ranges() {
  static const std::vector<SizeRange> ranges = {
      {"lfk1", 384, 2048},     {"lfk2", 2048, 8192},   {"lfk3", 512, 3072},
      {"lfk9", 128, 768},      {"lfk14", 384, 2048},   {"lfk22", 384, 2048},
      {"pbs1", 2560, 12288},   {"pbs2", 256, 1536},    {"pbs3", 256, 1536},
      {"pbs4", 2560, 12288},   {"pi", 2560, 12288},    {"nbody", 36, 72},
      {"finance", 384, 2048},  {"laplace_bb", 16, 28}, {"laplace_bx", 16, 32},
      {"laplace_xb", 16, 32},
  };
  return ranges;
}

constexpr double kMeasuredRate = 80;  // see the file comment
constexpr int kMeasuredRuns = 3;
constexpr long kMeasuredCheckEvery = 4;  // queries re-run on the scalar path
/// Closed-loop streams sharing the session: a Table 2 regeneration spread
/// over the box's CPUs, which also keeps one slow vCPU from setting a
/// whole run's figures.
constexpr int kMeasuredStreams = 4;

struct MeasuredQuery {
  std::string app;
  long long n = 0;
};

/// Stratified decks: deck d draws each app's size from the d-th of D equal
/// slices of its range, so the run covers every range evenly whatever the
/// seed; the seed picks the point inside each slice and the query order.
std::vector<MeasuredQuery> measured_schedule(std::uint64_t seed, long queries) {
  Rng rng(seed ^ 0x3ea5u);
  const auto& ranges = measured_ranges();
  const long decks = std::max<long>(1, (queries + static_cast<long>(ranges.size()) - 1) /
                                           static_cast<long>(ranges.size()));
  std::vector<MeasuredQuery> out;
  for (long d = 0; d < decks; ++d) {
    for (const auto& r : ranges) {
      const double u = (static_cast<double>(d) + rng.uniform()) / static_cast<double>(decks);
      out.push_back({r.app, r.lo + std::llround(u * static_cast<double>(r.hi - r.lo))});
    }
  }
  rng.shuffle(out);
  out.resize(static_cast<std::size_t>(queries));
  return out;
}

api::ExperimentPlan measured_plan(const MeasuredQuery& mq, int runs = kMeasuredRuns) {
  const suite::BenchmarkApp& app = suite::app(mq.app);
  api::ExperimentPlan plan(app.name);
  plan.source(app.source)
      .nprocs({1, 2, 4, 8})
      .add_variant(variant_of(app))
      .problems_from({mq.n}, app.bindings)
      .runs(runs);
  return plan;
}

api::RunConfig measured_config(const suite::BenchmarkApp& app, long long n, int nprocs) {
  api::RunConfig cfg;
  cfg.nprocs = nprocs;
  cfg.bindings = app.bindings(n);
  cfg.runs = kMeasuredRuns;
  if (app.id == "laplace_bb") cfg.grid_shape = compiler::ProcGrid::factorized(nprocs, 2).shape;
  return cfg;
}

api::Session::ProgramHandle compile_app(api::Session& session, const suite::BenchmarkApp& app) {
  return app.directive_overrides.empty()
             ? session.compile(app.source)
             : session.compile_with_directives(app.source, app.directive_overrides);
}

/// Runs queries begin..end-1 on `streams` threads, each taking the next
/// query number until none is left (the set of queries is fixed; which
/// stream answers which varies). Returns the queries whose call threw.
std::vector<long> on_streams(int streams, long begin, long end,
                             const std::function<void(int, long)>& fn) {
  std::atomic<long> next{begin};
  std::mutex m;
  std::vector<long> threw;
  std::vector<std::thread> threads;
  for (int s = 0; s < streams; ++s) {
    threads.emplace_back([&, s] {
      for (long q = next++; q < end; q = next++) {
        try {
          fn(s, q);
        } catch (const std::exception&) {
          const std::lock_guard<std::mutex> lock(m);
          threw.push_back(q);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  return threw;
}

/// What a traced measured_sweep run gathers from its traced twins. Each
/// stream has its own tracer, so a query's library spans can be read off
/// after it.
struct MeasuredLedger {
  explicit MeasuredLedger(int streams) {
    for (int s = 0; s < streams; ++s) tracers.push_back(std::make_unique<obs::Tracer>(1 << 14));
  }
  SpanLog spans;
  std::vector<std::unique_ptr<obs::Tracer>> tracers;
  obs::Tracer archive{1 << 20};  // every traced query's library spans, for the export
  std::mutex m;                  // guards everything below
  std::array<double, obs::kPhaseCount> phases{};
  api::CacheStats cache;
  double measure_ms = 0, predict_ms = 0, executor_ms = 0;
  long probe_points = 0, probe_runs = 0;
  std::vector<double> untraced_ms, traced_ms;  // the pairs' latencies
};

/// The per-point public calls behind one measured query, timed one by one
/// outside any query span: Session::measure and Session::predict per point,
/// and one Executor::run.
void measured_probes(api::Session& session, const MeasuredQuery& mq, MeasuredLedger& led, long q,
                     int sid) {
  const suite::BenchmarkApp& app = suite::app(mq.app);
  const auto prog = compile_app(session, app);
  double measure = 0, predict = 0;
  for (int np : {1, 2, 4, 8}) {
    const api::RunConfig cfg = measured_config(app, mq.n, np);
    {
      Scope ps(&led.spans, "probe.sim.measure", -1, q, sid);
      const std::uint64_t b = now_ns();
      (void)session.measure(prog, cfg);
      measure += ms_between(b, now_ns());
    }
    Scope ps(&led.spans, "probe.core.predict", -1, q, sid);
    const std::uint64_t b = now_ns();
    (void)session.predict(prog, cfg);
    predict += ms_between(b, now_ns());
  }
  const api::RunConfig cfg = measured_config(app, mq.n, 4);
  compiler::LayoutOptions lo;
  lo.nprocs = cfg.nprocs;
  lo.grid_shape = cfg.grid_shape;
  const compiler::DataLayout layout = compiler::make_layout(*prog, cfg.bindings, lo);
  sim::Executor exec(*prog, layout, session.machine(), cfg.sim, cfg.bindings);
  double executor = 0;
  {
    Scope ps(&led.spans, "probe.sim.executor", -1, q, sid);
    const std::uint64_t b = now_ns();
    (void)exec.run();
    executor = ms_between(b, now_ns());
  }
  const std::lock_guard<std::mutex> lock(led.m);
  led.measure_ms += measure;
  led.predict_ms += predict;
  led.executor_ms += executor;
  led.probe_points += 4;
  led.probe_runs += 1;
}

/// One measured query on stream `sid`. With a ledger, it runs under the
/// benchmark spans and the stream's tracer; the library spans are copied
/// in as children of its `api.run` span afterwards, off its clock. That is
/// exact, because each query runs serially on its stream's thread.
api::RunReport measured_query(api::Session& session, const MeasuredQuery& mq,
                              const api::RunOptions& defaults, MeasuredLedger* led, long q,
                              int sid, double& ms) {
  SpanLog* spans = led ? &led->spans : nullptr;
  obs::Tracer* tracer = led ? led->tracers[static_cast<std::size_t>(sid)].get() : nullptr;
  api::RunOptions opts = defaults;
  opts.trace = tracer;
  const api::ExperimentPlan plan = measured_plan(mq);
  api::RunReport report;
  int run_span = -1;
  const std::uint64_t a = now_ns();
  {
    Scope root(spans, "query", -1, q, sid);
    Scope s(spans, "api.run", root.id(), q, sid);
    run_span = s.id();
    report = session.run(plan, opts);
  }
  ms = ms_between(a, now_ns());
  if (led) {
    const std::vector<obs::SpanRecord> snap = tracer->snapshot();
    tracer->clear();
    adopt_obs_spans(led->spans, snap, run_span, q, sid);
    const auto p = phase_self_ms(snap);
    const std::lock_guard<std::mutex> lock(led->m);
    for (std::size_t i = 0; i < p.size(); ++i) led->phases[i] += p[i];
    for (const auto& sp : snap) led->archive.record(sp);
    add_cache(led->cache, report.cache);
  }
  return report;
}

/// A measured report is complete when all 4 points were measured, with
/// positive, finite times.
bool complete_report(const api::RunReport& report) {
  bool ok = report.records.size() == 4;
  for (const auto& rec : report.records) {
    ok = ok && rec.measured && std::isfinite(rec.comparison.estimated) &&
         rec.comparison.estimated > 0 && rec.comparison.measured_mean > 0;
  }
  return ok;
}

Outcome run_measured_sweep(const Args& args) {
  Outcome o;
  const long nq = std::max<long>(16, std::lround(args.seconds * kMeasuredRate));
  const std::vector<MeasuredQuery> schedule = measured_schedule(args.seed, nq);
  // Each query is a serial sweep (4 points are one lockstep chunk anyway),
  // so a stream's library spans are exact sub-intervals of its query.
  api::RunOptions opts;
  opts.workers = 1;
  const std::unique_ptr<MeasuredLedger> led =
      args.trace ? std::make_unique<MeasuredLedger>(kMeasuredStreams) : nullptr;

  // Set-up: a fresh session compiles every app and predicts one small size
  // per app (layouts, machine model). It simulates nothing: 16 cold
  // simulated runs made set-up a second, much noisier timing of the
  // simulator, which the queries already time, and hid compile and layout
  // builds under it. The queries run on kMeasuredStreams closed-loop streams
  // sharing the warm session.
  obs::Tracer setup_tracer(1 << 16);
  const auto set_up = [&] {
    setup_tracer.clear();
    auto fresh = std::make_unique<api::Session>();
    if (led) fresh->set_trace_sink(&setup_tracer);
    for (const auto& r : measured_ranges()) {
      (void)fresh->run(measured_plan({r.app, r.lo / 2}, 0), opts);
    }
    fresh->set_trace_sink(nullptr);
    return fresh;
  };
  const auto n = static_cast<std::size_t>(nq);
  std::vector<double> latency(n), worst(n);
  std::vector<long> points(n);
  std::vector<char> complete(n);  // stays 0 when a call throws
  std::vector<std::string> checked(n);
  std::atomic<long> twins{0};
  const auto slice = [&](api::Session& session, long lo, long hi) {
    (void)on_streams(kMeasuredStreams, lo, hi, [&](int sid, long q) {
      const auto i = static_cast<std::size_t>(q);
      const api::RunReport report = measured_query(session, schedule[i], opts, nullptr, q, sid,
                                                   latency[i]);
      points[i] = static_cast<long>(report.records.size());
      worst[i] = report.worst_error_pct();
      bool ok = complete_report(report);
      if (q % kMeasuredCheckEvery == 0) checked[i] = report.csv();
      if (led && q % kTraceEvery == 0) {
        // the traced twin must reproduce the untraced report exactly
        ++twins;
        double traced_ms = 0;
        const api::RunReport twin = measured_query(session, schedule[i], opts, led.get(), q, sid,
                                                   traced_ms);
        ok = ok && twin.csv() == report.csv();
        {
          const std::lock_guard<std::mutex> lock(led->m);
          led->untraced_ms.push_back(latency[i]);
          led->traced_ms.push_back(traced_ms);
        }
        if (q % kMeasuredCheckEvery == 0) measured_probes(session, schedule[i], *led, q, sid);
      }
      complete[i] = ok;
    });
  };
  const std::unique_ptr<api::Session> session = interleave_setup(o, nq, set_up, slice);
  o.rss_mb = vm_hwm_mb();
  o.latencies_ms = latency;
  o.points = std::accumulate(points.begin(), points.end(), 0L);
  o.attempted = nq + twins;
  for (long q = 0; q < nq; ++q) {
    if (!complete[static_cast<std::size_t>(q)]) {
      o.fail("measured_sweep query " + std::to_string(q) + " returned an incomplete report",
             led && q % kTraceEvery == 0 ? 2 : 1);
    }
  }
  set_layer(o, "sim.max_error_pct", *std::max_element(worst.begin(), worst.end()));

  if (led) {
    const double per = 1.0 / static_cast<double>(led->traced_ms.size());
    const auto tot = led->spans.totals();
    const double query_ms = tot.at("query").first;
    const auto& ph = led->phases;
    set_layer(o, "api.run_ms", tot.at("api.run").first * per);
    set_layer(o, "api.chunk_schedule_ms", phase_ms(ph, obs::Phase::ChunkSchedule) * per);
    set_layer(o, "core.lockstep_ms", phase_ms(ph, obs::Phase::LockstepWindow) * per);
    set_layer(o, "core.replay_ms", phase_ms(ph, obs::Phase::ScalarReplay) * per);
    const auto pts = static_cast<double>(std::max(led->probe_points, 1L));
    set_layer(o, "sim.measure_ms", led->measure_ms / pts);
    set_layer(o, "core.predict_us", 1e3 * led->predict_ms / pts);
    set_layer(o, "sim.executor_ms",
              led->executor_ms / static_cast<double>(std::max(led->probe_runs, 1L)));
    set_layer(o, "sim.measure_share",
              query_ms > 0 ? phase_ms(ph, obs::Phase::MeasureBatch) / query_ms : 0);
    set_layer(o, "api.layout_hit_ratio", ratio(led->cache.layout_hits, led->cache.layout_misses));
    set_layer(o, "api.compile_hit_ratio", ratio(led->cache.compile_hits, led->cache.compile_misses));
    set_setup_layers(o, setup_tracer.snapshot());
    set_ledger(o, led->spans, static_cast<long>(led->traced_ms.size()));
    set_layer(o, "obs.trace_overhead_pct", overhead_pct(led->untraced_ms, led->traced_ms));
    led->spans.write_chrome(args.out + "/measured_sweep.spans.json");
    std::ofstream(args.out + "/measured_sweep.obs.json") << led->archive.chrome_trace_json();
  }

  // Output check: every fourth query re-run on the scalar reference path,
  // on the same streams to keep the run short.
  api::Session reference;
  api::RunOptions scalar;
  scalar.workers = 1;
  scalar.batch_size = 1;
  const long nchecks = (nq + kMeasuredCheckEvery - 1) / kMeasuredCheckEvery;
  std::vector<char> matches(static_cast<std::size_t>(nchecks));
  (void)on_streams(kMeasuredStreams, 0, nchecks, [&](int, long c) {
    const auto i = static_cast<std::size_t>(c * kMeasuredCheckEvery);
    matches[static_cast<std::size_t>(c)] =
        reference.run(measured_plan(schedule[i]), scalar).csv() == checked[i];
  });
  for (long c = 0; c < nchecks; ++c) {
    if (!matches[static_cast<std::size_t>(c)]) {
      o.fail("measured_sweep query " + std::to_string(c * kMeasuredCheckEvery) +
             " differs from the scalar reference", led ? 2 : 1);
    }
  }
  return o;
}

// ---- workload 3: serve_tenants ------------------------------------------------

/// FNV-1a over everything a study export encodes, so each served result
/// can be compared exactly with the first one served for the same plan
/// without re-rendering its CSV on the client's clock.
class Fingerprint {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ c[i]) * 0x100000001b3ULL;
  }
  void str(const std::string& s) {
    const std::size_t n = s.size();
    bytes(&n, sizeof n);
    bytes(s.data(), n);
  }
  void num(double d) { bytes(&d, sizeof d); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t fingerprint(const study::StudyResult& r) {
  Fingerprint f;
  f.str(r.title);
  f.str(r.base_machine);
  for (const auto& mp : r.machine_points) {
    f.str(mp.name);
    f.num(mp.params.latency_scale);
    f.num(mp.params.bandwidth_scale);
    f.num(mp.params.cpu_scale);
  }
  for (const auto& rec : r.report.records) {
    f.str(rec.machine);
    f.str(rec.variant);
    f.str(rec.problem);
    f.num(rec.nprocs);
    const auto& c = rec.comparison;
    for (double d : {c.estimated, c.measured_mean, c.measured_min, c.measured_max,
                     c.measured_stddev, rec.phases.comp, rec.phases.comm,
                     rec.phases.overhead, rec.phases.wait}) {
      f.num(d);
    }
    f.num(rec.measured ? 1 : 0);
  }
  return f.value();
}

/// The served warm pool: studies a shared daemon answers over and over
/// (cache hits, large CSV bodies). Each tenant asks its own copy, titled
/// for the tenant: the same work, but never byte-identical to the other
/// tenant's, so only the duplicate positions coalesce.
const std::vector<StudySpec>& serve_pool() {
  static const std::vector<StudySpec> pool = {
      {"laplace_bb", 3, 4, 7, 3, 2},  // 2016 points
      {"lfk2", 1, 6, 7, 4, 2},        // 1344
      {"laplace_xb", 1, 6, 6, 4, 2},  // 1152
      {"nbody", 1, 4, 8, 4, 2},       // 1024
  };
  return pool;
}

/// Apps whose fresh-size studies miss the layout store (and write the
/// spill through).
const std::vector<std::string>& fresh_apps() {
  static const std::vector<std::string> apps = {"laplace_bx", "lfk2", "nbody"};
  return apps;
}

constexpr double kServeRate = 50;  // queries per second over both tenants; see the file comment
constexpr int kReferenceStreams = 4;  // threads of the untimed reference check

enum class Kind { Pool, Fresh, Dup };

struct TenantQuery {
  Kind kind = Kind::Pool;
  std::size_t index = 0;  // pool template, or fresh-study number
  [[nodiscard]] std::string key() const {
    return (kind == Kind::Pool ? "pool" : kind == Kind::Dup ? "dup" : "fresh") +
           std::to_string(index);
  }
};

/// Both tenants' sequences. 10% of positions are shared duplicates: both
/// tenants submit the same study at the same position, so one rides the
/// other's in-flight job. Between two duplicate positions tenant A runs a
/// seeded mix (overall 20% fresh-size studies, the rest pool studies in
/// balanced seeded rounds), and tenant B runs the same mix in another
/// seeded order, its fresh studies on the same apps at neighbouring sizes.
/// So both tenants bring the same work to every rendezvous, and how long
/// one waits there for the other does not depend on the seed.
std::array<std::vector<TenantQuery>, 2> tenant_schedules(std::uint64_t seed, long per_tenant) {
  Rng rng(seed ^ 0x7e7a7u);
  const auto n = static_cast<std::size_t>(per_tenant);
  const std::size_t dups = (n + 5) / 10;
  const std::size_t fresh = (n + 2) / 5;
  std::vector<std::size_t> pos(n);
  std::iota(pos.begin(), pos.end(), 0);
  rng.shuffle(pos);
  std::vector<bool> is_dup(n, false);
  for (std::size_t i = 0; i < dups; ++i) is_dup[pos[i]] = true;
  const std::vector<std::size_t> dup_pool =
      round_schedule(serve_pool().size(), static_cast<long>(dups), rng);
  std::vector<Kind> kinds;
  for (std::size_t i = 0; i < n - dups; ++i) kinds.push_back(i < fresh ? Kind::Fresh : Kind::Pool);
  rng.shuffle(kinds);
  const std::vector<std::size_t> pool_order =
      round_schedule(serve_pool().size(), static_cast<long>(n - dups - fresh), rng);

  // a fresh-study number is serial * apps + app; A takes even serials, B odd
  const std::size_t apps = fresh_apps().size();
  std::array<std::vector<TenantQuery>, 2> out;
  std::size_t k = 0, d = 0, p = 0, f = 0;
  for (std::size_t i = 0; i < n;) {
    if (is_dup[i++]) {
      for (auto& seq : out) seq.push_back({Kind::Dup, dup_pool[d]});
      ++d;
      continue;
    }
    std::vector<TenantQuery> a, b;  // one segment: up to the next duplicate
    for (--i; i < n && !is_dup[i]; ++i) {
      if (kinds[k++] == Kind::Fresh) {
        const std::size_t serial = 2 * (f / apps), app = f % apps;
        a.push_back({Kind::Fresh, serial * apps + app});
        b.push_back({Kind::Fresh, (serial + 1) * apps + app});
        ++f;
      } else {
        a.push_back({Kind::Pool, pool_order[p++]});
        b.push_back(a.back());
      }
    }
    rng.shuffle(b);
    out[0].insert(out[0].end(), a.begin(), a.end());
    out[1].insert(out[1].end(), b.begin(), b.end());
  }
  return out;
}

/// A fresh-size study: a small knob grid over two problem sizes no other
/// query of this run uses, so its layouts miss and write through the spill.
study::StudyPlan fresh_study(std::size_t number, std::uint64_t seed) {
  const std::string& app_id = fresh_apps()[number % fresh_apps().size()];
  const suite::BenchmarkApp& app = suite::app(app_id);
  // Two consecutive sizes per serial number, above every pool size, from a
  // per-app base the seed shifts by up to 6. Small steps keep N-Body's cost,
  // which grows with n, nearly the same over the run.
  const long long base = app_id == "nbody" ? 130 : app_id == "lfk2" ? 9000 : 300;
  const auto serial = static_cast<long long>(number / fresh_apps().size());
  const long long n0 = base + static_cast<long long>(seed % 7) + 2 * serial;
  const std::vector<long long> sizes{n0, n0 + 1};
  study::StudyPlan plan("fresh " + std::to_string(number));
  plan.source(app.source)
      .knob_axis(study::Knob::Latency, {0.5, 1, 2, 4})
      .knob_axis(study::Knob::Bandwidth, {1, 2})
      .knob_axis(study::Knob::Cpu, {1, 2})
      .problems_from(sizes, app.bindings)
      .nprocs({1, 2, 4, 8})
      .runs(0)
      .add_variant(variant_of(app));
  return plan;
}

/// Rendezvous for the duplicate positions: both tenants submit together.
class Rendezvous {
 public:
  void arrive() {
    std::unique_lock<std::mutex> lk(m_);
    const long gen = gen_;
    if (++waiting_ == 2) {
      waiting_ = 0;
      ++gen_;
      cv_.notify_all();
    } else {
      cv_.wait(lk, [&] { return gen_ != gen; });
    }
  }

 private:
  std::mutex m_;
  std::condition_variable cv_;
  int waiting_ = 0;
  long gen_ = 0;
};

/// The daemon's options; the traced daemon of a --trace 1 run has its own
/// socket and spill beside the untraced one's.
serve::ServerOptions daemon_options(const std::string& dir, bool trace) {
  serve::ServerOptions o;
  o.socket_path = dir + (trace ? "/traced.sock" : "/daemon.sock");
  o.artifact_dir = dir + (trace ? "/spill-traced" : "/spill");
  o.executors = 2;
  o.trace = trace;
  o.trace_capacity = trace ? (1u << 18) : (1u << 14);
  return o;
}

/// One served query as the client sees it.
struct Served {
  std::uint64_t job = 0;
  std::uint64_t start = 0, submitted = 0, end = 0;
  serve::JobResult result;
};

Served serve_query(serve::ServeClient& client, const study::StudyPlan& plan, SpanLog* spans,
                   long q, int thread) {
  Served s;
  s.start = now_ns();
  Scope root(spans, "query", -1, q, thread);
  {
    Scope sub(spans, "serve.submit", root.id(), q, thread);
    s.job = client.submit(plan);
  }
  s.submitted = now_ns();
  {
    Scope w(spans, "serve.wait", root.id(), q, thread);
    s.result = client.wait(s.job);
  }
  s.end = now_ns();
  return s;
}

/// The first served result of one distinct plan: every later one must
/// have its fingerprint, and it is checked against the reference path.
struct FirstServed {
  TenantQuery query;
  study::StudyResult result;
  std::uint64_t print = 0;
  long count = 0;  // results served for this plan
};

struct TenantPass {
  Outcome tally;  // this tenant's latencies, points, attempted/failed
  std::map<std::string, FirstServed> first;
  // the traced twins of a --trace 1 run
  std::vector<Served> served;
  std::vector<double> encode_ms, decode_ms, untraced_ms;
  long twin_points = 0;
};

Outcome run_serve_tenants(const Args& args) {
  Outcome o;
  const std::string dir = args.out + "/serve";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const long per_tenant = std::max<long>(10, std::lround(args.seconds * kServeRate / 2));
  const auto schedules = tenant_schedules(args.seed, per_tenant);
  std::array<std::vector<study::StudyPlan>, 2> pools;
  for (std::size_t t = 0; t < pools.size(); ++t) {
    Rng rng(args.seed ^ 0x5e7eu);  // the same studies for both tenants
    for (std::size_t i = 0; i < serve_pool().size(); ++i) {
      pools[t].push_back(make_study(serve_pool()[i], rng,
                                    (t ? "tenant-b" : "tenant-a") + (" study " + std::to_string(i))));
    }
  }
  const auto plan_of = [&](std::size_t t, const TenantQuery& tq) {
    return tq.kind == Kind::Fresh ? fresh_study(tq.index, args.seed)
                                  : pools[tq.kind == Kind::Dup ? 0 : t][tq.index];
  };
  const auto pool_pass = [&](serve::ExperimentServer& server) {
    serve::ServeClient c(server.options().socket_path, "warmup");
    c.connect();
    for (const auto& pool : pools) {
      for (const auto& p : pool) {
        if (!c.wait(c.submit(p)).ok()) throw std::runtime_error("warm-up study failed");
      }
    }
    c.close();
  };

  // Set-up: a daemon populates the spill (untimed); then, kSetupSlices times,
  // stop it, start a new one that warm-starts from the spill, and take the
  // first report. The last daemon serves the queries.
  std::unique_ptr<serve::ExperimentServer> server =
      std::make_unique<serve::ExperimentServer>(daemon_options(dir, false));
  server->start();
  pool_pass(*server);
  std::vector<double> stop_ms, start_ms;
  for (int rep = 0; rep < kSetupSlices; ++rep) {
    const std::uint64_t t0 = now_ns();
    server->stop();
    const std::uint64_t t1 = now_ns();
    server = std::make_unique<serve::ExperimentServer>(daemon_options(dir, false));
    server->start();
    const std::uint64_t t2 = now_ns();
    serve::ServeClient c(server->options().socket_path, "restart");
    c.connect();
    const bool ok = c.wait(c.submit(pools[0][0])).ok();
    const std::uint64_t t3 = now_ns();
    c.close();
    if (!ok) throw std::runtime_error("first report after restart failed");
    o.setup_s.push_back(ms_between(t0, t3) / 1e3);
    stop_ms.push_back(ms_between(t0, t1));
    start_ms.push_back(ms_between(t1, t2));
  }
  const std::size_t setup_spill_hits = server->stats().cache.layout_spill_hits;
  pool_pass(*server);

  // A traced run also starts a second daemon with its tracer on, warmed
  // alike, which answers the traced twins.
  std::unique_ptr<serve::ExperimentServer> traced;
  serve::ServerStats before;
  obs::Histogram* qwait = nullptr;
  double wait_before = 0;
  if (args.trace) {
    traced = std::make_unique<serve::ExperimentServer>(daemon_options(dir, true));
    traced->start();
    pool_pass(*traced);
    traced->tracer().clear();
    before = traced->stats();
    qwait = &traced->metrics().histogram("hpf90d_job_queue_wait_seconds",
                                         "Per-job time spent queued",
                                         {0.0001, 0.001, 0.01, 0.1, 1.0, 10.0, 60.0});
    wait_before = qwait->sum();
  }

  // Both tenants' closed loops. Nothing may escape a tenant thread, and a
  // tenant that fails still keeps every rendezvous so the other one cannot
  // hang.
  SpanLog spans;
  std::array<TenantPass, 2> tenants;
  Rendezvous meet, start_line;
  const auto tenant = [&](int t) {
    TenantPass& tp = tenants[static_cast<std::size_t>(t)];
    const std::string name = t == 0 ? "tenant-a" : "tenant-b";
    serve::ServeClient client(server->options().socket_path, name);
    std::optional<serve::ServeClient> traced_client;
    if (traced) traced_client.emplace(traced->options().socket_path, name);
    std::string down;
    try {
      client.connect();
      if (traced_client) traced_client->connect();
    } catch (const std::exception& e) {
      down = e.what();
    }
    start_line.arrive();
    const auto& sched = schedules[static_cast<std::size_t>(t)];
    for (std::size_t i = 0; i < sched.size(); ++i) {
      const TenantQuery& tq = sched[i];
      const std::string key = tq.key();
      const long q = static_cast<long>(t) * 1000000 + static_cast<long>(i);
      const bool twin = traced && static_cast<long>(i) % kTraceEvery == 0;
      double untraced_ms = 0;
      for (int k = 0; k < (twin ? 2 : 1); ++k) {
        if (tq.kind == Kind::Dup) meet.arrive();
        ++tp.tally.attempted;
        if (!down.empty()) {
          tp.tally.fail(key + ": " + down);
          continue;
        }
        try {
          const study::StudyPlan plan = plan_of(static_cast<std::size_t>(t), tq);
          Served s = serve_query(k ? *traced_client : client, plan, k ? &spans : nullptr, q, t + 1);
          const double ms = ms_between(s.start, s.end);
          if (k == 0) {
            tp.tally.latencies_ms.push_back(ms);
            untraced_ms = ms;
          }
          if (!s.result.ok() || !s.result.is_study) {
            tp.tally.fail(key + ": job " + s.result.state);
            continue;
          }
          const auto points = static_cast<long>(s.result.study.report.records.size());
          (k ? tp.twin_points : tp.tally.points) += points;
          if (k) {
            // probes outside the query span: the client-side cost of the
            // server's CSV encode and of the client's decode of that body
            std::uint64_t a = now_ns();
            const std::string body = s.result.study.csv();
            tp.encode_ms.push_back(ms_between(a, now_ns()));
            a = now_ns();
            (void)study::StudyResult::from_csv(body);
            tp.decode_ms.push_back(ms_between(a, now_ns()));
          }
          const std::uint64_t print = fingerprint(s.result.study);
          auto [it, is_first] = tp.first.try_emplace(key);
          FirstServed& f = it->second;
          ++f.count;
          if (is_first) {
            f.query = tq;
            f.print = print;
            f.result = std::move(s.result.study);
          } else if (f.print != print) {
            tp.tally.fail(key + ": served result changed");
          }
          if (k) {
            s.result.study = {};
            tp.served.push_back(std::move(s));
            tp.untraced_ms.push_back(untraced_ms);
          }
        } catch (const std::exception& e) {
          tp.tally.fail(key + ": " + e.what());
        }
      }
    }
    client.close();
    if (traced_client) traced_client->close();
  };
  const std::uint64_t t0 = now_ns();
  {
    std::thread a(tenant, 0), b(tenant, 1);
    a.join();
    b.join();
  }
  o.timed_wall_s = ms_between(t0, now_ns()) / 1e3;
  o.rss_mb = vm_hwm_mb();

  if (traced) {
    const serve::ServerStats after = traced->stats();
    const std::vector<obs::SpanRecord> obs_spans = traced->tracer().snapshot();

    // Per job, from the daemon's spans: the queue wait, and the job span
    // covering plan decode, study lowering, the sweep, the CSV encode and
    // the outcome encode. What is left of a job span after the sweep
    // (JobResult::wall_seconds) and the encode is the job overhead. A
    // coalesced job runs nothing itself: from its pop to the reply it waits
    // for the leader's outcome.
    std::map<std::uint64_t, const obs::SpanRecord*> queued, job_span;
    for (const auto& sp : obs_spans) {
      if (sp.phase == obs::Phase::QueueWait) queued[sp.arg] = &sp;
      if (sp.phase == obs::Phase::JobExecute) job_span[sp.arg] = &sp;
    }
    double query = 0, submit = 0, execute = 0, encode = 0, decode = 0, overhead = 0,
           coalesced = 0;
    long nq = 0, points = 0;
    std::vector<double> untraced_lat, traced_lat;
    for (const auto& tp : tenants) {
      for (std::size_t i = 0; i < tp.served.size(); ++i) {
        const Served& s = tp.served[i];
        query += ms_between(s.start, s.end);
        submit += ms_between(s.start, s.submitted);
        decode += tp.decode_ms[i];
        const double wall = s.result.wall_seconds * 1e3;
        if (const auto job = job_span.find(s.job); job != job_span.end()) {
          const double dur = static_cast<double>(job->second->dur_ns) / 1e6;
          const double enc = std::clamp(dur - wall, 0.0, tp.encode_ms[i]);
          execute += wall;
          encode += enc;
          overhead += std::max(0.0, dur - wall - enc);
        } else if (const auto qd = queued.find(s.job); qd != queued.end()) {
          const std::uint64_t popped = qd->second->start_ns + qd->second->dur_ns;
          coalesced += std::max(0.0, ms_between(popped, s.end) - tp.decode_ms[i]);
        }
        traced_lat.push_back(ms_between(s.start, s.end));
        ++nq;
      }
      untraced_lat.insert(untraced_lat.end(), tp.untraced_ms.begin(), tp.untraced_ms.end());
      points += tp.twin_points;
    }
    const double wait = (qwait->sum() - wait_before) * 1e3;
    const double per = nq ? 1.0 / static_cast<double>(nq) : 0.0;
    const double unattributed =
        query - submit - wait - execute - encode - decode - overhead - coalesced;
    set_layer(o, "serve.submit_ms", submit * per);
    set_layer(o, "serve.queue_wait_ms", wait * per);
    set_layer(o, "serve.execute_ms", execute * per);
    set_layer(o, "serve.encode_ms", encode * per);
    set_layer(o, "serve.decode_ms", decode * per);
    set_layer(o, "serve.job_overhead_ms", overhead * per);
    set_layer(o, "serve.coalesced_wait_ms", coalesced * per);
    set_layer(o, "serve.unattributed_ms", unattributed * per);
    const std::size_t jobs = after.jobs_submitted - before.jobs_submitted;
    set_layer(o, "serve.coalesced_frac",
              jobs ? static_cast<double>(after.jobs_coalesced - before.jobs_coalesced) /
                         static_cast<double>(jobs)
                   : 0.0);
    set_layer(o, "serve.spill_layouts_stored",
              static_cast<double>(after.spill_layouts_stored - before.spill_layouts_stored));
    set_layer(o, "api.layout_spill_hits", static_cast<double>(setup_spill_hits));
    set_layer(o, "serve.stop_ms", median(stop_ms));
    set_layer(o, "serve.warm_start_ms", median(start_ms));
    api::BatchStats b;
    b.batched_points = after.points_batched - before.points_batched;
    b.replayed_points = after.points_replayed - before.points_replayed;
    b.ir_visits = after.batch_ir_visits - before.batch_ir_visits;
    b.lane_visits = after.batch_lane_visits - before.batch_lane_visits;
    b.evicted_lanes = after.lanes_evicted - before.lanes_evicted;
    b.refilled_lanes = after.lanes_refilled - before.lanes_refilled;
    b.pooled_lanes = after.lanes_pooled - before.lanes_pooled;
    b.speculated_branches = after.branches_speculated - before.branches_speculated;
    set_batch_layers(o, b, static_cast<std::size_t>(points));
    const api::CacheStats dc = after.cache - before.cache;
    set_layer(o, "api.layout_hit_ratio", ratio(dc.layout_hits, dc.layout_misses));
    set_layer(o, "api.compile_hit_ratio", ratio(dc.compile_hits, dc.compile_misses));
    const auto phases = phase_self_ms(obs_spans);
    set_layer(o, "api.chunk_schedule_ms", phase_ms(phases, obs::Phase::ChunkSchedule) * per);
    set_layer(o, "core.lockstep_ms", phase_ms(phases, obs::Phase::LockstepWindow) * per);
    set_layer(o, "core.replay_ms", phase_ms(phases, obs::Phase::ScalarReplay) * per);
    // the daemon compiles and builds layouts for fresh sizes during queries
    set_layer(o, "hpf.compile_ms", phase_ms(phases, obs::Phase::Compile) * per);
    set_layer(o, "api.layout_build_ms", phase_ms(phases, obs::Phase::LayoutBuild) * per);
    set_layer(o, "ledger.query_ms", query * per);
    set_layer(o, "ledger.unattributed_ms", unattributed * per);
    set_layer(o, "ledger.attributed_pct", query > 0 ? 100.0 * (query - unattributed) / query : 0);
    set_layer(o, "obs.trace_overhead_pct", overhead_pct(untraced_lat, traced_lat));
    // job-side spans join the client spans in one timeline
    for (const auto& sp : obs_spans) {
      if (sp.phase == obs::Phase::QueueWait || sp.phase == obs::Phase::JobExecute) {
        (void)spans.add(std::string("obs.") + obs::phase_name(sp.phase), sp.start_ns,
                        sp.start_ns + sp.dur_ns, -1, static_cast<long>(sp.arg), 3);
      }
    }
    spans.write_chrome(args.out + "/serve_tenants.spans.json");
    std::ofstream(args.out + "/serve_tenants.obs.json") << traced->tracer().chrome_trace_json();
    traced->stop();
  }
  server->stop();

  // Output check: the first served result of every distinct plan against
  // an in-process run of the same plan on the scalar reference path, on a
  // few threads, each with its own session.
  std::vector<const FirstServed*> firsts;
  std::vector<std::size_t> owner;
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    TenantPass& tp = tenants[t];
    o.attempted += tp.tally.attempted;
    o.failed += tp.tally.failed;
    for (const auto& f : tp.tally.failures) {
      if (o.failures.size() < 8) o.failures.push_back(f);
    }
    o.latencies_ms.insert(o.latencies_ms.end(), tp.tally.latencies_ms.begin(),
                          tp.tally.latencies_ms.end());
    o.points += tp.tally.points;
    for (const auto& [key, f] : tp.first) {
      firsts.push_back(&f);
      owner.push_back(t);
    }
  }
  std::vector<api::Session> reference(kReferenceStreams);
  api::RunOptions scalar;
  scalar.workers = 1;
  scalar.batch_size = 1;
  std::vector<char> matches(firsts.size());
  (void)on_streams(kReferenceStreams, 0, static_cast<long>(firsts.size()), [&](int sid, long c) {
    const auto i = static_cast<std::size_t>(c);
    const study::StudyPlan plan = plan_of(owner[i], firsts[i]->query);
    matches[i] = study::run_study(reference[static_cast<std::size_t>(sid)], plan, scalar).csv() ==
                 firsts[i]->result.csv();
  });
  for (std::size_t i = 0; i < firsts.size(); ++i) {
    if (!matches[i]) {
      o.fail("serve_tenants tenant " + std::to_string(owner[i]) + " " + firsts[i]->query.key() +
                 " differs from the in-process reference",
             firsts[i]->count);
    }
  }
  fs::remove_all(dir);
  return o;
}

// ---- command line ------------------------------------------------------------------

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--out") a.out = v;
    else throw std::invalid_argument("unknown option " + k);
  }
  if (argc % 2 == 0) throw std::invalid_argument("options come in --name value pairs");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  Outcome o;
  try {
    args = parse(argc, argv);
    fs::create_directories(args.out);
    if (args.workload == "study_warm") o = run_study_warm(args);
    else if (args.workload == "measured_sweep") o = run_measured_sweep(args);
    else if (args.workload == "serve_tenants") o = run_serve_tenants(args);
    else throw std::invalid_argument("unknown workload '" + args.workload + "'");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hpfbench: %s\n", e.what());
    return 2;
  }
  o.failed = std::min(o.failed, o.attempted);  // a query can fail two checks
  for (const auto& f : o.failures) std::fprintf(stderr, "hpfbench: mismatch: %s\n", f.c_str());
  std::fprintf(stderr, "hpfbench: set-up samples (s):");
  for (double s : o.setup_s) std::fprintf(stderr, " %.4f", s);
  std::fprintf(stderr, "\n");

  // A traced run's timings include the traced twins, so it reports only
  // the per-layer metrics.
  const auto [tail_ms, tail_pct] = tail(o.latencies_ms);
  std::map<std::string, Metric> m;
  m["failed_frac"] = {o.attempted ? static_cast<double>(o.failed) / static_cast<double>(o.attempted) : 1.0, "ratio"};
  if (args.trace) {
    for (const auto& [name, unit] : layer_metric_units()) {
      m[name] = o.layer.count(name) ? o.layer.at(name) : Metric{0, unit};
    }
  } else {
    m["setup_s"] = {median(o.setup_s), "s"};
    m["points_per_s"] = {o.timed_wall_s > 0 ? static_cast<double>(o.points) / o.timed_wall_s : 0, "1/s"};
    m["query_p50_ms"] = {median(o.latencies_ms), "ms"};
    m["query_tail_ms"] = {tail_ms, "ms"};
    m["peak_rss_mb"] = {o.rss_mb, "MB"};
  }
  std::ostringstream js;
  js << "{\"workload\":\"" << args.workload << "\",\"seed\":" << args.seed
     << ",\"attempted\":" << o.attempted << ",\"failed\":" << o.failed
     << ",\"queries\":" << o.latencies_ms.size() << ",\"timed_s\":" << o.timed_wall_s
     << ",\"tail_percentile\":" << tail_pct
     << ",\"setup_samples\":" << o.setup_s.size() << ",\"build_type\":\"" << HPFBENCH_BUILD_TYPE
     << "\",\"cxx_flags\":\"" << json_escape(HPFBENCH_CXX_FLAGS) << "\",\"metrics\":{";
  bool firstm = true;
  for (const auto& [name, metric] : m) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", metric.value);
    js << (firstm ? "" : ",") << '"' << name << "\":{\"value\":" << buf << ",\"unit\":\""
       << metric.unit << "\"}";
    firstm = false;
  }
  js << "}}";
  std::printf("%s\n", js.str().c_str());
  return o.failed == 0 && o.attempted > 0 ? 0 : 1;
}
