// codec_fixtures.hpp — the inputs behind tests/fixtures/codec: one value per
// line-record encoder (plan, scaled plan, study, outcome, stats, layout,
// recipe), built to hit the writer's edge cases — subnormal, ±0, ±inf and
// nan doubles, 17-digit values, extreme counters, and strings that hold
// newlines, tabs and NUL bytes. The committed fixture files are these
// values' encodings as written before the encoders moved onto
// support/codec, so the test that compares against them holds every
// encoder byte-identical across that change and any later one.
#pragma once

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "api/api.hpp"
#include "compiler/pipeline.hpp"
#include "compiler/serialize.hpp"
#include "serve/plan_codec.hpp"
#include "study/study_plan.hpp"

namespace hpf90d::codec_fixtures {

using namespace std::string_literals;

inline const std::vector<double>& edge_doubles() {
  static const std::vector<double> values = {
      0.0,      -0.0,     4.9406564584124654e-324, 1e-320, DBL_MIN,
      DBL_MAX,  -DBL_MAX, INFINITY,                -INFINITY, NAN,
      1.0 / 3,  0.1,      1e21,                    -3.5,   123456789.125};
  return values;
}

constexpr const char* kSource = R"f90(
program fixture
  parameter (n = 24)
  real u(n,n), v(n)
!hpf$ template d(n,n)
!hpf$ template e(n)
!hpf$ align u(i,j) with d(i,j)
!hpf$ align v(i) with e(i)
!hpf$ distribute d(block,cyclic)
!hpf$ distribute e(cyclic)
  forall (i = 2:n-1, j = 2:n-1) u(i,j) = 0.25*(u(i-1,j) + u(i+1,j))
  v(1) = 0.0
end program fixture
)f90";

inline front::Bindings edge_bindings() {
  front::Bindings b;
  const std::vector<double>& values = edge_doubles();
  for (std::size_t i = 0; i < values.size(); ++i) b.set("edge" + std::to_string(i), values[i]);
  return b;
}

inline api::ExperimentPlan edge_plan() {
  api::ExperimentPlan plan("fixture\n\ttitle, with \0 nul"s);
  plan.source(kSource)
      .machines({"ipsc860", "paragon"})
      .nprocs({1, 2, 4, 2147483647})
      .add_variant("(block,cyclic)", {"distribute d(block,cyclic)", "", "two\nlines"}, 2)
      .add_variant("plain", {}, std::nullopt)
      .runs(-3);
  plan.add_problem("edges", edge_bindings());
  plan.add_problem("", {});
  compiler::CompilerOptions co;
  co.message_vectorization = false;
  co.default_mask_probability = 1.0 / 3;
  plan.compiler_options(co);
  core::PredictOptions po;
  po.mask_probability = 4.9406564584124654e-324;
  po.collective = machine::CollectiveAlgo::Linear;
  po.trace = true;
  po.max_trace_events = std::numeric_limits<std::size_t>::max();
  plan.predict_options(po);
  sim::SimOptions so;
  so.seed = std::numeric_limits<std::uint64_t>::max();
  so.noise = false;
  so.contention = true;
  so.max_while_trips = std::numeric_limits<long long>::min();
  plan.sim_options(so);
  return plan;
}

inline api::ExperimentPlan scaled_plan() {
  api::ExperimentPlan plan("weak scaling");
  plan.source(kSource).nprocs({1, 4, 16});
  plan.problems_scaled_by_nprocs({24, 7}, [](long long scaled) {
    front::Bindings b;
    b.set_int("n", scaled);
    b.set("tiny", 1e-320);
    return b;
  });
  return plan;
}

inline study::StudyPlan edge_study() {
  study::StudyPlan plan("what-if\nedges");
  plan.source(kSource)
      .base_machine("fattree")
      .knob_axis(study::Knob::Latency, edge_doubles())
      .knob_axis(study::Knob::Cpu, {0.5, 1.0 / 3})
      .knob_axis(study::Knob::Bandwidth, {})
      .add_reference_machine("ipsc860")
      .add_reference_machine("")
      .nprocs({1, 2, 8})
      .runs(0);
  return plan;
}

inline serve::JobOutcome edge_outcome() {
  serve::JobOutcome outcome;
  outcome.state = "failed";
  outcome.is_study = true;
  outcome.title = "t\n";
  outcome.error = "bad\0plan"s;
  outcome.wall_seconds = 4.9406564584124654e-324;
  outcome.cache.compile_hits = std::numeric_limits<std::size_t>::max();
  outcome.cache.compile_misses = 1;
  outcome.cache.layout_hits = 22;
  outcome.cache.layout_misses = 333;
  outcome.cache.layout_evictions = 4444;
  outcome.cache.layout_spill_hits = 55555;
  outcome.cache.layout_capacity = 666666;
  outcome.body_csv = "a,b\n1,-0\n";
  return outcome;
}

inline serve::ServerStats edge_stats() {
  serve::ServerStats s;
  std::uint64_t next = 1;
  const auto fill = [&next](auto&... fields) { ((fields = next, next = next * 10 + 7), ...); };
  fill(s.cache.compile_hits, s.cache.compile_misses, s.cache.layout_hits,
       s.cache.layout_misses, s.cache.layout_evictions, s.cache.layout_spill_hits,
       s.cache.layout_capacity, s.cached_programs, s.cached_layouts, s.warmed_programs,
       s.jobs_submitted, s.jobs_done, s.jobs_failed, s.jobs_cancelled,
       s.spill_layouts_stored, s.spill_layouts_loaded, s.spill_programs_stored,
       s.jobs_coalesced, s.points_batched, s.points_scalar, s.points_replayed,
       s.batch_ir_visits, s.batch_lane_visits, s.lanes_evicted, s.lanes_refilled,
       s.simd_stripes, s.lanes_pooled, s.branches_speculated, s.lanes_speculated,
       s.queue_depth, s.jobs_running, s.slow_jobs);
  s.spill_dir_bytes = std::numeric_limits<std::uint64_t>::max();
  s.spill_dir_files = 0;
  return s;
}

inline compiler::DataLayout edge_layout() {
  const compiler::CompiledProgram prog = compiler::compile(kSource);
  compiler::LayoutOptions lo;
  lo.nprocs = 6;
  lo.grid_shape = std::vector<int>{2, 3};
  return compiler::make_layout(prog, edge_bindings(), lo);
}

/// (fixture file name, encoding) for every encoder.
inline std::vector<std::pair<std::string, std::string>> encodings() {
  compiler::CompilerOptions nan_options;
  nan_options.default_mask_probability = -NAN;
  return {
      {"plan.txt", serve::encode_plan(edge_plan())},
      {"plan_scaled.txt", serve::encode_plan(scaled_plan())},
      {"study.txt", serve::encode_study(edge_study())},
      {"outcome.txt", serve::encode_outcome(edge_outcome())},
      {"outcome_empty.txt", serve::encode_outcome(serve::JobOutcome{})},
      {"stats.txt", serve::encode_stats(edge_stats())},
      {"layout.txt", compiler::serialize_layout(edge_layout())},
      {"recipe.txt",
       compiler::serialize_recipe("src\0\n\tx"s,
                                  {"distribute d(block,cyclic)", "", "a\nb"},
                                  compiler::CompilerOptions{})},
      {"recipe_nan.txt", compiler::serialize_recipe("", {}, nan_options)},
  };
}

}  // namespace hpf90d::codec_fixtures
