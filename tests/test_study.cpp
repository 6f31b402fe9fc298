// Study subsystem tests: machine-family grid generation (deterministic
// names), StudyPlan lowering into one batched ExperimentPlan, crossover /
// scalability / bottleneck analysis on synthetic studies, deterministic
// exports across worker counts (the acceptance sweep), and the CSV/JSON
// round-trip parsers (with a seeded mutation fuzz), plus an oracle that
// holds the analysis to the straightforward map-based implementation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "codec_fuzz.hpp"
#include "machine/ipsc860.hpp"
#include "study/study.hpp"
#include "suite/suite.hpp"

namespace hpf90d {
namespace {

// --- machine families ---------------------------------------------------------

TEST(MachineFamily, GridNamesAreDeterministic) {
  study::MachineFamily fam("lat-bw", "ipsc860");
  fam.axis(study::Knob::Latency, {0.25, 1, 4}).axis(study::Knob::Bandwidth, {1, 2});
  EXPECT_EQ(fam.size(), 6u);

  const std::vector<study::MachinePoint> pts = fam.points();
  ASSERT_EQ(pts.size(), 6u);
  // earlier axes vary slowest; names embed knob=value pairs with %g
  EXPECT_EQ(pts[0].name, "lat-bw/latency=0.25+bandwidth=1");
  EXPECT_EQ(pts[1].name, "lat-bw/latency=0.25+bandwidth=2");
  EXPECT_EQ(pts[4].name, "lat-bw/latency=4+bandwidth=1");
  EXPECT_EQ(pts[5].name, "lat-bw/latency=4+bandwidth=2");
  EXPECT_DOUBLE_EQ(pts[1].params.latency_scale, 0.25);
  EXPECT_DOUBLE_EQ(pts[1].params.bandwidth_scale, 2.0);
  EXPECT_DOUBLE_EQ(pts[1].params.cpu_scale, 1.0);

  // regenerating yields the identical grid — the determinism contract
  const std::vector<study::MachinePoint> again = fam.points();
  for (std::size_t i = 0; i < pts.size(); ++i) EXPECT_EQ(pts[i].name, again[i].name);

  // re-setting an axis replaces its values but keeps its position
  fam.axis(study::Knob::Latency, {1});
  EXPECT_EQ(fam.size(), 2u);
  EXPECT_EQ(fam.points()[0].name, "lat-bw/latency=1+bandwidth=1");
}

TEST(MachineFamily, ValidatesAxesAndBase) {
  study::MachineFamily fam("bad");
  fam.axis(study::Knob::Latency, {});
  EXPECT_THROW(fam.validate(), std::invalid_argument);
  fam.axis(study::Knob::Latency, {0.0});
  EXPECT_THROW(fam.validate(), std::invalid_argument);
  fam.axis(study::Knob::Latency, {1.0});
  EXPECT_NO_THROW(fam.validate());

  api::MachineRegistry registry;
  study::MachineFamily unknown("u", "sp2");
  unknown.axis(study::Knob::Cpu, {2});
  EXPECT_THROW((void)unknown.register_into(registry), std::out_of_range);
}

TEST(MachineFamily, RegisterIntoProducesScaledDerivatives) {
  api::MachineRegistry registry;
  study::MachineFamily fam("f", "ipsc860");
  fam.axis(study::Knob::Latency, {0.5});
  const std::vector<std::string> names = fam.register_into(registry);
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "f/latency=0.5");
  ASSERT_TRUE(registry.contains(names[0]));
  EXPECT_FALSE(registry.description(names[0]).empty());

  const machine::MachineModel& stock = registry.get("ipsc860", 4);
  const machine::MachineModel& scaled = registry.get(names[0], 4);
  EXPECT_DOUBLE_EQ(scaled.node().comm.latency_short,
                   0.5 * stock.node().comm.latency_short);
  EXPECT_DOUBLE_EQ(scaled.node().comm.per_byte, stock.node().comm.per_byte);

  // any registered machine works as the base — here the fat tree
  study::MachineFamily ft("ft", "fattree");
  ft.axis(study::Knob::Bandwidth, {2});
  const std::vector<std::string> ft_names = ft.register_into(registry);
  const machine::MachineModel& ft_stock = registry.get("fattree", 8);
  const machine::MachineModel& ft_scaled = registry.get(ft_names[0], 8);
  EXPECT_DOUBLE_EQ(ft_scaled.node().comm.per_byte, ft_stock.node().comm.per_byte / 2.0);
}

TEST(MachineFamily, ReRegisteringAnUnchangedPointKeepsItsModels) {
  api::MachineRegistry registry;
  study::MachineFamily fam("f", "ipsc860");
  fam.axis(study::Knob::Latency, {0.5, 2});
  const std::vector<std::string> names = fam.register_into(registry);
  const machine::MachineModel* cached = &registry.get(names[0], 4);
  const std::uint64_t serial = registry.serial(names[0]);
  ASSERT_NE(serial, 0u);

  // a warm loop re-registers the same points: a no-op, so get() keeps
  // handing out the cached instance and nothing is retired
  EXPECT_EQ(fam.register_into(registry), names);
  EXPECT_EQ(registry.serial(names[0]), serial);
  EXPECT_EQ(&registry.get(names[0], 4), cached);

  // a knob value that prints the same under %g is still a different point
  study::MachineFamily nudged("f", "ipsc860");
  nudged.axis(study::Knob::Latency, {0.5 + 1e-12, 2});
  EXPECT_EQ(nudged.register_into(registry), names);
  EXPECT_NE(registry.serial(names[0]), serial);
  EXPECT_NE(&registry.get(names[0], 4), cached);
  EXPECT_DOUBLE_EQ(cached->node().comm.latency_short,
                   0.5 * registry.get("ipsc860", 4).node().comm.latency_short);

  // replacing the base re-derives every point
  const std::uint64_t before_base = registry.serial(names[1]);
  registry.register_machine("ipsc860", [](int n) { return machine::make_ipsc860(n); });
  (void)fam.register_into(registry);
  EXPECT_NE(registry.serial(names[1]), before_base);
}

// --- study plans --------------------------------------------------------------

TEST(StudyPlan, LowersToOneBatchedPlanWithGeneratedMachineAxis) {
  api::Session session;
  const auto& app = suite::app("pi");

  study::StudyPlan plan("lowering check");
  plan.source(app.source)
      .add_reference_machine("ipsc860")
      .knob_axis(study::Knob::Latency, {0.25, 1, 4})
      .knob_axis(study::Knob::Bandwidth, {1, 2})
      .problems_from({256}, app.bindings)
      .nprocs({1, 4})
      .runs(0);

  // 1 reference + 3x2 family points, one variant, one problem, two nprocs
  EXPECT_EQ(plan.machine_count(), 7u);
  EXPECT_EQ(plan.point_count(), 14u);

  const api::ExperimentPlan lowered = plan.lower(session);
  EXPECT_EQ(lowered.point_count(), plan.point_count());
  ASSERT_EQ(lowered.machine_names().size(), 7u);
  EXPECT_EQ(lowered.machine_names()[0], "ipsc860");
  EXPECT_EQ(lowered.machine_names()[1], "lowering-check/latency=0.25+bandwidth=1");
  // lowering registered every family point — no manual register_whatif
  for (const auto& name : lowered.machine_names()) {
    EXPECT_TRUE(session.machines().contains(name)) << name;
  }
}

TEST(StudyPlan, KnoblessStudyFallsBackToBaseMachine) {
  api::Session session;
  study::StudyPlan plan("plain");
  plan.source(suite::app("pi").source).runs(0);
  EXPECT_FALSE(plan.has_knob_axes());
  const api::ExperimentPlan lowered = plan.lower(session);
  EXPECT_EQ(lowered.machine_names(), (std::vector<std::string>{"ipsc860"}));

  const study::StudyResult result = study::run_study(session, plan);
  ASSERT_EQ(result.report.records.size(), 1u);
  EXPECT_TRUE(result.machine_points.empty());
  EXPECT_EQ(result.params_for("ipsc860"), nullptr);
}

// --- analysis on synthetic studies --------------------------------------------

study::StudyResult synthetic_two_variant_study() {
  study::StudyResult s;
  s.title = "synthetic";
  const auto add = [&s](const char* m, const char* v, int np, double t) {
    api::RunRecord r;
    r.machine = m;
    r.variant = v;
    r.problem = "n=1";
    r.nprocs = np;
    r.comparison.estimated = t;
    s.report.records.push_back(std::move(r));
  };
  // variant A leads at P=1 and P=2, B overtakes at P=4
  add("m", "A", 1, 1.0);
  add("m", "B", 1, 2.0);
  add("m", "A", 2, 0.9);
  add("m", "B", 2, 1.0);
  add("m", "A", 4, 0.8);
  add("m", "B", 4, 0.5);
  return s;
}

TEST(StudyResult, DetectsVariantCrossoverAlongNprocs) {
  const study::StudyResult s = synthetic_two_variant_study();
  const std::vector<study::Crossover> flips = s.crossovers();
  ASSERT_EQ(flips.size(), 1u);
  const study::Crossover& x = flips[0];
  EXPECT_EQ(x.axis, "variant");
  EXPECT_EQ(x.a, "A");
  EXPECT_EQ(x.b, "B");
  EXPECT_EQ(x.context, "m");
  EXPECT_EQ(x.problem, "n=1");
  EXPECT_EQ(x.nprocs_before, 2);
  EXPECT_EQ(x.nprocs_after, 4);
  EXPECT_DOUBLE_EQ(x.a_before, 0.9);
  EXPECT_DOUBLE_EQ(x.b_after, 0.5);
  // the rendering names the winner on each side of the flip
  EXPECT_NE(x.str().find("A wins at P=2"), std::string::npos);
  EXPECT_NE(x.str().find("B wins at P=4"), std::string::npos);
}

TEST(StudyResult, CrossoverSpanningATieAnchorsAtDecisivePoints) {
  study::StudyResult s;
  const auto add = [&s](const char* v, int np, double t) {
    api::RunRecord r;
    r.machine = "m";
    r.variant = v;
    r.problem = "p";
    r.nprocs = np;
    r.comparison.estimated = t;
    s.report.records.push_back(std::move(r));
  };
  // A leads at P=1, dead heat at P=2, B leads at P=4: the flip is reported
  // between the two decisive points, never anchored at the tie
  add("A", 1, 1.0);
  add("B", 1, 2.0);
  add("A", 2, 1.5);
  add("B", 2, 1.5);
  add("A", 4, 2.0);
  add("B", 4, 1.0);
  const std::vector<study::Crossover> flips = s.crossovers();
  ASSERT_EQ(flips.size(), 1u);
  EXPECT_EQ(flips[0].nprocs_before, 1);
  EXPECT_EQ(flips[0].nprocs_after, 4);
  EXPECT_DOUBLE_EQ(flips[0].a_before, 1.0);
  EXPECT_NE(flips[0].str().find("A wins at P=1"), std::string::npos);
}

TEST(StudyResult, MonotoneOrderingHasNoCrossover) {
  study::StudyResult s = synthetic_two_variant_study();
  // make B strictly slower everywhere: ordering never flips
  for (auto& r : s.report.records) {
    if (r.variant == "B") r.comparison.estimated += 10.0;
  }
  EXPECT_TRUE(s.crossovers().empty());
}

TEST(StudyResult, DetectsMachineCrossover) {
  study::StudyResult s;
  const auto add = [&s](const char* m, int np, double t) {
    api::RunRecord r;
    r.machine = m;
    r.variant = "v";
    r.problem = "p";
    r.nprocs = np;
    r.comparison.estimated = t;
    s.report.records.push_back(std::move(r));
  };
  // the cluster's fast nodes win serially; the cube wins at scale
  add("cube", 1, 4.0);
  add("lan", 1, 2.0);
  add("cube", 8, 1.0);
  add("lan", 8, 3.0);
  const std::vector<study::Crossover> flips = s.crossovers();
  ASSERT_EQ(flips.size(), 1u);
  EXPECT_EQ(flips[0].axis, "machine");
  EXPECT_EQ(flips[0].a, "cube");
  EXPECT_EQ(flips[0].b, "lan");
  EXPECT_EQ(flips[0].context, "v");
}

TEST(StudyResult, ScalabilityCurvesRelativeToSmallestP) {
  study::StudyResult s;
  const auto add = [&s](int np, double t) {
    api::RunRecord r;
    r.machine = "m";
    r.variant = "v";
    r.problem = "p";
    r.nprocs = np;
    r.comparison.estimated = t;
    s.report.records.push_back(std::move(r));
  };
  add(1, 8.0);
  add(2, 4.0);
  add(8, 2.0);
  const std::vector<study::ScalabilityCurve> curves = s.scalability();
  ASSERT_EQ(curves.size(), 1u);
  ASSERT_EQ(curves[0].points.size(), 3u);
  EXPECT_DOUBLE_EQ(curves[0].points[0].speedup, 1.0);
  EXPECT_DOUBLE_EQ(curves[0].points[0].efficiency, 1.0);
  EXPECT_DOUBLE_EQ(curves[0].points[1].speedup, 2.0);
  EXPECT_DOUBLE_EQ(curves[0].points[1].efficiency, 1.0);  // perfect to P=2
  EXPECT_DOUBLE_EQ(curves[0].points[2].speedup, 4.0);
  EXPECT_DOUBLE_EQ(curves[0].points[2].efficiency, 0.5);  // 4x on 8x procs
}

TEST(StudyResult, BottleneckAttributionReadsThePhaseDecomposition) {
  study::StudyResult s;
  api::RunRecord r;
  r.machine = "m";
  r.variant = "v";
  r.problem = "p";
  r.nprocs = 4;
  r.comparison.estimated = 1.0;
  r.phases = api::PhaseBreakdown{0.2, 0.6, 0.1, 0.1};
  s.report.records.push_back(r);
  const std::vector<study::BottleneckRecord> b = s.bottlenecks();
  ASSERT_EQ(b.size(), 1u);
  EXPECT_STREQ(b[0].dominant(), "comm");
  EXPECT_DOUBLE_EQ(b[0].phases.dominant_fraction(), 0.6);
  EXPECT_NE(s.ascii().find("comm 60%"), std::string::npos);
}

// --- the acceptance sweep -----------------------------------------------------

study::StudyPlan acceptance_plan() {
  const auto& app = suite::app("laplace_bb");
  study::StudyPlan plan("acceptance study");
  plan.source(app.source)
      .knob_axis(study::Knob::Latency, {0.5, 2})
      .knob_axis(study::Knob::Bandwidth, {1, 2})
      .knob_axis(study::Knob::Cpu, {1, 2})
      .add_variant("(block,block)", suite::app("laplace_bb").directive_overrides, 2)
      .add_variant("(block,*)", suite::app("laplace_bx").directive_overrides)
      .problems_from({16}, app.bindings)
      .nprocs({2, 4})
      .runs(1);
  return plan;
}

TEST(Study, AcceptanceSweepRunsBatchedWithDeterministicExports) {
  // >= 3 knobs x >= 2 variants x >= 2 nprocs through ONE batched
  // Session::run, zero manual register_whatif calls, and byte-identical
  // exports for any worker count.
  const study::StudyPlan plan = acceptance_plan();
  EXPECT_EQ(plan.machine_count(), 8u);   // 2x2x2 knob grid
  EXPECT_EQ(plan.point_count(), 32u);    // x 2 variants x 1 problem x 2 nprocs

  std::vector<std::string> csvs, jsons, asciis;
  for (const int workers : {1, 4}) {
    api::Session session;
    api::RunOptions opts;
    opts.workers = workers;
    const study::StudyResult result = study::run_study(session, plan, opts);
    EXPECT_EQ(result.report.records.size(), 32u);
    EXPECT_EQ(result.machine_points.size(), 8u);
    csvs.push_back(result.csv());
    jsons.push_back(result.json());
    asciis.push_back(result.ascii());
  }
  EXPECT_EQ(csvs[0], csvs[1]);
  EXPECT_EQ(jsons[0], jsons[1]);
  EXPECT_EQ(asciis[0], asciis[1]);
}

TEST(Study, KnobSettingsAreRecoverablePerMachine) {
  api::Session session;
  const study::StudyPlan plan = acceptance_plan();
  const study::StudyResult result = study::run_study(session, plan);
  EXPECT_EQ(result.base_machine, "ipsc860");
  const machine::WhatIfParams* p =
      result.params_for("acceptance-study/latency=0.5+bandwidth=2+cpu=1");
  ASSERT_NE(p, nullptr);
  EXPECT_DOUBLE_EQ(p->latency_scale, 0.5);
  EXPECT_DOUBLE_EQ(p->bandwidth_scale, 2.0);
  EXPECT_DOUBLE_EQ(p->cpu_scale, 1.0);
  EXPECT_EQ(result.params_for("ipsc860"), nullptr);
}

// --- export round trips -------------------------------------------------------

study::StudyResult small_real_study() {
  api::Session session;
  const auto& app = suite::app("pi");
  study::StudyPlan plan("round trip");
  plan.source(app.source)
      .add_reference_machine("ipsc860")
      .knob_axis(study::Knob::Latency, {0.5, 2})
      .problems_from({256}, app.bindings)
      .nprocs({1, 2})
      .runs(1);
  return study::run_study(session, plan);
}

TEST(StudyResult, CsvRoundTripsByteIdentically) {
  const study::StudyResult result = small_real_study();
  const std::string csv = result.csv();
  const study::StudyResult parsed = study::StudyResult::from_csv(csv);
  EXPECT_EQ(parsed.title, result.title);
  EXPECT_EQ(parsed.base_machine, result.base_machine);
  ASSERT_EQ(parsed.machine_points.size(), result.machine_points.size());
  ASSERT_EQ(parsed.report.records.size(), result.report.records.size());
  for (std::size_t i = 0; i < result.report.records.size(); ++i) {
    const api::RunRecord& a = result.report.records[i];
    const api::RunRecord& b = parsed.report.records[i];
    EXPECT_EQ(a.comparison.estimated, b.comparison.estimated);
    EXPECT_EQ(a.comparison.measured_mean, b.comparison.measured_mean);
    EXPECT_EQ(a.phases.comm, b.phases.comm);
    EXPECT_EQ(a.phases.wait, b.phases.wait);
  }
  EXPECT_EQ(parsed.csv(), csv);  // byte-identical re-export
}

TEST(StudyResult, JsonRoundTripsByteIdentically) {
  const study::StudyResult result = small_real_study();
  const std::string json = result.json();
  const study::StudyResult parsed = study::StudyResult::from_json(json);
  EXPECT_EQ(parsed.title, result.title);
  ASSERT_EQ(parsed.machine_points.size(), result.machine_points.size());
  for (std::size_t i = 0; i < result.machine_points.size(); ++i) {
    EXPECT_EQ(parsed.machine_points[i].name, result.machine_points[i].name);
    EXPECT_EQ(parsed.machine_points[i].params.latency_scale,
              result.machine_points[i].params.latency_scale);
  }
  ASSERT_EQ(parsed.report.records.size(), result.report.records.size());
  EXPECT_EQ(parsed.json(), json);  // byte-identical re-export
}

TEST(StudyResult, ParsersRejectMalformedInput) {
  EXPECT_THROW((void)study::StudyResult::from_csv(""), std::invalid_argument);
  EXPECT_THROW((void)study::StudyResult::from_csv("machine,variant\n"),
               std::invalid_argument);
  // corrupted numeric cells surface as the documented invalid_argument:
  // trailing junk and out-of-range values alike
  const study::StudyResult tiny = small_real_study();
  std::string junk = tiny.csv();
  junk.replace(junk.rfind('\n', junk.size() - 2) + 1, std::string::npos,
               "m,v,p,4,1,12abc,0,0,0,0,0,0,0,0\n");
  EXPECT_THROW((void)study::StudyResult::from_csv(junk), std::invalid_argument);
  std::string huge = tiny.csv();
  huge.replace(huge.rfind('\n', huge.size() - 2) + 1, std::string::npos,
               "m,v,p,4,1,1e999999,0,0,0,0,0,0,0,0\n");
  EXPECT_THROW((void)study::StudyResult::from_csv(huge), std::invalid_argument);
  EXPECT_THROW((void)study::StudyResult::from_json(""), std::invalid_argument);
  EXPECT_THROW((void)study::StudyResult::from_json("{\"bogus\": 1}"),
               std::invalid_argument);
  EXPECT_THROW((void)study::StudyResult::from_json("{\"title\": \"x\"} trailing"),
               std::invalid_argument);
}

// --- weak-scaling axis --------------------------------------------------------

TEST(StudyPlan, WeakScalingAxisCouplesProblemSizeToNprocs) {
  api::Session session;
  const auto& app = suite::app("pi");
  study::StudyPlan plan("weak scaling");
  plan.source(app.source).add_reference_machine("ipsc860").nprocs({1, 4}).runs(0);
  plan.problems_scaled_by_nprocs({64}, app.bindings);
  // the scaled pairs replace the problems x nprocs cross product
  EXPECT_EQ(plan.point_count(), 2u);

  const study::StudyResult result = study::run_study(session, plan);
  ASSERT_EQ(result.report.records.size(), 2u);
  EXPECT_EQ(result.report.records[0].nprocs, 1);
  EXPECT_EQ(result.report.records[0].problem, "n=64");
  EXPECT_EQ(result.report.records[1].nprocs, 4);
  EXPECT_EQ(result.report.records[1].problem, "n=256");  // 64 * P at P=4
}

TEST(StudyPlan, WeakScalingAxisIsValidated) {
  const auto& app = suite::app("pi");
  study::StudyPlan unordered("bad");
  unordered.source(app.source);
  // the axis derives sizes from the swept nprocs: nprocs() must come first
  EXPECT_THROW(unordered.problems_scaled_by_nprocs({64}, app.bindings),
               std::invalid_argument);

  study::StudyPlan mixed("bad");
  mixed.source(app.source).nprocs({1, 2});
  mixed.add_problem("fixed", app.bindings(64));
  mixed.problems_scaled_by_nprocs({64}, app.bindings);
  EXPECT_THROW(mixed.validate(), std::invalid_argument);  // mutually exclusive
}

// --- study-vs-study diff ------------------------------------------------------

TEST(StudyDiff, IdenticalStudiesHaveIdenticalConclusions) {
  const study::StudyResult s = synthetic_two_variant_study();
  const study::StudyDiff d = s.diff(s);
  EXPECT_TRUE(d.identical_conclusions());
  EXPECT_NE(d.ascii().find("identical conclusions"), std::string::npos);
}

TEST(StudyDiff, ReportsLostCrossoverAndSignificantDeltas) {
  const study::StudyResult before = synthetic_two_variant_study();
  study::StudyResult after = before;
  // make B strictly slower everywhere: the P=4 overtake disappears
  for (auto& r : after.report.records) {
    if (r.variant == "B") r.comparison.estimated += 10.0;
  }
  const study::StudyDiff d = before.diff(after);
  EXPECT_TRUE(d.gained.empty());
  ASSERT_EQ(d.lost.size(), 1u);
  EXPECT_EQ(d.lost[0].a, "A");
  EXPECT_EQ(d.lost[0].b, "B");
  EXPECT_EQ(d.deltas.size(), 3u);  // every B point moved >= 5%
  EXPECT_EQ(d.only_in_before, 0u);
  EXPECT_FALSE(d.identical_conclusions());

  // the inverse diff reports the same flip as gained
  const study::StudyDiff inverse = after.diff(before);
  EXPECT_EQ(inverse.gained.size(), 1u);
  EXPECT_TRUE(inverse.lost.empty());
}

TEST(StudyDiff, DriftBelowThresholdIsQuiet) {
  const study::StudyResult before = synthetic_two_variant_study();
  study::StudyResult after = before;
  // 1% uniform drift: same crossover anchors, no significant deltas at 5%
  for (auto& r : after.report.records) r.comparison.estimated *= 1.01;
  EXPECT_TRUE(before.diff(after).identical_conclusions());
  EXPECT_FALSE(before.diff(after, 0.005).identical_conclusions());
}

TEST(StudyDiff, CountsUnmatchedPointsAndRendersDeterministically) {
  const study::StudyResult before = synthetic_two_variant_study();
  study::StudyResult after = before;
  after.report.records.pop_back();  // B@4 vanishes from the candidate
  const study::StudyDiff d = before.diff(after);
  EXPECT_EQ(d.only_in_before, 1u);
  EXPECT_EQ(d.only_in_after, 0u);
  EXPECT_EQ(d.lost.size(), 1u);  // and with it the overtake
  EXPECT_FALSE(d.identical_conclusions());
  EXPECT_EQ(d.ascii(), before.diff(after).ascii());
  const std::string csv = d.csv();
  EXPECT_EQ(csv.rfind("kind,", 0), 0u);
  EXPECT_NE(csv.find("crossover,lost,variant,A,B"), std::string::npos);
}

// --- analysis oracle ----------------------------------------------------------
//
// The reference below is the straightforward implementation the analysis
// started from: a std::map keyed by (machine, variant, problem, nprocs)
// strings, probed for every competitor pair at every swept processor count.
// The production index must reproduce it field for field.

namespace reference {

struct Index {
  std::vector<std::string> machines, variants, problems;
  std::vector<int> nprocs;  // ascending
  std::map<std::tuple<std::string, std::string, std::string, int>, const api::RunRecord*>
      by_key;

  explicit Index(const api::RunReport& report) {
    std::set<std::string> seen_m, seen_v, seen_p;
    std::set<int> seen_np;
    for (const auto& r : report.records) {
      if (seen_m.insert(r.machine).second) machines.push_back(r.machine);
      if (seen_v.insert(r.variant).second) variants.push_back(r.variant);
      if (seen_p.insert(r.problem).second) problems.push_back(r.problem);
      seen_np.insert(r.nprocs);
      by_key.emplace(std::make_tuple(r.machine, r.variant, r.problem, r.nprocs), &r);
    }
    nprocs.assign(seen_np.begin(), seen_np.end());
  }

  const api::RunRecord* find(const std::string& m, const std::string& v,
                             const std::string& p, int np) const {
    const auto it = by_key.find(std::make_tuple(m, v, p, np));
    return it == by_key.end() ? nullptr : it->second;
  }
};

template <typename Get>
void scan_pair(const Index& ix, const std::string& axis, const std::string& a,
               const std::string& b, const std::string& context, const std::string& problem,
               Get get, std::vector<study::Crossover>& out) {
  int prev_sign = 0, prev_np = 0;
  double prev_a = 0, prev_b = 0;
  for (const int np : ix.nprocs) {
    const api::RunRecord* ra = get(a, np);
    const api::RunRecord* rb = get(b, np);
    if (ra == nullptr || rb == nullptr) continue;
    const double ta = ra->comparison.estimated;
    const double tb = rb->comparison.estimated;
    const int sign = ta < tb ? -1 : (ta > tb ? 1 : 0);
    if (sign == 0) continue;
    if (prev_sign != 0 && sign != prev_sign) {
      out.push_back(study::Crossover{axis, a, b, context, problem, prev_np, np, prev_a,
                                     prev_b, ta, tb});
    }
    prev_sign = sign;
    prev_np = np;
    prev_a = ta;
    prev_b = tb;
  }
}

std::vector<study::Crossover> crossovers(const study::StudyResult& s) {
  const Index ix(s.report);
  std::vector<study::Crossover> out;
  for (const auto& m : ix.machines) {
    for (const auto& p : ix.problems) {
      for (std::size_t i = 0; i < ix.variants.size(); ++i) {
        for (std::size_t j = i + 1; j < ix.variants.size(); ++j) {
          scan_pair(ix, "variant", ix.variants[i], ix.variants[j], m, p,
                    [&](const std::string& v, int np) { return ix.find(m, v, p, np); }, out);
        }
      }
    }
  }
  for (const auto& v : ix.variants) {
    for (const auto& p : ix.problems) {
      for (std::size_t i = 0; i < ix.machines.size(); ++i) {
        for (std::size_t j = i + 1; j < ix.machines.size(); ++j) {
          scan_pair(ix, "machine", ix.machines[i], ix.machines[j], v, p,
                    [&](const std::string& m, int np) { return ix.find(m, v, p, np); }, out);
        }
      }
    }
  }
  return out;
}

std::vector<study::ScalabilityCurve> scalability(const study::StudyResult& s) {
  const Index ix(s.report);
  std::vector<study::ScalabilityCurve> out;
  for (const auto& m : ix.machines) {
    for (const auto& v : ix.variants) {
      for (const auto& p : ix.problems) {
        study::ScalabilityCurve curve{m, v, p, {}};
        for (const int np : ix.nprocs) {
          if (const api::RunRecord* r = ix.find(m, v, p, np)) {
            curve.points.push_back(
                study::ScalabilityPoint{np, r->comparison.estimated, 1.0, 1.0});
          }
        }
        if (curve.points.empty()) continue;
        const study::ScalabilityPoint base = curve.points.front();
        for (auto& pt : curve.points) {
          pt.speedup = pt.estimated > 0 ? base.estimated / pt.estimated : 0.0;
          pt.efficiency = pt.nprocs > 0 ? pt.speedup * base.nprocs / pt.nprocs : 0.0;
        }
        out.push_back(std::move(curve));
      }
    }
  }
  return out;
}

std::string key(const study::Crossover& x) {
  return x.axis + '\x1f' + x.a + '\x1f' + x.b + '\x1f' + x.context + '\x1f' + x.problem +
         '\x1f' + std::to_string(x.nprocs_before) + '\x1f' +
         std::to_string(x.nprocs_after);
}

study::StudyDiff diff(const study::StudyResult& before_s, const study::StudyResult& after_s,
                      double threshold) {
  study::StudyDiff out;
  out.threshold = threshold;
  const auto before = crossovers(before_s);
  const auto after = crossovers(after_s);
  std::set<std::string> before_keys, after_keys;
  for (const auto& x : before) before_keys.insert(key(x));
  for (const auto& x : after) after_keys.insert(key(x));
  for (const auto& x : after) {
    if (before_keys.count(key(x)) == 0) out.gained.push_back(x);
  }
  for (const auto& x : before) {
    if (after_keys.count(key(x)) == 0) out.lost.push_back(x);
  }
  const Index after_ix(after_s.report);
  for (const auto& r : before_s.report.records) {
    const api::RunRecord* c = after_ix.find(r.machine, r.variant, r.problem, r.nprocs);
    if (c == nullptr) {
      ++out.only_in_before;
      continue;
    }
    const double a = r.comparison.estimated;
    const double b = c->comparison.estimated;
    const double rel = a != 0.0 ? (b - a) / a : 0.0;
    const bool significant = a != 0.0 ? std::abs(rel) >= threshold : b != 0.0;
    if (significant) {
      out.deltas.push_back(
          study::PointDelta{r.machine, r.variant, r.problem, r.nprocs, a, b, rel});
    }
  }
  const Index before_ix(before_s.report);
  for (const auto& r : after_s.report.records) {
    if (before_ix.find(r.machine, r.variant, r.problem, r.nprocs) == nullptr) {
      ++out.only_in_after;
    }
  }
  return out;
}

}  // namespace reference

void expect_same(const std::vector<study::Crossover>& want,
                 const std::vector<study::Crossover>& got) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const study::Crossover& w = want[i];
    const study::Crossover& g = got[i];
    EXPECT_EQ(g.axis, w.axis) << i;
    EXPECT_EQ(g.a, w.a) << i;
    EXPECT_EQ(g.b, w.b) << i;
    EXPECT_EQ(g.context, w.context) << i;
    EXPECT_EQ(g.problem, w.problem) << i;
    EXPECT_EQ(g.nprocs_before, w.nprocs_before) << i;
    EXPECT_EQ(g.nprocs_after, w.nprocs_after) << i;
    EXPECT_EQ(g.a_before, w.a_before) << i;
    EXPECT_EQ(g.b_before, w.b_before) << i;
    EXPECT_EQ(g.a_after, w.a_after) << i;
    EXPECT_EQ(g.b_after, w.b_after) << i;
  }
}

/// A seeded random study report with everything the analysis must cope
/// with: tied estimates, missing points, duplicate keys (later copies with
/// other times), records out of grid order, and names containing commas.
study::StudyResult random_study(std::mt19937_64& rng) {
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(std::uniform_int_distribution<std::size_t>(0, n - 1)(rng));
  };
  const auto chance = [&rng](double p) {
    return std::uniform_real_distribution<double>(0, 1)(rng) < p;
  };
  const std::vector<std::string> machine_pool = {
      "ipsc860", "fam/latency=0.25+bandwidth=2", "fam/latency=4+bandwidth=0.5",
      "cluster, fast", "m", "paragon"};
  const std::vector<std::string> variant_pool = {"(block,*)", "(block,block)", "v,w"};
  const std::vector<std::string> problem_pool = {"n=16", "n=32,m=2"};
  const std::vector<int> nprocs_pool = {1, 2, 4, 8, 16, 3};
  const std::size_t nm = 1 + pick(machine_pool.size());
  const std::size_t nv = 1 + pick(variant_pool.size());
  const std::size_t np = 1 + pick(problem_pool.size());
  const std::size_t nn = 1 + pick(nprocs_pool.size());

  study::StudyResult s;
  s.title = "random";
  std::vector<api::RunRecord>& recs = s.report.records;
  for (std::size_t m = 0; m < nm; ++m) {
    for (std::size_t v = 0; v < nv; ++v) {
      for (std::size_t p = 0; p < np; ++p) {
        for (std::size_t n = 0; n < nn; ++n) {
          if (chance(0.2)) continue;  // a missing point
          api::RunRecord r;
          r.machine = machine_pool[m];
          r.variant = variant_pool[v];
          r.problem = problem_pool[p];
          r.nprocs = nprocs_pool[n];
          // a coarse value grid makes ties common
          r.comparison.estimated =
              chance(0.5) ? static_cast<double>(1 + pick(4))
                          : std::uniform_real_distribution<double>(0.01, 5)(rng);
          if (chance(0.05)) r.comparison.estimated = 0.0;
          recs.push_back(r);
          if (chance(0.1)) {  // a duplicate key with another time
            r.comparison.estimated += 1.0 + static_cast<double>(pick(3));
            recs.push_back(r);
          }
        }
      }
    }
  }
  if (chance(0.7)) std::shuffle(recs.begin(), recs.end(), rng);
  return s;
}

TEST(StudyResultOracle, AnalysisMatchesTheMapBasedReferenceOnRandomReports) {
  std::mt19937_64 rng(20260418);
  std::size_t flips = 0, curves = 0, deltas = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const study::StudyResult s = random_study(rng);
    SCOPED_TRACE("trial " + std::to_string(trial));

    const auto want_x = reference::crossovers(s);
    expect_same(want_x, s.crossovers());
    flips += want_x.size();

    const auto want_c = reference::scalability(s);
    const auto got_c = s.scalability();
    ASSERT_EQ(got_c.size(), want_c.size());
    for (std::size_t i = 0; i < want_c.size(); ++i) {
      EXPECT_EQ(got_c[i].machine, want_c[i].machine);
      EXPECT_EQ(got_c[i].variant, want_c[i].variant);
      EXPECT_EQ(got_c[i].problem, want_c[i].problem);
      ASSERT_EQ(got_c[i].points.size(), want_c[i].points.size());
      for (std::size_t k = 0; k < want_c[i].points.size(); ++k) {
        EXPECT_EQ(got_c[i].points[k].nprocs, want_c[i].points[k].nprocs);
        EXPECT_EQ(got_c[i].points[k].estimated, want_c[i].points[k].estimated);
        EXPECT_EQ(got_c[i].points[k].speedup, want_c[i].points[k].speedup);
        EXPECT_EQ(got_c[i].points[k].efficiency, want_c[i].points[k].efficiency);
      }
    }
    curves += want_c.size();

    // against a perturbed copy (shared points, some gone, some moved) and
    // against an unrelated report
    study::StudyResult moved = s;
    for (auto& r : moved.report.records) {
      if (std::uniform_real_distribution<double>(0, 1)(rng) < 0.3) {
        r.comparison.estimated *= std::uniform_real_distribution<double>(0.5, 1.5)(rng);
      }
    }
    if (!moved.report.records.empty()) moved.report.records.pop_back();
    const std::vector<const study::StudyResult*> candidates = {&moved, &s};
    for (const study::StudyResult* candidate : candidates) {
      const study::StudyResult other = random_study(rng);
      for (const study::StudyResult* c : {candidate, &other}) {
        const study::StudyDiff want = reference::diff(s, *c, 0.05);
        const study::StudyDiff got = s.diff(*c, 0.05);
        expect_same(want.gained, got.gained);
        expect_same(want.lost, got.lost);
        EXPECT_EQ(got.only_in_before, want.only_in_before);
        EXPECT_EQ(got.only_in_after, want.only_in_after);
        ASSERT_EQ(got.deltas.size(), want.deltas.size());
        for (std::size_t i = 0; i < want.deltas.size(); ++i) {
          EXPECT_EQ(got.deltas[i].machine, want.deltas[i].machine);
          EXPECT_EQ(got.deltas[i].variant, want.deltas[i].variant);
          EXPECT_EQ(got.deltas[i].problem, want.deltas[i].problem);
          EXPECT_EQ(got.deltas[i].nprocs, want.deltas[i].nprocs);
          EXPECT_EQ(got.deltas[i].estimated_before, want.deltas[i].estimated_before);
          EXPECT_EQ(got.deltas[i].estimated_after, want.deltas[i].estimated_after);
          EXPECT_EQ(got.deltas[i].rel_change, want.deltas[i].rel_change);
        }
        deltas += want.deltas.size();
      }
    }
  }
  // the generator must actually exercise the interesting paths
  EXPECT_GT(flips, 100u);
  EXPECT_GT(curves, 1000u);
  EXPECT_GT(deltas, 100u);
}

TEST(StudyResultOracle, FirstRecordWinsOnDuplicateKeys) {
  study::StudyResult s = synthetic_two_variant_study();
  api::RunRecord late = s.report.records[5];  // B@4, a later duplicate
  late.comparison.estimated = 100.0;          // would erase the overtake
  s.report.records.push_back(late);
  ASSERT_EQ(s.crossovers().size(), 1u);
  const auto curves = s.scalability();
  ASSERT_EQ(curves.size(), 2u);
  EXPECT_EQ(curves[1].points.back().estimated, 0.5);

  // a baseline {r, r} against a candidate {r}, and the reverse: every
  // record has a partner, so neither side has unmatched points
  study::StudyResult twice, once;
  twice.report.records = {late, late};
  once.report.records = {late};
  for (const auto& [a, b] : {std::pair{&twice, &once}, std::pair{&once, &twice}}) {
    const study::StudyDiff got = a->diff(*b);
    const study::StudyDiff want = reference::diff(*a, *b, 0.05);
    EXPECT_EQ(got.only_in_before, 0u);
    EXPECT_EQ(got.only_in_after, 0u);
    EXPECT_EQ(want.only_in_before, got.only_in_before);
    EXPECT_EQ(want.only_in_after, got.only_in_after);
  }
}

// --- codec round trips and strictness ------------------------------------------

/// Every edge value the %.17g writer can emit.
const std::vector<double>& edge_values() {
  static const std::vector<double> values = {
      0.0,     -0.0,     4.9406564584124654e-324, 1e-320, DBL_MIN, DBL_MAX,
      -DBL_MAX, INFINITY, -INFINITY,               NAN,    -NAN,    0.1,
      1e21,    1e16,     1e17,                    -3.5,   123456789.125};
  return values;
}

study::StudyResult edge_study() {
  study::StudyResult s;
  s.title = "edge values";
  s.base_machine = "ipsc860";
  s.machine_points.push_back(study::MachinePoint{"e/latency=1e-320", {1e-320, DBL_MAX, 0.5}});
  api::RunRecord point;
  point.machine = s.machine_points[0].name;
  point.variant = "v";
  point.problem = "p";
  point.nprocs = 4;
  point.measured = true;
  for (const double v : edge_values()) {
    api::RunRecord r = point;
    r.comparison = api::Comparison{v, -v, v, v, v};
    r.phases = api::PhaseBreakdown{v, -v, v, v};
    s.report.records.push_back(r);
  }
  return s;
}

TEST(StudyResult, EdgeValuesRoundTripThroughBothCodecs) {
  const study::StudyResult s = edge_study();
  const std::string csv = s.csv();
  EXPECT_NE(csv.find("4.9406564584124654e-324"), std::string::npos);
  const study::StudyResult from_csv = study::StudyResult::from_csv(csv);
  EXPECT_EQ(from_csv.csv(), csv);
  EXPECT_EQ(from_csv.report.records[2].comparison.estimated, 4.9406564584124654e-324);
  EXPECT_TRUE(std::signbit(from_csv.report.records[1].comparison.estimated));  // -0

  const std::string json = s.json();
  const study::StudyResult from_json = study::StudyResult::from_json(json);
  EXPECT_EQ(from_json.json(), json);
  EXPECT_EQ(from_json.machine_points[0].params.latency_scale, 1e-320);
}

TEST(StudyResult, NumericCellsAreReadStrictly) {
  const std::string good = edge_study().csv();
  const std::string row_prefix = "e/latency=1e-320,v,p,";
  const auto with_row = [&](const std::string& row) {
    return good + row_prefix + row + "\n";
  };
  EXPECT_NO_THROW((void)study::StudyResult::from_csv(with_row("4,1,1e-320,0,0,0,0,0,0,0,0")));
  for (const char* bad :
       {"4,1,1.5abc,0,0,0,0,0,0,0,0", "4x,1,1,0,0,0,0,0,0,0,0", "4,1,1e999,0,0,0,0,0,0,0,0",
        "4,1,1e-400,0,0,0,0,0,0,0,0", "4,1,+1,0,0,0,0,0,0,0,0", "4,1, 1,0,0,0,0,0,0,0,0",
        "4,2,1,0,0,0,0,0,0,0,0", "99999999999,1,1,0,0,0,0,0,0,0,0",
        "4,1,,0,0,0,0,0,0,0,0"}) {
    EXPECT_THROW((void)study::StudyResult::from_csv(with_row(bad)), std::invalid_argument)
        << bad;
  }
  const std::string json = edge_study().json();
  std::string big_nprocs = json;
  big_nprocs.replace(big_nprocs.find("\"nprocs\": 4"), 11, "\"nprocs\": 1e300");
  EXPECT_THROW((void)study::StudyResult::from_json(big_nprocs), std::invalid_argument);
  std::string junk = json;
  junk.replace(junk.find("\"estimated\": 0"), 14, "\"estimated\": 0x1");
  EXPECT_THROW((void)study::StudyResult::from_json(junk), std::invalid_argument);
}

TEST(StudyResultFuzz, CsvDecoderRejectsCleanlyOrReachesAFixpoint) {
  std::mt19937_64 rng(7);
  const std::vector<std::string> seeds = {edge_study().csv(), random_study(rng).csv(),
                                          synthetic_two_variant_study().csv()};
  codec_fuzz::fuzz_decoder(
      seeds, [](const std::string& t) { return study::StudyResult::from_csv(t); },
      [](const study::StudyResult& s) { return s.csv(); }, 0xc5f1);
}

TEST(StudyResultFuzz, JsonDecoderRejectsCleanlyOrReachesAFixpoint) {
  std::mt19937_64 rng(11);
  const std::vector<std::string> seeds = {edge_study().json(), random_study(rng).json(),
                                          synthetic_two_variant_study().json()};
  codec_fuzz::fuzz_decoder(
      seeds, [](const std::string& t) { return study::StudyResult::from_json(t); },
      [](const study::StudyResult& s) { return s.json(); }, 0x75f1);
}

}  // namespace
}  // namespace hpf90d
