// Oracle tests for the lockstep batch interpreter: for every batch size —
// including the degenerate scalar setting and a whole-sweep batch — and
// every worker count, Session::run must produce a RunReport whose ASCII and
// CSV exports are byte-identical to the scalar reference (batch_size=1),
// on all registered machines, with measurement enabled, and in the presence
// of divergent lanes (binding-dependent DO trip counts, masked loops,
// per-lane critical variables steering branches). The batch telemetry
// itself must stay out of the exports. The units Session::run is built from
// (api/sweep.hpp) are tested one by one at the end. CI also runs this
// binary under ThreadSanitizer.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/api.hpp"
#include "api/sweep.hpp"
#include "study/study.hpp"
#include "suite/suite.hpp"
#include "support/diagnostics.hpp"

namespace hpf90d {
namespace {

// The settings the oracle sweeps: batch sizes 1 (scalar), 4, 64, and "the
// whole sweep in one window", crossed with serial and pooled workers.
const std::vector<int> kWorkerCounts = {1, 4};

std::vector<int> batch_sizes(std::size_t point_count) {
  return {1, 4, 64, static_cast<int>(point_count)};
}

/// Runs the plan at (batch_size, workers) on a fresh session and returns
/// the exports. wall_seconds is the one legitimately nondeterministic
/// field in ascii(), so it is zeroed before rendering.
struct Exports {
  std::string ascii;
  std::string csv;
  api::BatchStats batch;
};

Exports run_once(const api::ExperimentPlan& plan, int batch_size, int workers) {
  api::Session session;
  api::RunOptions opts;
  opts.workers = workers;
  opts.batch_size = batch_size;
  api::RunReport report = session.run(plan, opts);
  report.wall_seconds = 0.0;
  return Exports{report.ascii(), report.csv(), report.batch};
}

void expect_oracle(const api::ExperimentPlan& plan, std::size_t point_count,
                   bool expect_divergence = false) {
  const Exports baseline = run_once(plan, /*batch_size=*/1, /*workers=*/1);
  EXPECT_EQ(baseline.batch.batched_points, 0u);
  EXPECT_EQ(baseline.batch.scalar_points, point_count);

  bool saw_batched = false;
  bool saw_evicted = false;
  bool saw_recovered = false;
  for (const int batch : batch_sizes(point_count)) {
    for (const int workers : kWorkerCounts) {
      const Exports e = run_once(plan, batch, workers);
      EXPECT_EQ(e.ascii, baseline.ascii)
          << "ascii diverged at batch_size=" << batch << " workers=" << workers;
      EXPECT_EQ(e.csv, baseline.csv)
          << "csv diverged at batch_size=" << batch << " workers=" << workers;
      // every point is accounted for exactly once: priced lockstep, priced
      // by the scalar engine, or evicted mid-batch and finally priced scalar
      EXPECT_EQ(
          e.batch.batched_points + e.batch.scalar_points + e.batch.replayed_points,
          point_count);
      // the retired pool/speculation slots stay zero
      EXPECT_EQ(e.batch.pooled_lanes, 0u);
      EXPECT_EQ(e.batch.speculated_branches, 0u);
      EXPECT_EQ(e.batch.speculated_lanes, 0u);
      if (e.batch.batched_points > 0) saw_batched = true;
      if (e.batch.evicted_lanes > 0) saw_evicted = true;
      // a divergent lane is recovered either way: re-batched into a
      // lockstep refill window or replayed by the scalar engine (lone keys,
      // failure evictions)
      if (e.batch.replayed_points > 0 || e.batch.refilled_lanes > 0) saw_recovered = true;
    }
  }
  EXPECT_TRUE(saw_batched) << "no setting ever took the lockstep path";
  if (expect_divergence) {
    EXPECT_TRUE(saw_evicted) << "expected divergent lanes to be evicted";
    EXPECT_TRUE(saw_recovered)
        << "expected evicted lanes to be refilled or replayed";
  }
}

// --- the full-surface oracle --------------------------------------------------

TEST(BatchOracle, AllRegisteredMachinesMeasuredSweep) {
  // Every registered machine x 4 processor counts x 3 problem sizes, with
  // measurement on (runs > 0), so the oracle covers predict + measure +
  // record assembly end to end.
  const suite::BenchmarkApp& app = suite::app("pi");
  api::ExperimentPlan plan("batch oracle: all machines");
  plan.source(app.source)
      .machines({"cluster", "fattree", "ipsc860", "paragon", "whatif"})
      .nprocs({1, 2, 4, 8})
      .problems_from({16, 64, 256}, app.bindings)
      .runs(2);
  expect_oracle(plan, 5u * 4u * 3u);
}

TEST(BatchOracle, DirectiveVariantsSplitChunksDeterministically) {
  // Chunks never span variants: consecutive points agree on the compiled
  // program. Two Laplace distributions exercise that boundary.
  const suite::BenchmarkApp& app = suite::app("laplace_bb");
  api::ExperimentPlan plan("batch oracle: variants");
  plan.source(app.source)
      .machines({"ipsc860", "paragon"})
      .nprocs({2, 4})
      .add_variant("(block,block)", {"distribute d(block,block)"}, 2)
      .add_variant("(block,*)", {"distribute d(block,*)"})
      .problems_from({8, 16}, app.bindings)
      .runs(0);
  expect_oracle(plan, 2u * 2u * 2u * 2u);
}

// --- divergence ---------------------------------------------------------------

TEST(BatchOracle, BindingDependentDoTripsForceReplay) {
  // The outer DO trip count is a per-problem binding: lanes from different
  // problems disagree at the first size-dependent scalar loop and are
  // evicted — then re-batched by key into refill windows — and must
  // reproduce the scalar report byte for byte.
  static const char* const source = R"f90(
program levels
  parameter (n = 1024)
  real v(n)
!hpf$ template d(n)
!hpf$ align v(i) with d(i)
!hpf$ distribute d(block)
  forall (i = 1:n) v(i) = real(i)
  do it = 1, nlev
    forall (i = 1:n) v(i) = v(i)*0.5 + 1.0
  end do
end program levels
)f90";
  api::ExperimentPlan plan("batch oracle: divergent do");
  plan.source(source).machines({"ipsc860"}).nprocs({1, 2, 4});
  for (const long long nlev : {2, 3, 5, 8}) {
    front::Bindings b;
    b.set_int("nlev", nlev);
    plan.add_problem("nlev=" + std::to_string(nlev), b);
  }
  plan.runs(2);
  expect_oracle(plan, 3u * 4u, /*expect_divergence=*/true);
}

TEST(BatchOracle, PerLaneCriticalVariableSteersBranchesAndMasks) {
  // `w` is a critical variable bound per problem: it steers an IF both
  // ways across lanes (branch divergence) and feeds a masked local loop
  // and a data-dependent DO WHILE (condition divergence). All three evict
  // lanes mid-walk.
  static const char* const source = R"f90(
program masked
  parameter (n = 512)
  real v(n)
  real w, acc
!hpf$ template d(n)
!hpf$ align v(i) with d(i)
!hpf$ distribute d(block)
  forall (i = 1:n) v(i) = real(i)*w
  forall (i = 1:n, v(i) .gt. 64.0) v(i) = v(i)*0.5
  if (w .gt. 2.0) then
    forall (i = 1:n) v(i) = v(i) + 1.0
  else
    forall (i = 1:n) v(i) = v(i) - 1.0
  end if
  acc = w
  do while (acc .gt. 1.0)
    acc = acc*0.5
    forall (i = 1:n) v(i) = v(i)*acc
  end do
end program masked
)f90";
  api::ExperimentPlan plan("batch oracle: per-lane critical");
  plan.source(source).machines({"ipsc860", "cluster"}).nprocs({1, 4});
  for (const double w : {0.5, 2.5, 7.0}) {
    front::Bindings b;
    b.set("w", w);
    plan.add_problem("w=" + std::to_string(w), b);
  }
  plan.runs(2);
  expect_oracle(plan, 2u * 2u * 3u, /*expect_divergence=*/true);
}

// --- re-compaction -----------------------------------------------------------

TEST(BatchOracle, ForcedDivergenceRefillsLanesWithoutScalarReplay) {
  // 4 nlev groups x 4 system sizes, the whole sweep in one batch: the
  // binding-dependent DO evicts 12 of the 16 lanes at once. Every nlev
  // group still holds 4 lanes, so keyed re-compaction re-batches all of
  // them into lockstep refill windows and nothing falls back to the scalar
  // engine.
  static const char* const source = R"f90(
program levels
  parameter (n = 1024)
  real v(n)
!hpf$ template d(n)
!hpf$ align v(i) with d(i)
!hpf$ distribute d(block)
  forall (i = 1:n) v(i) = real(i)
  do it = 1, nlev
    forall (i = 1:n) v(i) = v(i)*0.5 + 1.0
  end do
end program levels
)f90";
  api::ExperimentPlan plan("batch oracle: occupancy");
  plan.source(source).machines({"ipsc860"}).nprocs({1, 2, 4, 8});
  for (const long long nlev : {2, 3, 5, 8}) {
    front::Bindings b;
    b.set_int("nlev", nlev);
    plan.add_problem("nlev=" + std::to_string(nlev), b);
  }
  plan.runs(2);
  const std::size_t points = 4u * 4u;

  const Exports compacted =
      run_once(plan, /*batch_size=*/static_cast<int>(points), /*workers=*/1);
  EXPECT_GT(compacted.batch.evicted_lanes, 0u);
  EXPECT_GT(compacted.batch.refilled_lanes, 0u);
  EXPECT_EQ(compacted.batch.replayed_points, 0u)
      << "keyed refill should leave no lane to the scalar replay";
  EXPECT_EQ(compacted.batch.batched_points + compacted.batch.scalar_points, points);
  // every lockstep visit — fresh window or keyed refill — keeps at least a
  // full nlev group (4 lanes) active; scalar replay would price 1 at a time
  EXPECT_GT(compacted.batch.mean_lanes_per_visit(), 3.0);
  // and the exports agree byte for byte with the scalar reference
  const Exports scalar = run_once(plan, /*batch_size=*/1, /*workers=*/1);
  EXPECT_EQ(compacted.ascii, scalar.ascii);
  EXPECT_EQ(compacted.csv, scalar.csv);
}

TEST(BatchOracle, MultiRoundRecompactionStaysDeterministic) {
  // Two sequential binding-dependent DOs: lanes regroup by the first trip
  // count, then the refill windows themselves diverge at the second DO and
  // need a second compaction round. Every (na, nb) subgroup still spans the
  // 3 system sizes, so both rounds re-batch cleanly, and the exports must
  // stay byte-identical across batch size and workers.
  static const char* const source = R"f90(
program levels2
  parameter (n = 512)
  real v(n)
!hpf$ template d(n)
!hpf$ align v(i) with d(i)
!hpf$ distribute d(block)
  forall (i = 1:n) v(i) = real(i)
  do it = 1, na
    forall (i = 1:n) v(i) = v(i)*0.5 + 1.0
  end do
  do jt = 1, nb
    forall (i = 1:n) v(i) = v(i)*0.25 + 2.0
  end do
end program levels2
)f90";
  api::ExperimentPlan plan("batch oracle: two-site divergence");
  plan.source(source).machines({"ipsc860"}).nprocs({1, 2, 4});
  for (const long long na : {2, 5}) {
    for (const long long nb : {3, 7}) {
      front::Bindings b;
      b.set_int("na", na);
      b.set_int("nb", nb);
      plan.add_problem("na=" + std::to_string(na) + ",nb=" + std::to_string(nb), b);
    }
  }
  plan.runs(2);
  const std::size_t points = 2u * 2u * 3u;
  expect_oracle(plan, points, /*expect_divergence=*/true);

  // with the whole sweep in one batch, both divergence rounds resolve via
  // refill windows: nothing is left for the scalar replay
  const Exports e = run_once(plan, /*batch_size=*/static_cast<int>(points),
                             /*workers=*/1);
  EXPECT_GT(e.batch.refilled_lanes, 0u);
  EXPECT_EQ(e.batch.replayed_points, 0u);
}

// --- lone divergent lanes ------------------------------------------------------

TEST(BatchOracle, LoneLanesFromDifferentChunksReplayScalar) {
  // 258 single-nprocs points of one (machine, variant) group: the 256-point
  // chunk granule splits them into two chunks. Exactly one point per chunk
  // carries nlev = 9 (the rest nlev = 2), so each chunk evicts one LONE
  // rebatchable lane its own re-compaction cannot pair. Chunks never share
  // lanes, so both replay on the scalar engine — deterministically for
  // every worker count — and the exports stay byte-identical.
  static const char* const source = R"f90(
program lone
  parameter (n = 512)
  real v(n)
!hpf$ template d(n)
!hpf$ align v(i) with d(i)
!hpf$ distribute d(block)
  forall (i = 1:n) v(i) = real(i)
  do it = 1, nlev
    forall (i = 1:n) v(i) = v(i)*0.5 + 1.0
  end do
end program lone
)f90";
  constexpr std::size_t kPoints = 258;  // chunk granule 256 -> two chunks
  api::ExperimentPlan plan("batch oracle: lone lanes");
  plan.source(source).machines({"ipsc860"}).nprocs({1});
  for (std::size_t i = 0; i < kPoints; ++i) {
    front::Bindings b;
    // one divergent point per chunk: 10 in the first, 257 in the second
    b.set_int("nlev", (i == 10 || i == 257) ? 9 : 2);
    b.set("pad", static_cast<double>(i));  // distinct bindings per point
    plan.add_problem("p" + std::to_string(i), b);
  }
  plan.runs(1);
  expect_oracle(plan, kPoints, /*expect_divergence=*/true);

  for (const int workers : kWorkerCounts) {
    const Exports e = run_once(plan, /*batch_size=*/64, workers);
    EXPECT_EQ(e.batch.replayed_points, 2u)
        << "each chunk should replay exactly its lone divergent lane";
    EXPECT_EQ(e.batch.batched_points, kPoints - 2);
    EXPECT_EQ(e.batch.evicted_lanes, 2u);
    EXPECT_EQ(e.batch.refilled_lanes, 0u);
  }
}

// --- interleaved divergence axes ------------------------------------------------

TEST(BatchOracle, InterleavedDivergenceAxisStaysIdentical) {
  // The plan interleaves a divergence axis (nlev, a critical loop bound)
  // with a benign axis (w, a value-only coefficient): plan order alternates
  // nlev = 2, 7, 2, 7, ... so every lockstep window mixes both trip counts
  // and must evict and refill — with the payload byte-identical throughout.
  static const char* const source = R"f90(
program interleaved
  parameter (n = 512)
  real v(n)
  real w
!hpf$ template d(n)
!hpf$ align v(i) with d(i)
!hpf$ distribute d(block)
  forall (i = 1:n) v(i) = real(i)*w
  do it = 1, nlev
    forall (i = 1:n) v(i) = v(i)*0.5 + 1.0
  end do
end program interleaved
)f90";
  api::ExperimentPlan plan("batch oracle: interleaved sweep");
  plan.source(source).machines({"ipsc860"}).nprocs({1, 2});
  for (const double w : {1.0, 2.0}) {
    for (const long long nlev : {2, 7}) {
      front::Bindings b;
      b.set("w", w);
      b.set_int("nlev", nlev);
      plan.add_problem("w=" + std::to_string(w) + ",nlev=" + std::to_string(nlev),
                       b);
    }
  }
  plan.runs(2);
  const std::size_t points = 2u * 2u * 2u;
  expect_oracle(plan, points, /*expect_divergence=*/true);
  EXPECT_GT(run_once(plan, /*batch_size=*/4, /*workers=*/1).batch.evicted_lanes, 0u)
      << "the interleaved plan should diverge in every window";
}

TEST(BatchOracle, ScaledPlanWithMeasurementStaysIdentical) {
  // Weak-scaling plans couple problem and nprocs; records carry measured
  // stats from the batched measurement pass. The payload stays
  // byte-identical across batch sizes and workers.
  const suite::BenchmarkApp& app = suite::app("pi");
  api::ExperimentPlan plan("batch oracle: scaled");
  plan.source(app.source).machines({"ipsc860", "cluster"});
  std::vector<api::ScaledCase> cases;
  for (const auto& [size, np] : std::vector<std::pair<long long, int>>{
           {16, 1}, {64, 2}, {16, 4}, {64, 8}}) {
    api::ScaledCase sc;
    sc.problem.name = "n=" + std::to_string(size);
    sc.problem.bindings = app.bindings(size);
    sc.nprocs = np;
    cases.push_back(std::move(sc));
  }
  plan.scaled_cases(std::move(cases));
  plan.runs(3);
  expect_oracle(plan, 2u * 4u);
}

// --- divergent IFs ----------------------------------------------------------------

TEST(BatchOracle, DivergentIfWithMaskedArmsStaysIdentical) {
  // `w` steers a loop-free-armed IF both ways across lanes; the arms write
  // DIFFERENT masked arrays, so mispricing either lane subset would show up
  // in the estimates. The minority side is evicted and refilled by key.
  static const char* const source = R"f90(
program maskedif
  parameter (n = 512)
  real a(n), b(n)
  real w
!hpf$ template d(n)
!hpf$ align a(i) with d(i)
!hpf$ align b(i) with d(i)
!hpf$ distribute d(block)
  forall (i = 1:n) a(i) = real(i)*w
  forall (i = 1:n) b(i) = real(i) + w
  if (w .gt. 2.0) then
    forall (i = 1:n, a(i) .gt. 32.0) a(i) = a(i)*0.5
  else
    forall (i = 1:n, b(i) .gt. 16.0) b(i) = b(i)*0.25
  end if
end program maskedif
)f90";
  api::ExperimentPlan plan("batch oracle: masked-arm if");
  plan.source(source).machines({"ipsc860", "cluster"}).nprocs({1, 4});
  for (const double w : {0.5, 1.5, 2.5, 7.0}) {
    front::Bindings b;
    b.set("w", w);
    plan.add_problem("w=" + std::to_string(w), b);
  }
  plan.runs(2);
  expect_oracle(plan, 2u * 2u * 4u, /*expect_divergence=*/true);
}

TEST(BatchOracle, LoopArmedAndCheapIfsComposeWithRefill) {
  // The first IF's else-arm contains a DO; the second IF is loop-free.
  // Both split the lanes, so refill windows born at the first IF diverge
  // again at the second, and the exports stay byte-identical to the scalar
  // path throughout.
  static const char* const source = R"f90(
program mixed
  parameter (n = 256)
  real v(n)
  real u, w
!hpf$ template d(n)
!hpf$ align v(i) with d(i)
!hpf$ distribute d(block)
  forall (i = 1:n) v(i) = real(i)
  if (u .gt. 4.0) then
    forall (i = 1:n) v(i) = v(i) + 1.0
  else
    do it = 1, nlev
      forall (i = 1:n) v(i) = v(i)*0.5 + 1.0
    end do
  end if
  if (w .gt. 2.0) then
    forall (i = 1:n) v(i) = v(i)*2.0
  else
    forall (i = 1:n) v(i) = v(i)*3.0
  end if
end program mixed
)f90";
  // u splits the loop-armed IF; w splits the cheap IF. Every u group holds
  // both w values, so the windows the first IF produces — the survivors AND
  // the keyed refill of its evictees — still disagree at the second IF.
  api::ExperimentPlan plan("batch oracle: mixed ifs");
  plan.source(source).machines({"ipsc860"}).nprocs({1, 2, 4});
  for (const double u : {1.0, 9.0}) {
    for (const double w : {0.5, 3.0}) {
      front::Bindings b;
      b.set("u", u);
      b.set("w", w);
      b.set_int("nlev", 3);
      plan.add_problem("u=" + std::to_string(u) + ",w=" + std::to_string(w), b);
    }
  }
  plan.runs(2);
  const std::size_t points = 2u * 2u * 3u;
  expect_oracle(plan, points, /*expect_divergence=*/true);
  const Exports e = run_once(plan, static_cast<int>(points), /*workers=*/1);
  EXPECT_GT(e.batch.evicted_lanes, 0u);
  EXPECT_GT(e.batch.refilled_lanes, 0u);
}

// --- telemetry stays out of the exports ---------------------------------------

TEST(BatchOracle, TelemetryExcludedFromExportsAndCsvRoundTrips) {
  const suite::BenchmarkApp& app = suite::app("pi");
  api::ExperimentPlan plan("batch oracle: telemetry");
  plan.source(app.source).nprocs({1, 2, 4, 8}).problems_from({16, 64}, app.bindings).runs(0);

  const Exports batched = run_once(plan, /*batch_size=*/8, /*workers=*/1);
  EXPECT_GT(batched.batch.batched_points, 0u);
  EXPECT_GT(batched.batch.ir_visits, 0u);
  EXPECT_GT(batched.batch.mean_lanes_per_visit(), 1.0);
  // the counters are real but invisible: exports match the scalar run
  const Exports scalar = run_once(plan, /*batch_size=*/1, /*workers=*/1);
  EXPECT_EQ(batched.ascii, scalar.ascii);
  EXPECT_EQ(batched.csv, scalar.csv);
  // and the CSV still round-trips through the parser
  const api::RunReport parsed = api::RunReport::from_csv(batched.csv);
  EXPECT_EQ(parsed.records.size(), 8u);
  EXPECT_EQ(parsed.batch.batched_points, 0u);  // telemetry is not serialized
}

// --- studies ------------------------------------------------------------------

TEST(BatchOracle, StudyExportsByteIdenticalAcrossBatchSizes) {
  // A design study lowers to one batched Session::run over generated
  // what-if machines; its CSV/JSON/ASCII exports must not depend on the
  // batch size or worker count either.
  const suite::BenchmarkApp& app = suite::app("pi");
  study::StudyPlan plan("batch oracle: study");
  plan.source(app.source)
      .base_machine("ipsc860")
      .knob_axis(study::Knob::Latency, {0.5, 2.0})
      .knob_axis(study::Knob::Bandwidth, {1.0, 4.0})
      .nprocs({2, 4})
      .problems_from({32, 128}, app.bindings)
      .runs(0);

  std::vector<std::string> csvs, jsons, asciis;
  for (const int batch : {1, 4, 64}) {
    for (const int workers : kWorkerCounts) {
      api::Session session;
      api::RunOptions opts;
      opts.workers = workers;
      opts.batch_size = batch;
      const study::StudyResult result = study::run_study(session, plan, opts);
      csvs.push_back(result.csv());
      jsons.push_back(result.json());
      asciis.push_back(result.ascii());
    }
  }
  for (std::size_t i = 1; i < csvs.size(); ++i) {
    EXPECT_EQ(csvs[i], csvs[0]) << "study csv diverged at setting " << i;
    EXPECT_EQ(jsons[i], jsons[0]) << "study json diverged at setting " << i;
    EXPECT_EQ(asciis[i], asciis[0]) << "study ascii diverged at setting " << i;
  }
}

// --- the sweep units (api/sweep.hpp) ----------------------------------------------

// A binding-dependent DO: lanes with different nlev diverge at the loop.
const char* const kLevelsSource = R"f90(
program levels
  parameter (n = 256)
  real v(n)
!hpf$ template d(n)
!hpf$ align v(i) with d(i)
!hpf$ distribute d(block)
  forall (i = 1:n) v(i) = real(i)
  do it = 1, nlev
    forall (i = 1:n) v(i) = v(i)*0.5 + 1.0
  end do
end program levels
)f90";

TEST(SweepUnits, ScheduleKeepsPlanOrderAndCapsChunksAtMachineVariantBoundaries) {
  // 2 machines x 2 variants x 70 problems x 4 nprocs: each (machine,
  // variant) segment holds 280 points, so the cap cuts it into 256 + 24.
  const suite::BenchmarkApp& app = suite::app("pi");
  std::vector<long long> sizes;
  for (long long i = 0; i < 70; ++i) sizes.push_back(16 + 4 * i);
  const std::vector<int> nprocs = {1, 2, 4, 8};
  api::ExperimentPlan plan("sweep units: schedule");
  plan.source(app.source)
      .machines({"ipsc860", "cluster"})
      .nprocs(nprocs)
      .add_variant("a", {})
      .add_variant("b", {})
      .problems_from(sizes, app.bindings)
      .runs(0);
  const std::size_t segment = sizes.size() * nprocs.size();

  api::Session session;
  const api::sweep::Schedule sched = api::sweep::schedule(session, plan, nullptr);
  ASSERT_EQ(sched.points.size(), 4 * segment);
  ASSERT_EQ(sched.chunks.size(), 8u);

  // the chunks partition the points in order, never exceed the granule,
  // and never span a (machine, variant) boundary
  std::size_t next = 0;
  for (const api::sweep::Chunk& c : sched.chunks) {
    EXPECT_EQ(c.begin, next);
    EXPECT_LT(c.begin, c.end);
    EXPECT_LE(c.end - c.begin, api::sweep::kChunkGranule);
    EXPECT_EQ(c.begin / segment, (c.end - 1) / segment) << "chunk crosses a segment";
    for (std::size_t i = c.begin; i < c.end; ++i) {
      EXPECT_EQ(sched.points[i].mach, sched.points[c.begin].mach);
      EXPECT_EQ(sched.points[i].variant, sched.points[c.begin].variant);
    }
    next = c.end;
  }
  EXPECT_EQ(next, sched.points.size());

  // point i is record i: machine-major, then variant, problem, nprocs
  api::RunOptions opts;
  opts.workers = 4;
  const api::RunReport report = session.run(plan, opts);
  ASSERT_EQ(report.records.size(), sched.points.size());
  for (std::size_t i = 0; i < sched.points.size(); ++i) {
    const api::sweep::Point& pt = sched.points[i];
    const std::size_t in_segment = i % segment;
    EXPECT_EQ(*pt.machine, plan.machine_names()[i / (2 * segment)]);
    EXPECT_EQ(pt.variant, (i / segment) % 2);
    EXPECT_EQ(pt.problem, &plan.problems()[in_segment / nprocs.size()]);
    EXPECT_EQ(pt.nprocs, nprocs[in_segment % nprocs.size()]);
    EXPECT_EQ(report.records[i].machine, *pt.machine);
    EXPECT_EQ(report.records[i].variant, plan.variants()[pt.variant].name);
    EXPECT_EQ(report.records[i].problem, pt.problem->name);
    EXPECT_EQ(report.records[i].nprocs, pt.nprocs);
  }
}

TEST(SweepUnits, ExecuteChunkReplaysALoneDivergentLaneScalarAndFillsItsRecord) {
  // Six lanes of one chunk: five share nlev = 2, one alone takes nlev = 9.
  // The lone lane is evicted, cannot be paired, and replays scalar.
  api::ExperimentPlan plan("sweep units: execute_chunk");
  plan.source(kLevelsSource).machines({"ipsc860"}).nprocs({1});
  constexpr std::size_t kLone = 3;
  for (std::size_t i = 0; i < 6; ++i) {
    front::Bindings b;
    b.set_int("nlev", i == kLone ? 9 : 2);
    b.set("pad", static_cast<double>(i));
    plan.add_problem("p" + std::to_string(i), b);
  }
  plan.runs(1);

  api::Session session;
  const api::sweep::Lowered lowered = api::sweep::lower(session, plan, nullptr);
  const api::sweep::Schedule sched = api::sweep::schedule(session, plan, nullptr);
  ASSERT_EQ(sched.chunks.size(), 1u);
  std::vector<api::RunRecord> records(sched.points.size());
  core::PredictOptions predict = plan.predict_opts();
  predict.detailed = false;
  const api::sweep::Sweep sweep{session,  plan, lowered.programs, sched,
                                predict, 64,   nullptr,          records};
  api::sweep::WorkerScratch ws;
  api::BatchStats tally;
  api::sweep::execute_chunk(sweep, sched.chunks[0], ws, tally);

  EXPECT_EQ(tally.batched_points, 5u);
  EXPECT_EQ(tally.evicted_lanes, 1u);
  EXPECT_EQ(tally.refilled_lanes, 0u);
  EXPECT_EQ(tally.replayed_points, 1u);
  EXPECT_EQ(tally.scalar_points, 0u);

  // every record — the replayed one included — equals the scalar reference
  api::RunOptions scalar;
  scalar.workers = 1;
  scalar.batch_size = 1;
  const api::RunReport reference = api::Session().run(plan, scalar);
  ASSERT_EQ(reference.records.size(), records.size());
  const api::RunRecord& lone = records[kLone];
  EXPECT_EQ(lone.problem, "p3");
  EXPECT_EQ(lone.machine, "ipsc860");
  EXPECT_TRUE(lone.measured);
  EXPECT_GT(lone.comparison.estimated, records[0].comparison.estimated);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].problem, reference.records[i].problem);
    EXPECT_EQ(records[i].comparison.estimated, reference.records[i].comparison.estimated);
    EXPECT_EQ(records[i].comparison.measured_mean,
              reference.records[i].comparison.measured_mean);
    EXPECT_EQ(records[i].phases.comm, reference.records[i].phases.comm);
  }
}

TEST(SweepUnits, LowerRaisesCriticalDiagnosticBeforeAnyPointAndMemoizes) {
  // `k` is computed from array data and bounds a FORALL: a critical
  // variable only a binding can resolve.
  static const char* const source = R"f90(
program t
  parameter (n = 32)
  real v(n)
  integer k
!hpf$ template d(n)
!hpf$ align v(i) with d(i)
!hpf$ distribute d(block)
  k = int(sum(v))
  forall (i = 1:k) v(i) = 0.0
end program t
)f90";
  front::Bindings bound;
  bound.set_int("k", 16);
  api::ExperimentPlan bad("sweep units: unbound critical");
  bad.source(source).nprocs({1, 2}).add_problem("bound", bound).add_problem("unbound", {});

  api::Session session;
  EXPECT_THROW((void)api::sweep::lower(session, bad, nullptr), support::CompileError);
  // through Session::run the diagnostic fires before any point runs: no
  // layout was ever looked up, not even for the bound problem's points
  EXPECT_THROW((void)session.run(bad), support::CompileError);
  EXPECT_EQ(session.cache_stats().layout_misses, 0u);
  EXPECT_EQ(session.cache_stats().layout_hits, 0u);

  // the verdicts are memoized per (program, bound-name set): a second
  // lowering of the same plan, on the same session, runs no analysis
  api::Session fresh;
  api::ExperimentPlan good("sweep units: bound critical");
  good.source(source)
      .machines({"ipsc860", "cluster"})
      .nprocs({1, 2})
      .add_variant("a", {})
      .add_variant("b", {})
      .add_problem("k=16", bound);
  const api::sweep::Lowered first = api::sweep::lower(fresh, good, nullptr);
  EXPECT_EQ(first.programs.size(), 2u);
  EXPECT_EQ(first.critical_analyses, 1u) << "both variants share one compilation";
  const api::sweep::Lowered second = api::sweep::lower(fresh, good, nullptr);
  EXPECT_EQ(second.critical_analyses, 0u);
  EXPECT_EQ(second.programs[0], first.programs[0]);
}

}  // namespace
}  // namespace hpf90d
