// Simulator tests: storage semantics, network contention, noise
// determinism, and functional correctness of simulated programs (the
// environment's "functional interpreter" role).
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <iterator>

#include "compiler/pipeline.hpp"
#include "machine/ipsc860.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "sim/values.hpp"
#include "sim_fixture.hpp"
#include "suite/suite.hpp"
#include "support/diagnostics.hpp"

namespace hpf90d {
namespace {

compiler::CompiledProgram comp(std::string_view src) { return compiler::compile(src); }

struct SimFixture {
  machine::MachineModel machine = machine::make_ipsc860();

  sim::MeasuredResult run(const compiler::CompiledProgram& prog, int nprocs,
                          const front::Bindings& bindings = {}, int runs = 2) {
    sim::Simulator simulator(machine);
    compiler::LayoutOptions lo;
    lo.nprocs = nprocs;
    return simulator.measure(prog, bindings, lo, {}, runs);
  }
};

// --- Storage -----------------------------------------------------------------

constexpr const char* kTiny = R"f90(
program t
  parameter (n = 8)
  real v(n), w(n)
!hpf$ template d(n)
!hpf$ align v(i) with d(i)
!hpf$ align w(i) with d(i)
!hpf$ distribute d(block)
  v(1) = 0.0
end program t
)f90";

TEST(Storage, RowMajorOffsets) {
  auto prog = comp(R"f90(
program t
  parameter (n = 4, m = 3)
  real a(n,m)
!hpf$ template d(n)
!hpf$ align a(i,j) with d(i)
!hpf$ distribute d(block)
  a(1,1) = 0.0
end program t
)f90");
  const compiler::DataLayout layout =
      compiler::make_layout(prog, {}, compiler::LayoutOptions{1, {}});
  sim::Storage storage(prog.symbols, layout);
  const int a = prog.symbols.find("a");
  const long long i11[2] = {1, 1};
  const long long i12[2] = {1, 2};
  const long long i21[2] = {2, 1};
  EXPECT_EQ(storage.offset(a, i11), 0u);
  EXPECT_EQ(storage.offset(a, i12), 1u);   // last dim contiguous
  EXPECT_EQ(storage.offset(a, i21), 3u);   // row stride = m
}

TEST(Storage, OutOfBoundsThrows) {
  auto prog = comp(kTiny);
  const compiler::DataLayout layout =
      compiler::make_layout(prog, {}, compiler::LayoutOptions{1, {}});
  sim::Storage storage(prog.symbols, layout);
  const int v = prog.symbols.find("v");
  const long long bad[1] = {9};
  const long long zero[1] = {0};
  EXPECT_THROW((void)storage.load(v, bad), support::CompileError);
  EXPECT_THROW((void)storage.load(v, zero), support::CompileError);
}

TEST(Storage, RankMismatchThrows) {
  auto prog = comp(kTiny);
  const compiler::DataLayout layout =
      compiler::make_layout(prog, {}, compiler::LayoutOptions{1, {}});
  sim::Storage storage(prog.symbols, layout);
  const int v = prog.symbols.find("v");
  const long long two[2] = {1, 1};
  EXPECT_THROW((void)storage.offset(v, std::span<const long long>{}), support::CompileError);
  EXPECT_THROW((void)storage.offset(v, two), support::CompileError);
  EXPECT_THROW(storage.store(v, std::span<const long long>{}, 1.0), support::CompileError);
  const long long one[1] = {1};
  EXPECT_EQ(storage.offset(v, one), 0u);
}

TEST(Storage, DefaultFillIsNearUnity) {
  auto prog = comp(kTiny);
  const compiler::DataLayout layout =
      compiler::make_layout(prog, {}, compiler::LayoutOptions{1, {}});
  sim::Storage storage(prog.symbols, layout);
  const int v = prog.symbols.find("v");
  for (long long i = 1; i <= 8; ++i) {
    const long long idx[1] = {i};
    const double x = storage.load(v, idx);
    EXPECT_GT(x, 0.85);
    EXPECT_LT(x, 1.15);
  }
}

TEST(Storage, CshiftSemanticsMatchFortran) {
  auto prog = comp(kTiny);
  const compiler::DataLayout layout =
      compiler::make_layout(prog, {}, compiler::LayoutOptions{1, {}});
  sim::Storage storage(prog.symbols, layout);
  const int v = prog.symbols.find("v");
  const int w = prog.symbols.find("w");
  for (long long i = 1; i <= 8; ++i) {
    const long long idx[1] = {i};
    storage.store(v, idx, static_cast<double>(i));
  }
  storage.cshift_into(w, v, 0, 1);  // w(i) = v(1 + mod(i-1+1, 8))
  const long long one[1] = {1};
  const long long eight[1] = {8};
  EXPECT_DOUBLE_EQ(storage.load(w, one), 2.0);
  EXPECT_DOUBLE_EQ(storage.load(w, eight), 1.0);  // wraps around
  storage.cshift_into(w, v, 0, -1);
  EXPECT_DOUBLE_EQ(storage.load(w, one), 8.0);
}

// --- network --------------------------------------------------------------------

TEST(Network, ContentionSerializesSharedLinks) {
  const machine::MachineModel m = machine::make_ipsc860();
  const std::vector<int> shape{8};
  sim::NoiseModel quiet(1, false);

  sim::SimNetwork contended(8, shape, m.node().comm, sim::SimNetworkOptions{true});
  sim::SimNetwork free_net(8, shape, m.node().comm, sim::SimNetworkOptions{false});

  // two messages crossing the same cube links at the same time
  const double a1 = contended.send(0, 7, 4096, 0.0, quiet);
  const double a2 = contended.send(0, 7, 4096, 0.0, quiet);
  const double b1 = free_net.send(0, 7, 4096, 0.0, quiet);
  const double b2 = free_net.send(0, 7, 4096, 0.0, quiet);
  EXPECT_GT(a2, a1);             // queued behind the first
  EXPECT_DOUBLE_EQ(b1, b2);      // contention off: independent
}

TEST(Network, SameNodeIsFree) {
  const machine::MachineModel m = machine::make_ipsc860();
  const std::vector<int> shape{4};
  sim::NoiseModel quiet(1, false);
  sim::SimNetwork net(4, shape, m.node().comm, {});
  EXPECT_DOUBLE_EQ(net.send(2, 2, 1000, 5.0, quiet), 5.0);
}

TEST(Network, MoreHopsTakeLonger) {
  const machine::MachineModel m = machine::make_ipsc860();
  const std::vector<int> shape{8};
  sim::NoiseModel quiet(1, false);
  sim::SimNetwork net(8, shape, m.node().comm, {});
  const int far = net.hops_between(0, 5);
  const int near = net.hops_between(0, 1);
  EXPECT_GT(far, near);
  sim::SimNetwork net2(8, shape, m.node().comm, {});
  const double t_near = net.send(0, 1, 1000, 0.0, quiet);
  const double t_far = net2.send(0, 5, 1000, 0.0, quiet);
  EXPECT_GT(t_far, t_near);
}

// --- noise ----------------------------------------------------------------------

TEST(Noise, DeterministicPerSeed) {
  sim::NoiseModel a(123, true), b(123, true), c(456, true);
  const double fa = a.compute_factor();
  EXPECT_DOUBLE_EQ(fa, b.compute_factor());
  bool differs = false;
  sim::NoiseModel a2(123, true);
  for (int i = 0; i < 16; ++i) {
    differs = differs || std::abs(a2.compute_factor() - c.compute_factor()) > 1e-12;
  }
  EXPECT_TRUE(differs);
}

TEST(Noise, DisabledIsExactlyUnity) {
  sim::NoiseModel off(1, false);
  for (int i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(off.compute_factor(), 1.0);
    EXPECT_DOUBLE_EQ(off.comm_factor(), 1.0);
    EXPECT_DOUBLE_EQ(off.startup_skew(), 0.0);
  }
}

// --- functional execution ---------------------------------------------------------

TEST(Executor, PiProgramComputesPi) {
  SimFixture f;
  auto prog = comp(suite::app("pi").source);
  for (int p : {1, 4}) {
    const auto r = f.run(prog, p);
    ASSERT_TRUE(r.detail.printed.contains("pival"));
    EXPECT_NEAR(r.detail.printed.at("pival"), M_PI, 1e-4) << "P=" << p;
  }
}

TEST(Executor, ResultsIndependentOfProcessorCount) {
  SimFixture f;
  auto prog = comp(suite::app("pbs3").source);
  const double s1 = f.run(prog, 1).detail.printed.at("s");
  const double s8 = f.run(prog, 8).detail.printed.at("s");
  EXPECT_NEAR(s1, s8, 1e-9 * std::abs(s1));
}

TEST(Executor, Pbs4SumOfReciprocals) {
  SimFixture f;
  auto prog = comp(suite::app("pbs4").source);
  front::Bindings b;
  b.set_int("n", 128);
  const double r = f.run(prog, 2, b).detail.printed.at("r");
  // x(i) = 1 + i/n in [1,2] => sum(1/x) in [n/2, n]
  EXPECT_GT(r, 64.0);
  EXPECT_LT(r, 128.0);
}

TEST(Executor, LaplaceBoundaryPropagates) {
  SimFixture f;
  const auto& app = suite::app("laplace_bb");
  auto prog = compiler::compile_with_directives(app.source, app.directive_overrides);
  front::Bindings b;
  b.set_int("n", 16);  // boundary heat reaches the centre within 10 sweeps
  const auto r = f.run(prog, 4, b);
  // interior starts at 0, boundaries at 1; after sweeps the centre is
  // strictly between
  const double centre = r.detail.printed.at("u((n / 2),(n / 2))");
  EXPECT_GT(centre, 0.0);
  EXPECT_LT(centre, 1.0);
}

TEST(Executor, FinanceLatticeGrowsByU) {
  SimFixture f;
  auto prog = comp(suite::app("finance").source);
  const auto r = f.run(prog, 2);
  // after nstep multiplications by u=1.01: s = 50*1.01^16, payoff-discounted
  const double expected = (50.0 * std::pow(1.01, 16) - 50.0) * 0.95;
  EXPECT_NEAR(r.detail.printed.at("w(1)"), expected, 1e-6 * expected);
}

TEST(Executor, DeterministicGivenSeed) {
  SimFixture f;
  auto prog = comp(suite::app("lfk22").source);
  front::Bindings b;
  b.set_int("n", 128);
  const auto r1 = f.run(prog, 4, b, 1);
  const auto r2 = f.run(prog, 4, b, 1);
  EXPECT_DOUBLE_EQ(r1.stats.mean, r2.stats.mean);
}

TEST(Executor, NoiseCreatesVarianceAcrossRuns) {
  SimFixture f;
  auto prog = comp(suite::app("lfk1").source);
  front::Bindings b;
  b.set_int("n", 512);
  sim::Simulator simulator(f.machine);
  compiler::LayoutOptions lo;
  lo.nprocs = 4;
  const auto r = simulator.measure(prog, b, lo, {}, 5);
  EXPECT_EQ(r.stats.samples.size(), 5u);
  EXPECT_GT(r.stats.stddev, 0.0);
  EXPECT_LT(r.stats.stddev / r.stats.mean, 0.05);  // small, paper-like
  EXPECT_LE(r.stats.min, r.stats.mean);
  EXPECT_GE(r.stats.max, r.stats.mean);
}

TEST(Executor, MoreProcessorsReduceLargeProblemTime) {
  SimFixture f;
  auto prog = comp(suite::app("lfk9").source);
  front::Bindings b;
  b.set_int("n", 4096);
  const double t1 = f.run(prog, 1, b).stats.mean;
  const double t8 = f.run(prog, 8, b).stats.mean;
  EXPECT_LT(t8, t1);
  // speedup may exceed P when per-processor working sets start fitting in
  // the 8 KB D-cache; it stays within a sane envelope
  EXPECT_GT(t8, t1 / 16.0);
}

TEST(Executor, MaskedForallCountsOnlyTrueIterations) {
  SimFixture f;
  auto masked = comp(R"f90(
program t
  parameter (n = 2048)
  real v(n), w(n)
!hpf$ template d(n)
!hpf$ align v(i) with d(i)
!hpf$ align w(i) with d(i)
!hpf$ distribute d(block)
  forall (i = 1:n) v(i) = real(i)
  forall (i = 1:n, v(i) .gt. real(n)) w(i) = v(i)*2.0 + 1.0
end program t
)f90");
  auto full = comp(R"f90(
program t
  parameter (n = 2048)
  real v(n), w(n)
!hpf$ template d(n)
!hpf$ align v(i) with d(i)
!hpf$ align w(i) with d(i)
!hpf$ distribute d(block)
  forall (i = 1:n) v(i) = real(i)
  forall (i = 1:n, v(i) .gt. 0.0) w(i) = v(i)*2.0 + 1.0
end program t
)f90");
  // mask never true (v <= n) vs always true: the all-true variant is slower
  const double t_masked = f.run(masked, 1).stats.mean;
  const double t_full = f.run(full, 1).stats.mean;
  EXPECT_LT(t_masked, t_full);
}

TEST(Executor, WhileLoopTripLimitGuards) {
  SimFixture f;
  auto prog = comp(R"f90(
program t
  x = 1.0
  do while (x .gt. 0.0)
    x = x + 1.0
  end do
end program t
)f90");
  sim::Simulator simulator(f.machine);
  compiler::LayoutOptions lo;
  lo.nprocs = 1;
  sim::SimOptions so;
  so.max_while_trips = 100;
  EXPECT_THROW((void)simulator.measure(prog, {}, lo, so, 1), support::CompileError);
}

TEST(Executor, RunIntoMatchesRunBitForBit) {
  SimFixture f;
  const auto& app = suite::app("laplace_bb");
  auto prog = comp(app.source);
  compiler::LayoutOptions lo;
  lo.nprocs = 4;
  const compiler::DataLayout layout(prog.directives, prog.symbols, app.bindings(32), lo);
  sim::SimOptions so;

  sim::Executor fresh(prog, layout, f.machine, so, app.bindings(32));
  const sim::SimResult reference = fresh.run();

  // a reused arena with stale contents from another program must produce
  // the identical result after rebind + run_into
  sim::Executor arena;
  arena.rebind(prog, layout, f.machine, so, app.bindings(32));
  sim::SimResult out;
  arena.run_into(out);
  arena.rebind(prog, layout, f.machine, so, app.bindings(32));
  arena.run_into(out);  // second fill reuses out's buffers
  EXPECT_EQ(out.total, reference.total);
  EXPECT_EQ(out.proc_clock, reference.proc_clock);
  EXPECT_EQ(out.comp, reference.comp);
  EXPECT_EQ(out.comm, reference.comm);
  EXPECT_EQ(out.overhead, reference.overhead);
  EXPECT_EQ(out.printed, reference.printed);
  EXPECT_EQ(out.scalars, reference.scalars);
  ASSERT_EQ(out.per_node.size(), reference.per_node.size());
  for (std::size_t i = 0; i < out.per_node.size(); ++i) {
    EXPECT_EQ(out.per_node[i].total(), reference.per_node[i].total()) << i;
    EXPECT_EQ(out.per_node[i].visits, reference.per_node[i].visits) << i;
  }
}

TEST(Executor, MeasureIntoMatchesMeasureBitForBit) {
  SimFixture f;
  const auto& app = suite::app("pi");
  auto prog = comp(app.source);
  compiler::LayoutOptions lo;
  lo.nprocs = 4;
  const compiler::DataLayout layout(prog.directives, prog.symbols, app.bindings(256), lo);
  sim::Simulator simulator(f.machine);
  const sim::MeasuredResult reference =
      simulator.measure(prog, app.bindings(256), layout, {}, 3);

  sim::Executor arena;
  sim::MeasuredResult out;
  out.stats.samples.assign(17, -1.0);  // stale contents must be discarded
  simulator.measure_into(prog, app.bindings(256), layout, {}, 3, arena, out);
  EXPECT_EQ(out.stats.mean, reference.stats.mean);
  EXPECT_EQ(out.stats.min, reference.stats.min);
  EXPECT_EQ(out.stats.max, reference.stats.max);
  EXPECT_EQ(out.stats.stddev, reference.stats.stddev);
  EXPECT_EQ(out.stats.samples, reference.stats.samples);
  EXPECT_EQ(out.detail.total, reference.detail.total);
  EXPECT_EQ(out.detail.printed, reference.detail.printed);
}

void expect_same_result(const sim::SimResult& got, const sim::SimResult& want,
                        const std::string& what) {
  EXPECT_EQ(got.total, want.total) << what;
  EXPECT_EQ(got.proc_clock, want.proc_clock) << what;
  EXPECT_EQ(got.comp, want.comp) << what;
  EXPECT_EQ(got.comm, want.comm) << what;
  EXPECT_EQ(got.overhead, want.overhead) << what;
  EXPECT_EQ(got.printed, want.printed) << what;
  EXPECT_EQ(got.scalars, want.scalars) << what;
  ASSERT_EQ(got.per_node.size(), want.per_node.size()) << what;
  for (std::size_t i = 0; i < got.per_node.size(); ++i) {
    EXPECT_EQ(got.per_node[i].comp, want.per_node[i].comp) << what << " node " << i;
    EXPECT_EQ(got.per_node[i].comm, want.per_node[i].comm) << what << " node " << i;
    EXPECT_EQ(got.per_node[i].overhead, want.per_node[i].overhead) << what << " node " << i;
    EXPECT_EQ(got.per_node[i].visits, want.per_node[i].visits) << what << " node " << i;
  }
}

// One measure(runs = N) replays one value pass N times; each replay must
// equal a fresh Executor seeded with that run's derived seed, so no replay
// inherits clocks, link occupancy, noise state or metrics from the one
// before it. LFK 2 exercises irregular exchanges, Laplace (Blk,Blk) the
// overlap steady state on a 2-D grid, N-Body reductions and collectives.
TEST(Executor, EveryReplayEqualsAFreshExecutorUnderItsSeed) {
  SimFixture f;
  sim::Simulator simulator(f.machine);
  constexpr int kRuns = 4;
  for (const sim_fixture::Case c :
       {sim_fixture::Case{"lfk2", 256}, sim_fixture::Case{"laplace_bb", 16},
        sim_fixture::Case{"nbody", 24}}) {
    const suite::BenchmarkApp& app = suite::app(c.app);
    const compiler::CompiledProgram prog = sim_fixture::compile_app(app);
    const front::Bindings bindings = app.bindings(c.n);
    for (int nprocs : {2, 4, 8}) {
      const compiler::DataLayout layout = sim_fixture::layout_for(app, prog, bindings, nprocs);
      sim::SimOptions so;
      so.seed = 7919;
      sim::Executor arena;
      sim::MeasuredResult measured;
      simulator.measure_into(prog, bindings, layout, so, kRuns, arena, measured);
      ASSERT_EQ(measured.stats.samples.size(), static_cast<std::size_t>(kRuns));
      for (int r = 0; r < kRuns; ++r) {
        sim::SimOptions fresh_opts = so;
        fresh_opts.seed = so.seed + static_cast<std::uint64_t>(r) * 0x9e3779b97f4a7c15ULL;
        const sim::SimResult fresh =
            sim::Executor(prog, layout, f.machine, fresh_opts, bindings).run();
        const std::string what = std::string(c.app) + " np=" + std::to_string(nprocs) +
                                 " run " + std::to_string(r);
        EXPECT_EQ(measured.stats.samples[static_cast<std::size_t>(r)], fresh.total) << what;
        if (r == 0) expect_same_result(measured.detail, fresh, what);
        // the arena's last value pass replays any seed, in any order
        sim::SimResult again;
        arena.replay_into(fresh_opts.seed, again);
        expect_same_result(again, fresh, what + " (replayed again)");
      }
    }
  }
}

// Every suite app at its smallest measured_sweep size, 1-8 procs, two
// seeds, runs = 3: the numbers the simulator produced when each run was a
// single walk (see sim_fixture.hpp), byte for byte.
TEST(Simulator, MeasuredResultsMatchTheCommittedFixtureByteForByte) {
  std::ifstream in(std::string(HPF90D_FIXTURE_DIR) + "/sim/measured.txt", std::ios::binary);
  ASSERT_TRUE(in);
  const std::string want{std::istreambuf_iterator<char>(in), {}};
  const std::string got = sim_fixture::render();
  EXPECT_EQ(got, want);
}

TEST(Executor, ScalarsReportedForValidation) {
  SimFixture f;
  auto prog = comp(suite::app("lfk2").source);
  const auto r = f.run(prog, 2, suite::app("lfk2").bindings(128));
  // after the level loop ii has halved log2(128)=7 times: 128 -> 1
  ASSERT_TRUE(r.detail.scalars.contains("ii"));
  EXPECT_DOUBLE_EQ(r.detail.scalars.at("ii"), 1.0);
}

}  // namespace
}  // namespace hpf90d
