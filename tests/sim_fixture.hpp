// sim_fixture.hpp — the simulator's measured results on every suite app,
// rendered as text. Each app runs at the smallest problem size of the
// measured_sweep benchmark workload, on 1, 2, 4 and 8 processors, under
// seeds 42 and 7919, with runs = 3. One line per configuration holds the
// run statistics and the first run's totals in %.17g, plus a digest of the
// first run's per-processor clocks, per-node metrics, printed values and
// final scalars. The committed tests/fixtures/sim/measured.txt is this
// rendering as produced by the simulator before it split into a value pass
// and a timing replay, so the test that compares against it holds every
// measured number bit-identical across that change and any later one.
#pragma once

#include <string>
#include <vector>

#include "compiler/pipeline.hpp"
#include "machine/ipsc860.hpp"
#include "sim/simulator.hpp"
#include "suite/suite.hpp"
#include "support/codec.hpp"
#include "support/text.hpp"

namespace hpf90d::sim_fixture {

struct Case {
  const char* app;
  long long n;  // the lower bound of the app's measured_sweep size range
};

inline const std::vector<Case>& cases() {
  static const std::vector<Case> all = {
      {"lfk1", 384},   {"lfk2", 2048},      {"lfk3", 512},        {"lfk9", 128},
      {"lfk14", 384},  {"lfk22", 384},      {"pbs1", 2560},       {"pbs2", 256},
      {"pbs3", 256},   {"pbs4", 2560},      {"pi", 2560},         {"nbody", 36},
      {"finance", 384}, {"laplace_bb", 16}, {"laplace_bx", 16},   {"laplace_xb", 16},
  };
  return all;
}

inline compiler::CompiledProgram compile_app(const suite::BenchmarkApp& app) {
  return app.directive_overrides.empty()
             ? compiler::compile(app.source)
             : compiler::compile_with_directives(app.source, app.directive_overrides);
}

/// The layout the measured_sweep workload gives `app` on `nprocs`
/// processors: Laplace (Blk,Blk) on a two-dimensional grid, every other app
/// on its directives' default grid.
inline compiler::DataLayout layout_for(const suite::BenchmarkApp& app,
                                       const compiler::CompiledProgram& prog,
                                       const front::Bindings& bindings, int nprocs) {
  compiler::LayoutOptions lo;
  lo.nprocs = nprocs;
  if (app.id == "laplace_bb") lo.grid_shape = compiler::ProcGrid::factorized(nprocs, 2).shape;
  return compiler::make_layout(prog, bindings, lo);
}

/// Hex digest of everything in `r` that the line does not print itself.
inline std::string detail_digest(const sim::SimResult& r) {
  std::string s;
  for (double c : r.proc_clock) {
    support::append_g17(s, c);
    s += ' ';
  }
  s += '|';
  for (const auto& m : r.per_node) {
    support::append_g17(s, m.comp);
    s += ' ';
    support::append_g17(s, m.comm);
    s += ' ';
    support::append_g17(s, m.overhead);
    s += ' ';
    support::append_int(s, m.visits);
    s += ';';
  }
  for (const auto* values : {&r.printed, &r.scalars}) {
    s += '|';
    for (const auto& [name, v] : *values) {
      s += name;
      s += '=';
      support::append_g17(s, v);
      s += ';';
    }
  }
  return support::strfmt("%016llx", static_cast<unsigned long long>(support::fnv1a64(s)));
}

/// One line: app n nprocs seed, the samples, mean min max stddev, the first
/// run's total comp comm overhead, and the digest.
inline void append_line(std::string& out, const Case& c, int nprocs, std::uint64_t seed,
                        const sim::MeasuredResult& m) {
  out += c.app;
  out += ' ';
  support::append_int(out, c.n);
  out += ' ';
  support::append_int(out, nprocs);
  out += ' ';
  support::append_uint(out, seed);
  for (double v : m.stats.samples) {
    out += ' ';
    support::append_g17(out, v);
  }
  for (double v : {m.stats.mean, m.stats.min, m.stats.max, m.stats.stddev, m.detail.total,
                   m.detail.comp, m.detail.comm, m.detail.overhead}) {
    out += ' ';
    support::append_g17(out, v);
  }
  out += ' ';
  out += detail_digest(m.detail);
  out += '\n';
}

inline std::string render() {
  const machine::MachineModel machine = machine::make_ipsc860();
  const sim::Simulator simulator(machine);
  std::string out;
  for (const Case& c : cases()) {
    const suite::BenchmarkApp& app = suite::app(c.app);
    const compiler::CompiledProgram prog = compile_app(app);
    const front::Bindings bindings = app.bindings(c.n);
    for (int nprocs : {1, 2, 4, 8}) {
      const compiler::DataLayout layout = layout_for(app, prog, bindings, nprocs);
      for (std::uint64_t seed : {42ULL, 7919ULL}) {
        sim::SimOptions so;
        so.seed = seed;
        append_line(out, c, nprocs, seed, simulator.measure(prog, bindings, layout, so, 3));
      }
    }
  }
  return out;
}

}  // namespace hpf90d::sim_fixture
