// hpf90d_studycheck — the golden-study regression gate.
//
// Runs a fixed canonical design study (the paper's §7 Laplace latency x
// bandwidth what-if) and compares it against a committed golden artifact
// with StudyResult::diff: the gate fails when any crossover conclusion
// flips, any point moves by more than the threshold, or the point sets
// disagree. Small platform-dependent float drift below the threshold
// passes — the artifact pins the study's *conclusions*, not its bytes.
//
//   hpf90d_studycheck --check golden.csv [--threshold 0.05]
//   hpf90d_studycheck --write golden.csv     (regenerate the artifact)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "study/study.hpp"
#include "suite/suite.hpp"

namespace {

using namespace hpf90d;

/// The canonical study. Any change here must ship with a regenerated
/// golden artifact (run with --write).
study::StudyResult run_canonical_study() {
  const auto& app = suite::app("laplace_bb");
  api::Session session;
  study::StudyPlan plan("golden: laplace latency/bandwidth what-if");
  plan.source(app.source)
      .add_reference_machine("ipsc860")
      .knob_axis(study::Knob::Latency, {0.25, 1, 4})
      .knob_axis(study::Knob::Bandwidth, {1, 4})
      .add_variant("block-block", suite::app("laplace_bb").directive_overrides, 2)
      .add_variant("block-star", suite::app("laplace_bx").directive_overrides)
      .problems_from({32, 64}, app.bindings)
      .nprocs({2, 4, 8})
      .runs(0);
  return study::run_study(session, plan);
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = nullptr;
  bool write = false;
  double threshold = 0.05;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--write") == 0 && i + 1 < argc) {
      write = true;
      path = argv[++i];
    } else if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
      path = argv[++i];
    } else if (std::strcmp(argv[i], "--threshold") == 0 && i + 1 < argc) {
      threshold = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s --check golden.csv [--threshold 0.05] | --write golden.csv\n",
                   argv[0]);
      return 2;
    }
  }
  if (path == nullptr) {
    std::fprintf(stderr, "missing --check/--write <path>\n");
    return 2;
  }

  const study::StudyResult current = run_canonical_study();

  if (write) {
    std::ofstream out(path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path);
      return 2;
    }
    out << current.csv();
    std::printf("wrote golden study artifact: %s (%zu records)\n", path,
                current.report.records.size());
    return 0;
  }

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot read golden artifact %s\n", path);
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const study::StudyResult golden = study::StudyResult::from_csv(buf.str());

  const study::StudyDiff diff = golden.diff(current, threshold);
  std::printf("%s\n", diff.ascii().c_str());
  if (!diff.identical_conclusions()) {
    std::fprintf(stderr,
                 "golden study gate FAILED: conclusions changed "
                 "(gained=%zu lost=%zu deltas=%zu only_before=%zu only_after=%zu)\n",
                 diff.gained.size(), diff.lost.size(), diff.deltas.size(),
                 diff.only_in_before, diff.only_in_after);
    return 1;
  }
  std::printf("golden study gate passed: conclusions identical at threshold %g\n",
              threshold);
  return 0;
}
