#include "study/study_result.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <optional>
#include <stdexcept>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "support/codec.hpp"
#include "support/table.hpp"
#include "support/text.hpp"

namespace hpf90d::study {

namespace {

constexpr const char* kCsvHeader =
    "machine,variant,problem,nprocs,measured,estimated,measured_mean,"
    "measured_min,measured_max,measured_stddev,comp,comm,overhead,wait";

/// The shared scaffolding of every analysis pass. Machines, variants and
/// problems are interned to dense ids in first-appearance order; the
/// report's points are then sorted by (machine, variant, problem, nprocs)
/// ids, so every (machine, variant, problem) curve is one contiguous run
/// ascending in nprocs. Building costs O(n log n) and O(n) memory for n
/// records, whatever the axis product; the first record wins on duplicate
/// keys (later ones are dropped from the index).
class SweepIndex {
 public:
  struct Point {
    std::uint32_t m, v, p;
    int nprocs;
    std::uint32_t record;  // index into the report; the tie-break of the sort
    double estimated;      // the record's estimate, kept here for the scans
  };
  /// One (machine, variant, problem) curve: points_[begin, end).
  struct Series {
    std::uint32_t m, v, p;
    std::uint32_t begin, end;
  };

  explicit SweepIndex(const api::RunReport& report) : report_(report) {
    const auto& recs = report.records;
    points_.reserve(recs.size());
    for (std::size_t i = 0; i < recs.size(); ++i) {
      const api::RunRecord& r = recs[i];
      points_.push_back(Point{machines_.intern(r.machine), variants_.intern(r.variant),
                              problems_.intern(r.problem), r.nprocs,
                              static_cast<std::uint32_t>(i), r.comparison.estimated});
    }
    std::sort(points_.begin(), points_.end(), [](const Point& a, const Point& b) {
      return std::tie(a.m, a.v, a.p, a.nprocs, a.record) <
             std::tie(b.m, b.v, b.p, b.nprocs, b.record);
    });
    // keep the first record of every key: it sorts first among its duplicates
    points_.erase(std::unique(points_.begin(), points_.end(),
                              [](const Point& a, const Point& b) {
                                return same_curve(a, b) && a.nprocs == b.nprocs;
                              }),
                  points_.end());
    for (std::uint32_t i = 0; i < points_.size(); ++i) {
      if (series_.empty() || !same_curve(points_[series_.back().begin], points_[i])) {
        series_.push_back(Series{points_[i].m, points_[i].v, points_[i].p, i, i});
      }
      series_.back().end = i + 1;
    }
  }

  [[nodiscard]] std::string_view machine(std::uint32_t id) const {
    return machines_.names[id];
  }
  [[nodiscard]] std::string_view variant(std::uint32_t id) const {
    return variants_.names[id];
  }
  [[nodiscard]] std::string_view problem(std::uint32_t id) const {
    return problems_.names[id];
  }

  /// Every curve, in (machine, variant, problem) first-appearance order.
  [[nodiscard]] const std::vector<Series>& series() const noexcept { return series_; }
  [[nodiscard]] const Point& point(std::uint32_t i) const { return points_[i]; }

  /// The first record with this key, or nullptr: three hash probes and a
  /// binary search, O(log n).
  [[nodiscard]] const api::RunRecord* find(std::string_view m, std::string_view v,
                                           std::string_view p, int nprocs) const {
    const auto mi = machines_.find(m);
    const auto vi = variants_.find(v);
    const auto pi = problems_.find(p);
    if (!mi || !vi || !pi) return nullptr;
    const Point key{*mi, *vi, *pi, nprocs, 0, 0.0};
    const auto it = std::lower_bound(
        points_.begin(), points_.end(), key, [](const Point& a, const Point& b) {
          return std::tie(a.m, a.v, a.p, a.nprocs) < std::tie(b.m, b.v, b.p, b.nprocs);
        });
    if (it == points_.end() || !same_curve(*it, key) || it->nprocs != nprocs) {
      return nullptr;
    }
    return &report_.records[it->record];
  }

 private:
  struct Axis {
    std::unordered_map<std::string_view, std::uint32_t> ids;
    std::vector<std::string_view> names;  // by id
    std::uint32_t last = 0;               // the previous record's id

    std::uint32_t intern(std::string_view name) {
      // grid reports repeat a name across consecutive records: compare
      // with the previous one before hashing
      if (!names.empty() && names[last] == name) return last;
      const auto [it, fresh] = ids.try_emplace(name, static_cast<std::uint32_t>(names.size()));
      if (fresh) names.push_back(name);
      return last = it->second;
    }
    [[nodiscard]] std::optional<std::uint32_t> find(std::string_view name) const {
      const auto it = ids.find(name);
      if (it == ids.end()) return std::nullopt;
      return it->second;
    }
  };
  static bool same_curve(const Point& a, const Point& b) {
    return a.m == b.m && a.v == b.v && a.p == b.p;
  }

  const api::RunReport& report_;
  Axis machines_, variants_, problems_;
  std::vector<Point> points_;
  std::vector<Series> series_;
};

/// One ordering flip found by a scan, before its names are materialized:
/// crossovers() sizes its output once and copies each name once.
struct Flip {
  const SweepIndex::Series* a;
  const SweepIndex::Series* b;
  int nprocs_before, nprocs_after;
  double a_before, b_before, a_after, b_after;
};

/// Scans one competitor pair along the ascending nprocs axis — a merge of
/// the two curves, so only the processor counts both swept are compared —
/// and records a Flip wherever the estimated-time ordering strictly flips.
void scan_pair(const SweepIndex& ix, const SweepIndex::Series& a,
               const SweepIndex::Series& b, std::vector<Flip>& out) {
  int prev_sign = 0;
  int prev_np = 0;
  double prev_a = 0, prev_b = 0;
  std::uint32_t ia = a.begin, ib = b.begin;
  while (ia < a.end && ib < b.end) {
    const SweepIndex::Point& pa = ix.point(ia);
    const SweepIndex::Point& pb = ix.point(ib);
    if (pa.nprocs != pb.nprocs) {
      (pa.nprocs < pb.nprocs ? ia : ib) += 1;
      continue;
    }
    ++ia;
    ++ib;
    const double ta = pa.estimated;
    const double tb = pb.estimated;
    const int sign = ta < tb ? -1 : (ta > tb ? 1 : 0);
    // Ties are not crossings, and they do not move the anchor either: a
    // flip spanning a tie is reported between the two *decisive* points,
    // so the "before" side always names a real winner.
    if (sign == 0) continue;
    if (prev_sign != 0 && sign != prev_sign) {
      out.push_back(Flip{&a, &b, prev_np, pa.nprocs, prev_a, prev_b, ta, tb});
    }
    prev_sign = sign;
    prev_np = pa.nprocs;
    prev_a = ta;
    prev_b = tb;
  }
}

/// Every flip along one competitor axis: variants compete with the machine
/// held fixed, or machines with the variant held fixed. Curves are grouped
/// by (held, problem) and every pair of rivals within a group is scanned,
/// rivals in first-appearance order — the order of nested loops over the
/// sweep axes, visiting only curves that exist.
void scan_axis(const SweepIndex& ix, bool variants_compete, std::vector<Flip>& out) {
  using Series = SweepIndex::Series;
  const auto held = [&](const Series& s) { return variants_compete ? s.m : s.v; };
  const auto rival = [&](const Series& s) { return variants_compete ? s.v : s.m; };
  std::vector<const Series*> order;
  order.reserve(ix.series().size());
  for (const Series& s : ix.series()) order.push_back(&s);
  std::sort(order.begin(), order.end(), [&](const Series* a, const Series* b) {
    return std::make_tuple(held(*a), a->p, rival(*a)) <
           std::make_tuple(held(*b), b->p, rival(*b));
  });
  for (std::size_t g = 0; g < order.size();) {
    std::size_t end = g + 1;
    while (end < order.size() && held(*order[end]) == held(*order[g]) &&
           order[end]->p == order[g]->p) {
      ++end;
    }
    for (std::size_t i = g; i < end; ++i) {
      for (std::size_t j = i + 1; j < end; ++j) scan_pair(ix, *order[i], *order[j], out);
    }
    g = end;
  }
}

constexpr const char* kFromCsv = "StudyResult::from_csv";

double csv_double(std::string_view cell) { return support::cell_double(cell, kFromCsv); }

}  // namespace

std::string Crossover::str() const {
  // Which side is ahead on each side of the flip reads better than raw
  // sign bookkeeping: "X wins below, Y wins at/after".
  const std::string& before_winner = a_before < b_before ? a : b;
  const std::string& after_winner = a_after < b_after ? a : b;
  return support::strfmt(
      "%s crossover on %s, %s: %s wins at P=%d (%s vs %s), %s wins at P=%d (%s vs %s)",
      axis.c_str(), context.c_str(), problem.c_str(), before_winner.c_str(),
      nprocs_before, support::format_seconds(a_before).c_str(),
      support::format_seconds(b_before).c_str(), after_winner.c_str(), nprocs_after,
      support::format_seconds(a_after).c_str(),
      support::format_seconds(b_after).c_str());
}

const machine::WhatIfParams* StudyResult::params_for(std::string_view machine) const {
  for (const auto& pt : machine_points) {
    if (pt.name == machine) return &pt.params;
  }
  return nullptr;
}

std::vector<Crossover> StudyResult::crossovers() const {
  const SweepIndex ix(report);
  std::vector<Flip> flips;
  // variant-vs-variant flips, machine and problem held fixed
  scan_axis(ix, /*variants_compete=*/true, flips);
  const std::size_t variant_flips = flips.size();
  // machine-vs-machine flips, variant and problem held fixed
  scan_axis(ix, /*variants_compete=*/false, flips);

  std::vector<Crossover> out;
  out.reserve(flips.size());
  for (std::size_t i = 0; i < flips.size(); ++i) {
    const Flip& f = flips[i];
    const bool variants_compete = i < variant_flips;
    out.push_back(Crossover{
        variants_compete ? "variant" : "machine",
        std::string(variants_compete ? ix.variant(f.a->v) : ix.machine(f.a->m)),
        std::string(variants_compete ? ix.variant(f.b->v) : ix.machine(f.b->m)),
        std::string(variants_compete ? ix.machine(f.a->m) : ix.variant(f.a->v)),
        std::string(ix.problem(f.a->p)), f.nprocs_before, f.nprocs_after, f.a_before,
        f.b_before, f.a_after, f.b_after});
  }
  return out;
}

std::vector<ScalabilityCurve> StudyResult::scalability() const {
  const SweepIndex ix(report);
  std::vector<ScalabilityCurve> out;
  out.reserve(ix.series().size());
  for (const auto& s : ix.series()) {
    ScalabilityCurve curve;
    curve.machine = ix.machine(s.m);
    curve.variant = ix.variant(s.v);
    curve.problem = ix.problem(s.p);
    curve.points.reserve(s.end - s.begin);
    for (std::uint32_t i = s.begin; i < s.end; ++i) {
      const SweepIndex::Point& pt = ix.point(i);
      curve.points.push_back(ScalabilityPoint{pt.nprocs, pt.estimated, 1.0, 1.0});
    }
    const ScalabilityPoint base = curve.points.front();
    for (auto& pt : curve.points) {
      pt.speedup = pt.estimated > 0 ? base.estimated / pt.estimated : 0.0;
      pt.efficiency = pt.nprocs > 0 ? pt.speedup * base.nprocs / pt.nprocs : 0.0;
    }
    out.push_back(std::move(curve));
  }
  return out;
}

std::string PointDelta::str() const {
  return support::strfmt("%s %s %s P=%d: %s -> %s (%+.1f%%)", machine.c_str(),
                         variant.c_str(), problem.c_str(), nprocs,
                         support::format_seconds(estimated_before).c_str(),
                         support::format_seconds(estimated_after).c_str(),
                         100.0 * rel_change);
}

namespace {

/// Identity of a crossover conclusion — two studies "agree" on a flip when
/// the same competitors flip at the same place, whatever the exact times.
std::string crossover_key(const Crossover& x) {
  return x.axis + '\x1f' + x.a + '\x1f' + x.b + '\x1f' + x.context + '\x1f' +
         x.problem + '\x1f' + std::to_string(x.nprocs_before) + '\x1f' +
         std::to_string(x.nprocs_after);
}

}  // namespace

StudyDiff StudyResult::diff(const StudyResult& candidate, double threshold) const {
  StudyDiff out;
  out.title_before = title;
  out.title_after = candidate.title;
  out.threshold = threshold;

  // --- crossover conclusions gained/lost --------------------------------------
  const std::vector<Crossover> before = crossovers();
  const std::vector<Crossover> after = candidate.crossovers();
  std::unordered_set<std::string> before_keys, after_keys;
  for (const auto& x : before) before_keys.insert(crossover_key(x));
  for (const auto& x : after) after_keys.insert(crossover_key(x));
  for (const auto& x : after) {
    if (before_keys.count(crossover_key(x)) == 0) out.gained.push_back(x);
  }
  for (const auto& x : before) {
    if (after_keys.count(crossover_key(x)) == 0) out.lost.push_back(x);
  }

  // --- per-point estimated-time deltas ----------------------------------------
  const SweepIndex after_ix(candidate.report);
  for (const auto& r : report.records) {
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
          PointDelta{r.machine, r.variant, r.problem, r.nprocs, a, b, rel});
    }
  }
  // counted like only_in_before, from the other side: a baseline that
  // repeats a key matches one candidate record twice, so "candidate size
  // minus matches" would wrap
  const SweepIndex before_ix(report);
  for (const auto& r : candidate.report.records) {
    if (before_ix.find(r.machine, r.variant, r.problem, r.nprocs) == nullptr) {
      ++out.only_in_after;
    }
  }
  return out;
}

std::string StudyDiff::ascii() const {
  std::string out = support::strfmt("# study diff: %s -> %s (threshold %.0f%%)\n",
                                    title_before.c_str(), title_after.c_str(),
                                    100.0 * threshold);
  if (identical_conclusions()) {
    out += "identical conclusions: no crossover flips, no significant deltas\n";
    return out;
  }
  if (only_in_before > 0 || only_in_after > 0) {
    out += support::strfmt("point sets differ: %zu only in before, %zu only in after\n",
                           only_in_before, only_in_after);
  }
  out += support::strfmt("crossovers gained: %zu\n", gained.size());
  for (const auto& x : gained) out += "  + " + x.str() + "\n";
  out += support::strfmt("crossovers lost: %zu\n", lost.size());
  for (const auto& x : lost) out += "  - " + x.str() + "\n";
  out += support::strfmt("significant deltas: %zu\n", deltas.size());
  for (const auto& d : deltas) out += "  ~ " + d.str() + "\n";
  return out;
}

std::string StudyDiff::csv() const {
  // kind-discriminated rows so one file carries all three change classes:
  //   crossover,<gained|lost>,axis,a,b,context,problem,np_before,np_after
  //   delta,machine,variant,problem,nprocs,before,after,rel_change
  std::string out = "kind,f1,f2,f3,f4,f5,f6,f7,f8\n";
  const auto names = [&out](std::initializer_list<std::string_view> fields) {
    for (const std::string_view f : fields) {
      out += ',';
      support::append_csv_field(out, f);
    }
  };
  const auto crossover_row = [&](const char* tag, const Crossover& x) {
    out += "crossover,";
    out += tag;
    names({x.axis, x.a, x.b, x.context, x.problem});
    out += ',';
    support::append_int(out, x.nprocs_before);
    out += ',';
    support::append_int(out, x.nprocs_after);
    out += '\n';
  };
  for (const auto& x : gained) crossover_row("gained", x);
  for (const auto& x : lost) crossover_row("lost", x);
  for (const auto& d : deltas) {
    out += "delta";
    names({d.machine, d.variant, d.problem});
    out += ',';
    support::append_int(out, d.nprocs);
    for (const double v : {d.estimated_before, d.estimated_after, d.rel_change}) {
      out += ',';
      support::append_g17(out, v);
    }
    out += ",\n";
  }
  return out;
}

std::vector<BottleneckRecord> StudyResult::bottlenecks() const {
  std::vector<BottleneckRecord> out;
  out.reserve(report.records.size());
  for (const auto& r : report.records) {
    out.push_back(BottleneckRecord{r.machine, r.variant, r.problem, r.nprocs, r.phases});
  }
  return out;
}

std::string StudyResult::ascii() const {
  std::string out;
  if (!title.empty()) out += "# " + title + "\n";
  if (!machine_points.empty()) {
    out += support::strfmt("base machine: %s | %zu knob-grid machine points\n",
                           base_machine.c_str(), machine_points.size());
  }

  support::TextTable table({"machine", "variant", "problem", "P", "estimated",
                            "measured", "error", "bottleneck"});
  for (const auto& r : report.records) {
    table.add_row(
        {r.machine, r.variant, r.problem, std::to_string(r.nprocs),
         support::format_seconds(r.comparison.estimated),
         r.measured ? support::format_seconds(r.comparison.measured_mean)
                    : std::string("-"),
         r.measured ? support::strfmt("%.2f%%", r.comparison.abs_error_pct())
                    : std::string("-"),
         support::strfmt("%s %.0f%%", r.phases.dominant(),
                         100.0 * r.phases.dominant_fraction())});
  }
  out += table.str();

  const std::vector<Crossover> flips = crossovers();
  out += support::strfmt("\ncrossovers: %zu\n", flips.size());
  for (const auto& x : flips) out += "  " + x.str() + "\n";

  const std::vector<ScalabilityCurve> curves = scalability();
  if (!curves.empty()) {
    out += "\nscalability (vs smallest P):\n";
    support::TextTable sc({"machine", "variant", "problem", "P*", "speedup", "eff"});
    for (const auto& c : curves) {
      const ScalabilityPoint& last = c.points.back();
      sc.add_row({c.machine, c.variant, c.problem, std::to_string(last.nprocs),
                  support::strfmt("%.2fx", last.speedup),
                  support::strfmt("%.0f%%", 100.0 * last.efficiency)});
    }
    out += sc.str();
  }

  out += support::strfmt(
      "\n%zu points | compile cache %zu hit / %zu miss | layout cache %zu hit "
      "/ %zu miss",
      report.records.size(), report.cache.compile_hits, report.cache.compile_misses,
      report.cache.layout_hits, report.cache.layout_misses);
  if (report.cache.layout_evictions > 0) {
    out += support::strfmt(" / %zu evicted", report.cache.layout_evictions);
  }
  if (report.cache.layout_capacity > 0) {
    out += support::strfmt(" (cap %zu)", report.cache.layout_capacity);
  }
  out += '\n';
  return out;
}

namespace {

/// Bytes a %.17g double takes at most, plus its separator.
constexpr std::size_t kNumBytes = 25;

}  // namespace

std::string StudyResult::csv() const {
  std::size_t bytes = 64 + title.size() + base_machine.size() + std::strlen(kCsvHeader) +
                      machine_points.size() * (16 + 3 * kNumBytes);
  for (const auto& pt : machine_points) bytes += pt.name.size();
  for (const auto& r : report.records) {
    bytes += r.machine.size() + r.variant.size() + r.problem.size() + 16 + 9 * kNumBytes;
  }
  std::string out;
  out.reserve(bytes);
  out += "# study,";
  support::append_csv_field(out, title);
  out += ',';
  support::append_csv_field(out, base_machine);
  out += '\n';
  for (const auto& pt : machine_points) {
    out += "# machine_point,";
    support::append_csv_field(out, pt.name);
    for (const double v :
         {pt.params.latency_scale, pt.params.bandwidth_scale, pt.params.cpu_scale}) {
      out += ',';
      support::append_g17(out, v);
    }
    out += '\n';
  }
  out += kCsvHeader;
  out += '\n';
  for (const auto& r : report.records) {
    support::append_csv_field(out, r.machine);
    out += ',';
    support::append_csv_field(out, r.variant);
    out += ',';
    support::append_csv_field(out, r.problem);
    out += ',';
    support::append_int(out, r.nprocs);
    out += r.measured ? ",1" : ",0";
    for (const double v :
         {r.comparison.estimated, r.comparison.measured_mean, r.comparison.measured_min,
          r.comparison.measured_max, r.comparison.measured_stddev, r.phases.comp,
          r.phases.comm, r.phases.overhead, r.phases.wait}) {
      out += ',';
      support::append_g17(out, v);
    }
    out += '\n';
  }
  return out;
}

StudyResult StudyResult::from_csv(std::string_view text) {
  StudyResult result;
  bool saw_header = false;
  bool saw_study_line = false;
  result.report.records.reserve(
      static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')));
  std::vector<std::string_view> cells;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = support::trim(text.substr(pos, eol - pos));
    pos = eol + 1;
    if (line.empty()) continue;
    if (line.front() == '#') {
      support::split_fields(support::trim(line.substr(1)), ',', cells);
      if (cells[0] == "study") {
        if (cells.size() != 3) {
          throw std::invalid_argument("StudyResult::from_csv: malformed study line");
        }
        result.title = cells[1];
        result.base_machine = cells[2];
        saw_study_line = true;
      } else if (cells[0] == "machine_point") {
        if (cells.size() != 5) {
          throw std::invalid_argument(
              "StudyResult::from_csv: malformed machine_point line");
        }
        MachinePoint pt;
        pt.name = cells[1];
        pt.params.latency_scale = csv_double(cells[2]);
        pt.params.bandwidth_scale = csv_double(cells[3]);
        pt.params.cpu_scale = csv_double(cells[4]);
        result.machine_points.push_back(std::move(pt));
      }
      continue;
    }
    if (!saw_header) {
      if (line != kCsvHeader) {
        throw std::invalid_argument("StudyResult::from_csv: unrecognized header: " +
                                    std::string(line));
      }
      saw_header = true;
      continue;
    }
    support::split_fields(line, ',', cells);
    if (cells.size() != 14) {
      throw std::invalid_argument("StudyResult::from_csv: expected 14 fields, got " +
                                  std::to_string(cells.size()) + " in: " +
                                  std::string(line));
    }
    api::RunRecord r;
    r.machine = cells[0];
    r.variant = cells[1];
    r.problem = cells[2];
    r.nprocs = support::cell_int(cells[3], kFromCsv);
    r.measured = support::cell_flag(cells[4], kFromCsv);
    r.comparison.estimated = csv_double(cells[5]);
    r.comparison.measured_mean = csv_double(cells[6]);
    r.comparison.measured_min = csv_double(cells[7]);
    r.comparison.measured_max = csv_double(cells[8]);
    r.comparison.measured_stddev = csv_double(cells[9]);
    r.phases.comp = csv_double(cells[10]);
    r.phases.comm = csv_double(cells[11]);
    r.phases.overhead = csv_double(cells[12]);
    r.phases.wait = csv_double(cells[13]);
    result.report.records.push_back(std::move(r));
  }
  if (!saw_study_line || !saw_header) {
    throw std::invalid_argument("StudyResult::from_csv: missing study line or header");
  }
  result.report.title = result.title;
  return result;
}

std::string StudyResult::json() const {
  std::size_t bytes = 128 + title.size() + base_machine.size() +
                      machine_points.size() * (96 + 3 * kNumBytes);
  for (const auto& pt : machine_points) bytes += pt.name.size();
  for (const auto& r : report.records) {
    bytes += r.machine.size() + r.variant.size() + r.problem.size() + 240 + 9 * kNumBytes;
  }
  std::string out;
  out.reserve(bytes);
  const auto field = [&out](const char* key, double v) {
    out += key;
    support::append_g17(out, v);
  };
  out += "{\n  \"title\": \"";
  support::append_json_escaped(out, title);
  out += "\",\n  \"base_machine\": \"";
  support::append_json_escaped(out, base_machine);
  out += "\",\n  \"machine_points\": [";
  for (std::size_t i = 0; i < machine_points.size(); ++i) {
    const MachinePoint& pt = machine_points[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": \"";
    support::append_json_escaped(out, pt.name);
    field("\", \"latency_scale\": ", pt.params.latency_scale);
    field(", \"bandwidth_scale\": ", pt.params.bandwidth_scale);
    field(", \"cpu_scale\": ", pt.params.cpu_scale);
    out += '}';
  }
  out += machine_points.empty() ? "],\n" : "\n  ],\n";
  out += "  \"records\": [";
  for (std::size_t i = 0; i < report.records.size(); ++i) {
    const api::RunRecord& r = report.records[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"machine\": \"";
    support::append_json_escaped(out, r.machine);
    out += "\", \"variant\": \"";
    support::append_json_escaped(out, r.variant);
    out += "\", \"problem\": \"";
    support::append_json_escaped(out, r.problem);
    out += "\", \"nprocs\": ";
    support::append_int(out, r.nprocs);
    out += r.measured ? ", \"measured\": true" : ", \"measured\": false";
    field(", \"estimated\": ", r.comparison.estimated);
    field(", \"measured_mean\": ", r.comparison.measured_mean);
    field(", \"measured_min\": ", r.comparison.measured_min);
    field(", \"measured_max\": ", r.comparison.measured_max);
    field(", \"measured_stddev\": ", r.comparison.measured_stddev);
    field(", \"comp\": ", r.phases.comp);
    field(", \"comm\": ", r.phases.comm);
    field(", \"overhead\": ", r.phases.overhead);
    field(", \"wait\": ", r.phases.wait);
    out += '}';
  }
  out += report.records.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

StudyResult StudyResult::from_json(std::string_view text) {
  StudyResult result;
  support::JsonCursor in(text, "StudyResult::from_json");
  in.expect('{');
  bool first_key = true;
  while (!in.consume('}')) {
    if (!first_key) in.expect(',');
    first_key = false;
    const std::string key = in.string();
    in.expect(':');
    if (key == "title") {
      result.title = in.string();
    } else if (key == "base_machine") {
      result.base_machine = in.string();
    } else if (key == "machine_points") {
      in.expect('[');
      while (!in.consume(']')) {
        if (!result.machine_points.empty()) in.expect(',');
        in.expect('{');
        MachinePoint pt;
        bool first = true;
        while (!in.consume('}')) {
          if (!first) in.expect(',');
          first = false;
          const std::string field = in.string();
          in.expect(':');
          if (field == "name") pt.name = in.string();
          else if (field == "latency_scale") pt.params.latency_scale = in.number();
          else if (field == "bandwidth_scale") pt.params.bandwidth_scale = in.number();
          else if (field == "cpu_scale") pt.params.cpu_scale = in.number();
          else in.fail("unknown machine_point field \"" + field + "\"");
        }
        result.machine_points.push_back(std::move(pt));
      }
    } else if (key == "records") {
      in.expect('[');
      while (!in.consume(']')) {
        if (!result.report.records.empty()) in.expect(',');
        in.expect('{');
        api::RunRecord r;
        bool first = true;
        while (!in.consume('}')) {
          if (!first) in.expect(',');
          first = false;
          const std::string field = in.string();
          in.expect(':');
          if (field == "machine") r.machine = in.string();
          else if (field == "variant") r.variant = in.string();
          else if (field == "problem") r.problem = in.string();
          else if (field == "nprocs") r.nprocs = in.integer();
          else if (field == "measured") r.measured = in.boolean();
          else if (field == "estimated") r.comparison.estimated = in.number();
          else if (field == "measured_mean") r.comparison.measured_mean = in.number();
          else if (field == "measured_min") r.comparison.measured_min = in.number();
          else if (field == "measured_max") r.comparison.measured_max = in.number();
          else if (field == "measured_stddev") r.comparison.measured_stddev = in.number();
          else if (field == "comp") r.phases.comp = in.number();
          else if (field == "comm") r.phases.comm = in.number();
          else if (field == "overhead") r.phases.overhead = in.number();
          else if (field == "wait") r.phases.wait = in.number();
          else in.fail("unknown record field \"" + field + "\"");
        }
        result.report.records.push_back(std::move(r));
      }
    } else {
      in.fail("unknown field \"" + key + "\"");
    }
  }
  in.end();
  result.report.title = result.title;
  return result;
}

}  // namespace hpf90d::study
