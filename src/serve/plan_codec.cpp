#include "serve/plan_codec.hpp"

#include <string>
#include <string_view>
#include <vector>

#include "support/codec.hpp"

namespace hpf90d::serve {

namespace {

using support::LineReader;
using Cells = std::vector<std::string_view>;

// --- writer helpers -----------------------------------------------------------

/// Length-prefixed string: "<tag> <len>\n<bytes>\n" — arbitrary bytes
/// round-trip, including newlines and tabs.
void emit_str(std::string& out, const char* tag, std::string_view value) {
  out += tag;
  support::append_sized(out, ' ', value);
}

void emit_int(std::string& out, long long v) {
  out += ' ';
  support::append_int(out, v);
}

void emit_g17(std::string& out, double v) {
  out += ' ';
  support::append_g17(out, v);
}

void emit_bindings(std::string& out, const front::Bindings& bindings) {
  for (const auto& [name, value] : bindings.values()) {
    out += "bind";
    emit_g17(out, value);
    support::append_sized(out, ' ', name);
  }
}

// --- the fixed counter lines --------------------------------------------------
//
// Each table lists one "<tag> <n1> ... <nk>" line's fields in order; the
// encoder and the decoder both walk it, so the two cannot drift apart.

template <typename C, typename Line>
void cache_line(C& c, Line&& line) {
  line("cache", c.compile_hits, c.compile_misses, c.layout_hits, c.layout_misses,
       c.layout_evictions, c.layout_spill_hits, c.layout_capacity);
}

template <typename S, typename Line>
void stats_lines(S& s, Line&& line) {
  cache_line(s.cache, line);
  line("session", s.cached_programs, s.cached_layouts, s.warmed_programs);
  line("jobs", s.jobs_submitted, s.jobs_done, s.jobs_failed, s.jobs_cancelled);
  line("spill", s.spill_layouts_stored, s.spill_layouts_loaded, s.spill_programs_stored);
  line("spilldir", s.spill_dir_bytes, s.spill_dir_files);
  line("queue", s.queue_depth, s.jobs_running, s.slow_jobs);
  line("batch", s.jobs_coalesced, s.points_batched, s.points_scalar, s.points_replayed,
       s.batch_ir_visits, s.batch_lane_visits, s.lanes_evicted, s.lanes_refilled,
       s.simd_stripes, s.lanes_pooled, s.branches_speculated, s.lanes_speculated);
}

/// Writes one counter line.
auto counter_writer(std::string& out) {
  return [&out](const char* tag, const auto&... v) {
    out += tag;
    ((out += ' ', support::append_uint(out, v)), ...);
    out += '\n';
  };
}

/// Reads one counter line back.
auto counter_reader(LineReader& in) {
  return [&in](const char* tag, auto&... v) {
    const Cells f = in.fields(' ', 1 + sizeof...(v), tag);
    std::size_t i = 1;
    ((v = in.u64(f[i++])), ...);
  };
}

// --- reader helpers -----------------------------------------------------------

/// Runs `decode` over the whole of `text`; any rejection surfaces as
/// CodecError.
template <typename Decode>
auto decode_all(std::string_view text, const char* decoder, Decode decode) {
  try {
    LineReader in(text, decoder);
    auto out = decode(in);
    in.end();
    return out;
  } catch (const CodecError&) {
    throw;
  } catch (const std::invalid_argument& e) {
    throw CodecError(e.what());
  }
}

/// Reads a "<magic> <version>" header line.
void expect_header(LineReader& in, std::string_view magic, std::string_view version) {
  const Cells f = in.next_fields(' ');
  if (f.size() != 2 || f[0] != magic) in.fail("not an " + std::string(magic) + " payload");
  if (f[1] != version) in.fail("unsupported version " + std::string(f[1]));
}

std::string expect_str(LineReader& in, const char* tag) {
  return std::string(in.payload(in.fields(' ', 2, tag)));
}

front::Bindings read_bindings(LineReader& in, std::size_t count) {
  front::Bindings b;
  for (std::size_t i = 0; i < count; ++i) {
    const Cells f = in.fields(' ', 3, "bind");
    const double value = in.number(f[1]);
    b.set(std::string(in.payload(f)), value);
  }
  return b;
}

machine::CollectiveAlgo to_collective(const LineReader& in, std::string_view cell) {
  switch (in.integer(cell)) {
    case 0: return machine::CollectiveAlgo::RecursiveTree;
    case 1: return machine::CollectiveAlgo::Linear;
    default: in.fail("unknown collective algorithm " + std::string(cell));
  }
}

api::ExperimentPlan read_plan(LineReader& in) {
  expect_header(in, "hpf90d-plan", "1");
  api::ExperimentPlan plan(expect_str(in, "title"));
  plan.source(expect_str(in, "source"));

  std::vector<std::string> machines;
  std::vector<api::ScaledCase> scaled;
  for (;;) {
    const Cells f = in.next_fields(' ');
    const std::string_view tag = f[0];
    if (tag == "machine" && f.size() == 2) {
      machines.emplace_back(in.payload(f));
    } else if (tag == "nprocs") {
      std::vector<int> counts;
      for (std::size_t i = 1; i < f.size(); ++i) counts.push_back(in.integer(f[i]));
      plan.nprocs(std::move(counts));
    } else if (tag == "runs" && f.size() == 2) {
      plan.runs(in.integer(f[1]));
    } else if (tag == "copts" && f.size() == 3) {
      compiler::CompilerOptions co;
      co.message_vectorization = in.flag(f[1]);
      co.default_mask_probability = in.number(f[2]);
      plan.compiler_options(co);
    } else if (tag == "popts" && f.size() == 5) {
      core::PredictOptions po;
      po.mask_probability = in.number(f[1]);
      po.collective = to_collective(in, f[2]);
      po.trace = in.flag(f[3]);
      po.max_trace_events = in.u64(f[4]);
      plan.predict_options(po);
    } else if (tag == "sopts" && f.size() == 6) {
      sim::SimOptions so;
      so.seed = in.u64(f[1]);
      so.noise = in.flag(f[2]);
      so.contention = in.flag(f[3]);
      so.collective = to_collective(in, f[4]);
      so.max_while_trips = in.i64(f[5]);
      plan.sim_options(so);
    } else if (tag == "variant" && f.size() == 4) {
      api::DirectiveVariant v;
      if (f[1] != "-") v.grid_rank = in.integer(f[1]);
      const std::size_t noverrides = in.count(f[2]);
      v.name = in.payload(f);
      for (std::size_t i = 0; i < noverrides; ++i) {
        v.overrides.push_back(expect_str(in, "override"));
      }
      plan.add_variant(std::move(v));
    } else if (tag == "problem" && f.size() == 3) {
      const std::size_t nbind = in.count(f[1]);
      std::string name(in.payload(f));
      plan.add_problem(std::move(name), read_bindings(in, nbind));
    } else if (tag == "scaled" && f.size() == 4) {
      api::ScaledCase sc;
      sc.nprocs = in.integer(f[1]);
      const std::size_t nbind = in.count(f[2]);
      sc.problem.name = in.payload(f);
      sc.problem.bindings = read_bindings(in, nbind);
      scaled.push_back(std::move(sc));
    } else if (tag == "end" && f.size() == 1) {
      break;
    } else {
      in.fail("malformed or unknown directive \"" + std::string(tag) + '"');
    }
  }
  if (!machines.empty()) plan.machines(std::move(machines));
  if (!scaled.empty()) plan.scaled_cases(std::move(scaled));
  return plan;
}

}  // namespace

std::string encode_plan(const api::ExperimentPlan& plan) {
  std::string out = "hpf90d-plan 1\n";
  emit_str(out, "title", plan.title());
  emit_str(out, "source", plan.program_source());
  for (const auto& m : plan.machine_names()) emit_str(out, "machine", m);
  out += "nprocs";
  for (const int np : plan.nprocs_list()) emit_int(out, np);
  out += "\nruns";
  emit_int(out, plan.measure_runs());
  const auto& co = plan.compiler_opts();
  out += "\ncopts";
  emit_int(out, co.message_vectorization ? 1 : 0);
  emit_g17(out, co.default_mask_probability);
  const auto& po = plan.predict_opts();
  out += "\npopts";
  emit_g17(out, po.mask_probability);
  emit_int(out, static_cast<int>(po.collective));
  emit_int(out, po.trace ? 1 : 0);
  out += ' ';
  support::append_uint(out, po.max_trace_events);
  const auto& so = plan.sim_opts();
  out += "\nsopts ";
  support::append_uint(out, so.seed);
  emit_int(out, so.noise ? 1 : 0);
  emit_int(out, so.contention ? 1 : 0);
  emit_int(out, static_cast<int>(so.collective));
  emit_int(out, so.max_while_trips);
  out += '\n';
  for (const auto& v : plan.variants()) {
    out += "variant ";
    if (v.grid_rank) {
      support::append_int(out, *v.grid_rank);
    } else {
      out += '-';
    }
    out += ' ';
    support::append_uint(out, v.overrides.size());
    support::append_sized(out, ' ', v.name);
    for (const auto& o : v.overrides) emit_str(out, "override", o);
  }
  if (plan.scaled_by_nprocs()) {
    for (const auto& sc : plan.scaled_cases_list()) {
      out += "scaled";
      emit_int(out, sc.nprocs);
      out += ' ';
      support::append_uint(out, sc.problem.bindings.values().size());
      support::append_sized(out, ' ', sc.problem.name);
      emit_bindings(out, sc.problem.bindings);
    }
  } else {
    for (const auto& p : plan.problems()) {
      out += "problem ";
      support::append_uint(out, p.bindings.values().size());
      support::append_sized(out, ' ', p.name);
      emit_bindings(out, p.bindings);
    }
  }
  out += "end\n";
  return out;
}

api::ExperimentPlan decode_plan(std::string_view text) {
  return decode_all(text, "decode_plan", read_plan);
}

std::string encode_study(const study::StudyPlan& plan) {
  std::string out = "hpf90d-study 1\n";
  emit_str(out, "title", plan.title());
  emit_str(out, "base", plan.base());
  for (const auto& axis : plan.family().axes()) {
    out += "axis";
    emit_int(out, static_cast<int>(axis.knob));
    for (const double v : axis.values) emit_g17(out, v);
    out += '\n';
  }
  for (const auto& r : plan.reference_machines()) emit_str(out, "reference", r);
  emit_str(out, "plan", encode_plan(plan.inner()));
  out += "end\n";
  return out;
}

study::StudyPlan decode_study(std::string_view text) {
  return decode_all(text, "decode_study", [](LineReader& in) {
    expect_header(in, "hpf90d-study", "1");
    study::StudyPlan plan(expect_str(in, "title"));
    plan.base_machine(expect_str(in, "base"));
    for (;;) {
      const Cells f = in.next_fields(' ');
      const std::string_view tag = f[0];
      if (tag == "axis" && f.size() >= 2) {
        const int knob = in.integer(f[1]);
        if (knob < 0 || knob > 2) in.fail("unknown knob " + std::string(f[1]));
        std::vector<double> values;
        for (std::size_t i = 2; i < f.size(); ++i) values.push_back(in.number(f[i]));
        plan.knob_axis(static_cast<study::Knob>(knob), std::move(values));
      } else if (tag == "reference" && f.size() == 2) {
        plan.add_reference_machine(std::string(in.payload(f)));
      } else if (tag == "plan" && f.size() == 2) {
        plan.replace_inner(decode_plan(in.payload(f)));
      } else if (tag == "end" && f.size() == 1) {
        break;
      } else {
        in.fail("malformed or unknown directive \"" + std::string(tag) + '"');
      }
    }
    return plan;
  });
}

std::string encode_outcome(const JobOutcome& outcome) {
  std::string out = "hpf90d-result 1\nstate ";
  out += outcome.state;
  out += outcome.is_study ? "\nkind study\n" : "\nkind plan\n";
  emit_str(out, "title", outcome.title);
  emit_str(out, "error", outcome.error);
  out += "wall";
  emit_g17(out, outcome.wall_seconds);
  out += '\n';
  cache_line(outcome.cache, counter_writer(out));
  emit_str(out, "body", outcome.body_csv);
  return out;
}

JobOutcome decode_outcome(std::string_view text) {
  return decode_all(text, "decode_outcome", [](LineReader& in) {
    expect_header(in, "hpf90d-result", "1");
    JobOutcome out;
    out.state = in.fields(' ', 2, "state")[1];
    const std::string_view kind = in.fields(' ', 2, "kind")[1];
    if (kind != "study" && kind != "plan") in.fail("unknown job kind");
    out.is_study = kind == "study";
    out.title = expect_str(in, "title");
    out.error = expect_str(in, "error");
    out.wall_seconds = in.number(in.fields(' ', 2, "wall")[1]);
    cache_line(out.cache, counter_reader(in));
    out.body_csv = expect_str(in, "body");
    return out;
  });
}

std::string encode_stats(const ServerStats& s) {
  // version 5: widens the batch line with cross-chunk pool + speculation
  // counters. v4 added the spilldir and queue lines (disk usage, live
  // queue occupancy, slow-job count); v3 widened the batch line with
  // re-compaction + SIMD telemetry; v2 added the batch line itself.
  std::string out = "hpf90d-stats 5\n";
  stats_lines(s, counter_writer(out));
  return out;
}

ServerStats decode_stats(std::string_view text) {
  return decode_all(text, "decode_stats", [](LineReader& in) {
    // Version-strict: a v4 daemon's payload is a hard error, not a partial
    // decode — mixed-version deployments must fail loudly.
    expect_header(in, "hpf90d-stats", "5");
    ServerStats s;
    stats_lines(s, counter_reader(in));
    return s;
  });
}

}  // namespace hpf90d::serve
