#include "compiler/serialize.hpp"

#include <stdexcept>

#include "support/codec.hpp"

namespace hpf90d::compiler {

namespace {

constexpr std::string_view kLayoutHeader = "hpf90d-layout 1";
constexpr std::string_view kRecipeHeader = "hpf90d-recipe 1";

/// A spilled grid larger than this is corrupt: the layout's coordinate
/// table holds one row per processor.
constexpr long long kMaxProcs = 1 << 20;

using Cells = std::vector<std::string_view>;

// Fields within a line are tab-separated; identifiers and %.17g numbers
// never contain tabs, and source text travels length-prefixed, so no
// escaping is needed.
void cell(std::string& out, long long v) {
  out += '\t';
  support::append_int(out, v);
}

void header(support::LineReader& in, std::string_view expected) {
  if (in.next_line() != expected) {
    in.fail("missing or mismatched header (expected \"" + std::string(expected) + "\")");
  }
}

/// Reads one "dim" line and checks it against the grid: the values must be
/// ones a DataLayout can hold, or ownership queries divide by zero or index
/// past the processor grid.
DimDist read_dim(support::LineReader& in, const ProcGrid& grid) {
  const Cells f = in.fields('\t', 8, "dim");
  const int kind = in.integer(f[1]);
  if (kind < 0 || kind > static_cast<int>(front::DistKind::Collapsed)) {
    in.fail("unknown distribution kind " + std::string(f[1]));
  }
  DimDist d;
  d.kind = static_cast<front::DistKind>(kind);
  d.grid_dim = in.integer(f[2]);
  d.nprocs = in.integer(f[3]);
  d.extent = in.i64(f[4]);
  d.align_offset = in.i64(f[5]);
  d.tmpl_extent = in.i64(f[6]);
  d.block = in.i64(f[7]);
  const bool collapsed = d.kind == front::DistKind::Collapsed;
  if (d.grid_dim < -1 || d.grid_dim >= grid.rank() || (d.grid_dim == -1) != collapsed) {
    in.fail("grid_dim " + std::to_string(d.grid_dim) + " does not fit the distribution");
  }
  const int along = collapsed ? 1 : grid.shape[static_cast<std::size_t>(d.grid_dim)];
  if (d.nprocs != along) in.fail("nprocs is not the grid extent along grid_dim");
  if (d.kind == front::DistKind::Block && d.block < 1) in.fail("BLOCK size below 1");
  return d;
}

}  // namespace

std::string serialize_layout(const DataLayout& layout) {
  std::string out(kLayoutHeader);
  out += "\ngrid";
  cell(out, layout.grid_.rank());
  for (const int s : layout.grid_.shape) cell(out, s);

  out += "\nenv";
  cell(out, static_cast<long long>(layout.env_.values().size()));
  out += '\n';
  for (const auto& [name, value] : layout.env_.values()) {
    out += name;
    out += '\t';
    support::append_g17(out, value);
    out += '\n';
  }

  out += "templates";
  cell(out, static_cast<long long>(layout.template_names_.size()));
  out += '\n';
  for (const auto& name : layout.template_names_) {
    out += name;
    out += '\n';
  }

  out += "extents";
  cell(out, static_cast<long long>(layout.extents_.size()));
  out += '\n';
  for (const auto& se : layout.extents_) {
    out += se.name;
    cell(out, se.dims ? 1 : 0);
    cell(out, se.dims ? static_cast<long long>(se.dims->size()) : 0);
    if (se.dims) {
      for (const long long d : *se.dims) cell(out, d);
    }
    out += '\n';
  }

  out += "maps";
  cell(out, static_cast<long long>(layout.maps_.size()));
  out += '\n';
  for (const auto& m : layout.maps_) {
    out += "map";
    cell(out, m.symbol);
    out += '\t';
    out += m.name;
    cell(out, m.template_id);
    cell(out, static_cast<long long>(m.dims.size()));
    out += '\n';
    for (const auto& d : m.dims) {
      out += "dim";
      for (const long long v : {static_cast<long long>(d.kind), static_cast<long long>(d.grid_dim),
                                static_cast<long long>(d.nprocs), d.extent, d.align_offset,
                                d.tmpl_extent, d.block}) {
        cell(out, v);
      }
      out += '\n';
    }
  }
  out += "end\n";
  return out;
}

DataLayout deserialize_layout(std::string_view text) {
  support::LineReader in(text, "deserialize_layout");
  header(in, kLayoutHeader);
  DataLayout layout;

  {
    const Cells grid = in.next_fields('\t');
    if (grid.size() < 2 || grid[0] != "grid") in.fail("bad grid line");
    if (in.u64(grid[1]) != grid.size() - 2) in.fail("grid rank mismatch");
    long long total = 1;
    for (std::size_t d = 2; d < grid.size(); ++d) {
      const int extent = in.integer(grid[d]);
      if (extent < 1) in.fail("grid extent below 1");
      total *= extent;
      if (total > kMaxProcs) in.fail("grid larger than " + std::to_string(kMaxProcs));
      layout.grid_.shape.push_back(extent);
    }
    if (layout.grid_.shape.empty()) in.fail("empty processor grid");
  }

  const std::size_t nenv = in.count(in.fields('\t', 2, "env")[1]);
  for (std::size_t i = 0; i < nenv; ++i) {
    const Cells cells = in.next_fields('\t');
    if (cells.size() != 2) in.fail("bad env entry");
    layout.env_.set(std::string(cells[0]), in.number(cells[1]));
  }

  const std::size_t ntemplates = in.count(in.fields('\t', 2, "templates")[1]);
  for (std::size_t i = 0; i < ntemplates; ++i) {
    layout.template_names_.emplace_back(in.next_line());
  }

  const std::size_t nextents = in.count(in.fields('\t', 2, "extents")[1]);
  layout.extents_.reserve(nextents);
  for (std::size_t i = 0; i < nextents; ++i) {
    const Cells cells = in.next_fields('\t');
    if (cells.size() < 3) in.fail("bad extent entry");
    DataLayout::SymbolExtents se;
    se.name = cells[0];
    const bool resolved = in.flag(cells[1]);
    const std::uint64_t rank = in.u64(cells[2]);
    if (rank != cells.size() - 3 || (!resolved && rank != 0)) {
      in.fail("extent rank mismatch");
    }
    if (resolved) {
      std::vector<long long> dims;
      dims.reserve(cells.size() - 3);
      for (std::size_t d = 3; d < cells.size(); ++d) dims.push_back(in.i64(cells[d]));
      se.dims = std::move(dims);
    }
    layout.extents_.push_back(std::move(se));
  }

  const std::size_t nmaps = in.count(in.fields('\t', 2, "maps")[1]);
  layout.maps_.reserve(nmaps);
  for (std::size_t i = 0; i < nmaps; ++i) {
    const Cells cells = in.fields('\t', 5, "map");
    ArrayMap m;
    m.symbol = in.integer(cells[1]);
    m.name = cells[2];
    m.template_id = in.integer(cells[3]);
    const std::size_t ndims = in.count(cells[4]);
    if (m.symbol < 0 || static_cast<std::size_t>(m.symbol) >= layout.extents_.size()) {
      in.fail("map symbol " + std::to_string(m.symbol) + " has no extent entry");
    }
    if (m.template_id < 0 ||
        static_cast<std::size_t>(m.template_id) >= layout.template_names_.size()) {
      in.fail("map template " + std::to_string(m.template_id) + " is not listed");
    }
    m.dims.reserve(ndims);
    for (std::size_t d = 0; d < ndims; ++d) m.dims.push_back(read_dim(in, layout.grid_));
    layout.maps_.push_back(std::move(m));
  }

  if (in.next_line() != "end") in.fail("missing end marker");
  in.end();
  layout.rebuild_derived_tables();
  return layout;
}

std::string serialize_recipe(std::string_view source,
                             const std::vector<std::string>& overrides,
                             const CompilerOptions& options) {
  std::string out(kRecipeHeader);
  out += "\noptions";
  cell(out, options.message_vectorization ? 1 : 0);
  out += '\t';
  support::append_g17(out, options.default_mask_probability);
  out += "\noverrides";
  cell(out, static_cast<long long>(overrides.size()));
  out += '\n';
  for (const auto& o : overrides) {
    out += "override";
    support::append_sized(out, '\t', o);
  }
  out += "source";
  support::append_sized(out, '\t', source);
  return out;
}

ParsedRecipe deserialize_recipe(std::string_view text) {
  support::LineReader in(text, "deserialize_recipe");
  header(in, kRecipeHeader);
  ParsedRecipe recipe;
  const Cells options = in.fields('\t', 3, "options");
  recipe.options.message_vectorization = in.flag(options[1]);
  recipe.options.default_mask_probability = in.number(options[2]);
  const std::size_t n = in.count(in.fields('\t', 2, "overrides")[1]);
  for (std::size_t i = 0; i < n; ++i) {
    recipe.overrides.emplace_back(in.payload(in.fields('\t', 2, "override")));
  }
  recipe.source = in.payload(in.fields('\t', 2, "source"));
  in.end();
  return recipe;
}

}  // namespace hpf90d::compiler
