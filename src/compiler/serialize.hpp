// serialize.hpp — persistence format for compilation artifacts.
//
// The experiment service (src/serve) keeps a disk spill tier of the
// session's content-addressed caches so a restarted daemon answers warm.
// Layouts are the expensive, self-contained artifact: serialize_layout
// writes every piece of primary DataLayout state (grid, environment,
// template names, extent snapshot, array maps) into a versioned,
// line-oriented text form, and deserialize_layout rebuilds a layout that
// answers every query — map_for, proc_coords, array_extents,
// ownership_picture — identically to the original. Round trip is exact:
// serialize(deserialize(s)) == s.
//
// Both formats are written through support/codec's one writer and read
// through its one LineReader. A spill file is outside input: a decoder
// rejects any malformed, truncated or inconsistent text — including values
// no DataLayout can hold, such as a zero BLOCK size or a grid_dim outside
// the processor grid — with std::invalid_argument, which the artifact
// store turns into a cache miss.
//
// Programs are not serialized structurally (the SPMD IR carries AST
// expression trees); instead the service persists the *recipe* — source,
// directive overrides, compiler options — keyed by the program cache key,
// and recompiles on warm start (see api/spill.hpp). Compilation is cheap
// next to layout resolution and sweeping; determinism of the pipeline makes
// the recompiled program interchangeable with the original.
#pragma once

#include <string>
#include <string_view>

#include "compiler/mapping.hpp"
#include "compiler/spmd_ir.hpp"

namespace hpf90d::compiler {

// serialize_layout / deserialize_layout are declared in mapping.hpp
// (they are friends of DataLayout); this header is the conventional
// include for artifact persistence.

/// Serializes a program recipe (enough to deterministically recompile).
[[nodiscard]] std::string serialize_recipe(std::string_view source,
                                           const std::vector<std::string>& overrides,
                                           const CompilerOptions& options);

/// Parsed form of serialize_recipe output.
struct ParsedRecipe {
  std::string source;
  std::vector<std::string> overrides;
  CompilerOptions options;
};

/// Throws std::invalid_argument on malformed or version-mismatched input.
[[nodiscard]] ParsedRecipe deserialize_recipe(std::string_view text);

}  // namespace hpf90d::compiler
