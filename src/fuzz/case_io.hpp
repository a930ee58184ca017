#pragma once

#include <string>
#include <string_view>

#include "fuzz/case.hpp"

namespace lcl::fuzz {

/// JSON (de)serialization of `FuzzCase`, built on `lcl::obs::json`. The
/// format stores the problem and instance *explicitly* - alphabets,
/// configuration lists, edge list, input labeling - so corpus files are
/// self-contained regression tests, independent of the generator's RNG.
/// The `"problem"` object is the spec dialect of lint/spec_io.hpp, written
/// and read through it (`spec_to_json_value` / `spec_from_json_value`, then
/// `build_spec`), so a corpus file is also a spec file.
///
/// Schema (version 1):
/// ```json
/// {
///   "version": 1,
///   "oracle": "lift-soundness",
///   "seed": 17,
///   "note": "shrunk from seed 17",
///   "family": "tree",
///   "problem": {
///     "name": "fuzz", "max_degree": 3,
///     "inputs": ["-"], "outputs": ["x0", "x1"],
///     "node_configs": [[0], [0, 1]],
///     "edge_configs": [[0, 1]],
///     "g": [[0, 1]]
///   },
///   "graph": {"nodes": 3, "edges": [[0, 1], [1, 2]]},
///   "input": [0, 0, 0, 0]
/// }
/// ```
std::string to_json(const FuzzCase& fuzz_case);

/// Parses a case; throws `std::runtime_error` with a description of the
/// first malformed field. Validates structural consistency (the problem's
/// L001 rules via `build_spec`, input labels in range, input length ==
/// half-edge count, graph degree <= problem degree) so corrupt corpus files
/// fail loudly at load time.
FuzzCase from_json(std::string_view text);

/// File wrappers; `save_case` creates parent directories as needed. Both
/// throw `std::runtime_error` on I/O failure.
void save_case(const std::string& path, const FuzzCase& fuzz_case);
FuzzCase load_case(const std::string& path);

}  // namespace lcl::fuzz
