// Conversion of a Model to computational standard form:
//
//     minimize c'x   s.t.  A x {<=,>=,=} b,   0 <= x <= u
//
// Fixed variables (lower == upper) are substituted out; remaining variables
// are shifted by their lower bound. Finite upper bounds are handled by
// policy: the reference dense tableau wants them materialized as extra `<=`
// rows (BoundPolicy::kUpperRows); the sparse bounded-variable engines keep
// them in the per-variable `upper` array instead (BoundPolicy::kInline),
// which keeps the row count — and the basis size — independent of how many
// variables are bounded. map_back() restores values in the original model's
// variable space either way.
#pragma once

#include <vector>

#include "lp/model.h"

namespace sb::lp {

struct StandardRow {
  std::vector<Term> terms;  ///< indices into standard-form variables
  Sense sense = Sense::kLe;
  double rhs = 0.0;
};

/// How finite upper bounds are represented in the standard form.
enum class BoundPolicy {
  kUpperRows,  ///< emit one `x <= u` row per bounded variable (dense tableau)
  kInline,     ///< keep bounds in `upper`; no extra rows (sparse engines)
};

struct StandardForm {
  std::vector<double> cost;       ///< per standard-form variable
  std::vector<double> upper;      ///< shifted upper bound (kInf if none)
  std::vector<StandardRow> rows;
  double objective_offset = 0.0;  ///< from fixed variables and shifts

  // Mapping back to the original model:
  std::vector<int> var_map;      ///< model var -> sf var, or -1 if fixed
  std::vector<double> var_base;  ///< shift (lower bound) or fixed value

  [[nodiscard]] std::size_t var_count() const { return cost.size(); }
};

/// Builds the standard form. Throws InvalidArgument if any variable has a
/// non-finite lower bound.
StandardForm to_standard_form(const Model& model,
                              BoundPolicy policy = BoundPolicy::kUpperRows);

/// Maps standard-form values back into the model's variable space.
std::vector<double> map_back(const StandardForm& sf,
                             const std::vector<double>& sf_values,
                             std::size_t model_var_count);

/// Extracts the sub-LP induced by a row subset: the returned form contains
/// exactly `row_ids` (in the given order) and every variable appearing in
/// them, with costs and bounds carried over. `col_map` (sized var_count())
/// is filled with parent-column -> sub-column indices, -1 for columns
/// outside the subset. Used by the block-angular decomposition
/// (lp/block_decompose.h); the sub-form's var_map/var_base are left empty —
/// it maps to the PARENT standard form via `col_map`, not to a model.
StandardForm extract_row_subform(const StandardForm& sf,
                                 const std::vector<int>& row_ids,
                                 std::vector<int>& col_map);

}  // namespace sb::lp
