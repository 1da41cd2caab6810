#pragma once

// Star-schema CSV import/export — the glue a downstream warehouse needs to
// adopt the library with real data:
//
//  * dimension CSVs are denormalized rollup tables in the style of the
//    paper's Table 2 ("url,domain,domain_grp"): the header names the
//    categories bottom-up along a linear hierarchy, each row one bottom
//    value with its ancestors;
//  * fact CSVs carry, per dimension, a category column and a value column —
//    so reduced warehouses of *mixed* granularity round-trip — plus one
//    column per measure;
//  * specification files hold one action per line ("name: action-text",
//    '#' comments), parsed against the warehouse.

#include <memory>

#include "mdm/mo.h"
#include "spec/action.h"

namespace dwred {

/// Builds a dimension with a linear hierarchy from denormalized CSV text.
/// The header row names the categories from the bottom up; a TOP category is
/// appended automatically. Repeated ancestor values are interned once;
/// inconsistent rollups (the same value with two different parents) fail.
Result<Dimension> ReadDimensionCsv(const std::string& dim_name,
                                   std::string_view csv_text);

/// Writes a dimension as a denormalized rollup table over the categories on
/// the path from its bottom to (excluding) TOP. Only linear hierarchies are
/// supported (the Time dimension is built-in; see Dimension::MakeTimeDimension).
Result<std::string> WriteDimensionCsv(const Dimension& dim);

/// Writes an MO's facts: columns "<dim>:category", "<dim>:value" per
/// dimension and one column per measure.
std::string WriteFactCsv(const MultidimensionalObject& mo);

/// Appends facts from CSV text (the WriteFactCsv layout) to `mo`. Values are
/// resolved by category + name; unknown time values are materialized from
/// their granule spelling; unknown categorical values are an error.
///
/// With `needs_intern`, nothing is materialized: values are resolved by
/// lookup alone, so the dimensions are only read. A time value not yet
/// interned stops the decode with *needs_intern set and `mo` partly filled;
/// the caller discards it and decodes again without `needs_intern`, under
/// whatever lock mutating the shared dimensions requires.
Status ReadFactCsv(MultidimensionalObject* mo, std::string_view csv_text,
                   bool* needs_intern = nullptr);

/// Parses a specification file: one action per line, optionally prefixed
/// "name:", blank lines and '#' comments ignored.
Result<std::vector<Action>> ReadSpecificationText(
    const MultidimensionalObject& mo, std::string_view text);

}  // namespace dwred
