#include "io/warehouse_io.h"

#include <cctype>

#include "common/strings.h"

#include "io/csv.h"
#include "spec/parser.h"

namespace dwred {

Result<Dimension> ReadDimensionCsv(const std::string& dim_name,
                                   std::string_view csv_text) {
  DWRED_ASSIGN_OR_RETURN(auto rows, ParseCsv(csv_text));
  if (rows.empty()) {
    return Status::InvalidArgument("dimension CSV has no header");
  }
  const std::vector<std::string>& header = rows[0];
  if (header.empty()) {
    return Status::InvalidArgument("dimension CSV header is empty");
  }

  DimensionType type(dim_name);
  std::vector<CategoryId> cats;
  for (const std::string& name : header) {
    cats.push_back(type.AddCategory(name));
  }
  CategoryId top = type.AddCategory("TOP");
  for (size_t i = 0; i + 1 < cats.size(); ++i) {
    DWRED_RETURN_IF_ERROR(type.AddEdge(cats[i], cats[i + 1]));
  }
  DWRED_RETURN_IF_ERROR(type.AddEdge(cats.back(), top));
  DWRED_RETURN_IF_ERROR(type.Finalize());

  Dimension dim(type);
  for (size_t r = 1; r < rows.size(); ++r) {
    const auto& row = rows[r];
    if (row.size() != header.size()) {
      return Status::InvalidArgument(
          "dimension CSV row " + std::to_string(r) + " has " +
          std::to_string(row.size()) + " fields, header has " +
          std::to_string(header.size()));
    }
    // Intern top-down so parents exist.
    ValueId parent = dim.top_value();
    for (size_t i = header.size(); i-- > 0;) {
      CategoryId cat = cats[i];
      auto existing = dim.ValueByName(cat, row[i]);
      if (existing.ok()) {
        // Consistency: the interned value must have the same parent chain.
        ValueId up = dim.Parents(existing.value())[0];
        if (up != parent) {
          return Status::InvalidArgument(
              "value '" + row[i] + "' in category " + header[i] +
              " rolls up inconsistently across rows (row " +
              std::to_string(r) + ")");
        }
        parent = existing.value();
      } else {
        DWRED_ASSIGN_OR_RETURN(parent, dim.AddValue(row[i], cat, parent));
      }
    }
  }
  return dim;
}

Result<std::string> WriteDimensionCsv(const Dimension& dim) {
  const DimensionType& type = dim.type();
  if (!type.IsLinear()) {
    return Status::InvalidArgument(
        "only linear hierarchies export to denormalized CSV (dimension " +
        dim.name() + " is non-linear)");
  }
  // The chain from bottom to (excluding) TOP.
  std::vector<CategoryId> chain;
  CategoryId c = type.bottom();
  while (c != type.top()) {
    chain.push_back(c);
    const std::vector<CategoryId>& anc = type.Anc(c);
    if (anc.empty()) break;
    c = anc[0];
  }

  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> header;
  for (CategoryId cc : chain) header.push_back(type.category_name(cc));
  rows.push_back(header);
  for (ValueId v : dim.CategoryExtent(type.bottom())) {
    std::vector<std::string> row;
    for (CategoryId cc : chain) {
      ValueId up = dim.Rollup(v, cc);
      row.push_back(dim.value_name(up));
    }
    rows.push_back(std::move(row));
  }
  return WriteCsv(rows);
}

std::string WriteFactCsv(const MultidimensionalObject& mo) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> header;
  for (size_t d = 0; d < mo.num_dimensions(); ++d) {
    const std::string& n = mo.dimension(static_cast<DimensionId>(d))->name();
    header.push_back(n + ":category");
    header.push_back(n + ":value");
  }
  for (size_t m = 0; m < mo.num_measures(); ++m) {
    header.push_back(mo.measure_type(static_cast<MeasureId>(m)).name);
  }
  rows.push_back(std::move(header));

  for (FactId f = 0; f < mo.num_facts(); ++f) {
    std::vector<std::string> row;
    for (size_t d = 0; d < mo.num_dimensions(); ++d) {
      const Dimension& dim = *mo.dimension(static_cast<DimensionId>(d));
      ValueId v = mo.Coord(f, static_cast<DimensionId>(d));
      row.push_back(dim.type().category_name(dim.value_category(v)));
      row.push_back(dim.value_name(v));
    }
    for (size_t m = 0; m < mo.num_measures(); ++m) {
      row.push_back(std::to_string(mo.Measure(f, static_cast<MeasureId>(m))));
    }
    rows.push_back(std::move(row));
  }
  return WriteCsv(rows);
}

Status ReadFactCsv(MultidimensionalObject* mo, std::string_view csv_text,
                   bool* needs_intern) {
  if (needs_intern != nullptr) *needs_intern = false;
  DWRED_ASSIGN_OR_RETURN(auto rows, ParseCsv(csv_text));
  if (rows.empty()) return Status::InvalidArgument("fact CSV has no header");
  const size_t ndims = mo->num_dimensions();
  const size_t nmeas = mo->num_measures();
  const size_t expected = 2 * ndims + nmeas;
  if (rows[0].size() != expected) {
    return Status::InvalidArgument(
        "fact CSV header has " + std::to_string(rows[0].size()) +
        " columns, expected " + std::to_string(expected));
  }

  std::vector<ValueId> coords(ndims);
  std::vector<int64_t> meas(nmeas);
  for (size_t r = 1; r < rows.size(); ++r) {
    const auto& row = rows[r];
    if (row.size() != expected) {
      return Status::InvalidArgument("fact CSV row " + std::to_string(r) +
                                     " has the wrong number of fields");
    }
    for (size_t d = 0; d < ndims; ++d) {
      Dimension& dim = *mo->dimension(static_cast<DimensionId>(d));
      const std::string& cat_name = row[2 * d];
      const std::string& val_name = row[2 * d + 1];
      DWRED_ASSIGN_OR_RETURN(CategoryId cat,
                             dim.type().CategoryByName(cat_name));
      auto v = dim.ValueByName(cat, val_name);
      if (v.ok()) {
        coords[d] = v.value();
      } else if (dim.is_time()) {
        DWRED_ASSIGN_OR_RETURN(TimeGranule g, ParseGranule(val_name));
        if (static_cast<CategoryId>(g.unit) != cat) {
          return Status::InvalidArgument(
              "row " + std::to_string(r) + ": time value '" + val_name +
              "' is not of category " + cat_name);
        }
        if (needs_intern == nullptr) {
          DWRED_ASSIGN_OR_RETURN(coords[d], dim.EnsureTimeValue(g));
        } else {
          coords[d] = dim.FindTimeValue(g);
          if (coords[d] == kInvalidValue) {
            *needs_intern = true;
            return Status::OK();
          }
        }
      } else {
        return Status::NotFound("row " + std::to_string(r) +
                                ": unknown value '" + val_name +
                                "' in category " + cat_name);
      }
    }
    for (size_t m = 0; m < nmeas; ++m) {
      int64_t value;
      if (!ParseInt64(row[2 * ndims + m], &value)) {
        return Status::InvalidArgument("row " + std::to_string(r) +
                                       ": bad measure value '" +
                                       row[2 * ndims + m] + "'");
      }
      meas[m] = value;
    }
    auto added = mo->AddFact(coords, meas);
    if (!added.ok()) return added.status();
  }
  return Status::OK();
}

Result<std::vector<Action>> ReadSpecificationText(
    const MultidimensionalObject& mo, std::string_view text) {
  std::vector<Action> actions;
  for (const std::string& raw : Split(text, '\n')) {
    std::string_view line = Trim(raw);
    if (line.empty() || line[0] == '#') continue;
    // Optional "name:" prefix (simple identifier only, so URLs and
    // granularity lists are never mistaken for names).
    std::string name;
    size_t colon = line.find(':');
    if (colon != std::string_view::npos && colon > 0) {
      bool ident = true;
      for (char ch : line.substr(0, colon)) {
        if (!std::isalnum(static_cast<unsigned char>(ch)) && ch != '_') {
          ident = false;
          break;
        }
      }
      if (ident) {
        name = std::string(line.substr(0, colon));
        line = Trim(line.substr(colon + 1));
      }
    }
    DWRED_ASSIGN_OR_RETURN(Action a, ParseAction(mo, line, name));
    actions.push_back(std::move(a));
  }
  return actions;
}

}  // namespace dwred
